from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domainforge.corpus_store import CjkCharTokenizer
from domainforge.keyword_extract import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITER,
    PROVENANCE_BOTH,
    PROVENANCE_LEXICON,
    PROVENANCE_TASK,
    WeightedKeyword,
    build_graph,
    extract_task_keywords,
    filter_candidates,
    fuse,
    keyword_weight,
    load_keywords,
    save_keywords,
    textrank,
    textrank_iterations,
    top_k_keywords,
)

# ---------------------------------------------------------------------------
# Graph construction


def test_build_graph_pair():
    graph = build_graph(["a", "b"], window=2)
    assert set(graph.nodes) == {"a", "b"}
    assert graph.edge_weight("a", "b") == 1
    assert graph.edge_weight("b", "a") == 1


def test_build_graph_repeat_accumulates_no_self_edge():
    graph = build_graph(["a", "b", "a"], window=2)
    assert graph.edge_weight("a", "b") == 2
    assert graph.edge_weight("a", "a") == 0


def test_build_graph_empty():
    graph = build_graph([], window=5)
    assert graph.nodes == []


def test_build_graph_window_reach():
    graph = build_graph(list("abcdef"), window=5)
    assert graph.edge_weight("a", "e") == 1  # four positions apart: in reach
    assert graph.edge_weight("a", "f") == 0  # five apart: out of reach


def test_build_graph_window_validation():
    with pytest.raises(ValueError):
        build_graph(["a", "b"], window=1)


def test_build_graph_stopwords_removed_before_windowing():
    graph = build_graph(["a", "的", "b"], window=2, stopwords={"的"})
    assert graph.edge_weight("a", "b") == 1
    assert "的" not in graph.nodes


# ---------------------------------------------------------------------------
# Ranking


def test_textrank_two_nodes_converge_to_one():
    graph = build_graph(["a", "b"], window=2)
    scores = textrank(graph)
    assert scores["a"] == pytest.approx(1.0, abs=1e-6)
    assert scores["b"] == pytest.approx(1.0, abs=1e-6)


def test_textrank_path_matches_hand_solved_fixed_point():
    # path a-b-c: by symmetry s(a)=s(c)=x and s(b)=y with
    #   x = 0.15 + 0.85*(1/2)*y   and   y = 0.15 + 0.85*(x + x)
    # whose exact solution is x = 0.21375/0.2775, y = 0.15 + 1.7*x
    x = 0.21375 / 0.2775
    y = 0.15 + 1.7 * x
    assert x == pytest.approx(0.7702702702702703, abs=1e-12)
    assert y == pytest.approx(1.4594594594594594, abs=1e-12)
    graph = build_graph(["a", "b", "b", "c"], window=2)
    assert graph.edge_weight("a", "c") == 0  # a path, not a triangle
    scores = textrank(graph)
    assert scores["a"] == pytest.approx(x, abs=1e-4)
    assert scores["b"] == pytest.approx(y, abs=1e-4)
    assert scores["c"] == pytest.approx(x, abs=1e-4)


def test_textrank_isolated_node_scores_one_minus_damping():
    graph = build_graph(["solo"], window=2)
    scores = textrank(graph)
    assert scores["solo"] == 1.0 - DEFAULT_DAMPING
    assert scores["solo"] == pytest.approx(0.15, abs=1e-12)


def test_textrank_converges_before_iteration_cap():
    graph = build_graph(["a", "b", "b", "c"], window=2)
    _, iterations = textrank_iterations(graph)
    assert iterations < DEFAULT_MAX_ITER


def test_textrank_parameter_validation():
    graph = build_graph(["a", "b"], window=2)
    with pytest.raises(ValueError):
        textrank(graph, damping=0.0)
    with pytest.raises(ValueError):
        textrank(graph, damping=1.0)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            textrank(graph, tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            textrank_iterations(graph, max_iter=max_iter)


def test_textrank_permutation_equivariance_is_exact():
    tokens = list("abcabdcebadec")
    mapping = {"a": "v", "b": "w", "c": "x", "d": "y", "e": "z"}
    base = textrank(build_graph(tokens, window=3))
    relabeled = textrank(build_graph([mapping[t] for t in tokens], window=3))
    assert relabeled == {mapping[t]: s for t, s in base.items()}


def test_textrank_empty_graph():
    assert textrank(build_graph([], window=2)) == {}


# ---------------------------------------------------------------------------
# Top-k selection


def test_top_k_breaks_score_ties_lexicographically():
    assert top_k_keywords({"a": 1.4, "b": 0.7, "c": 0.7}, k=2) == ["a", "b"]


def test_top_k_short_input():
    assert top_k_keywords({"a": 1.0}, k=5) == ["a"]


def test_top_k_path_peak():
    scores = textrank(build_graph(["a", "b", "b", "c"], window=2))
    assert top_k_keywords(scores, k=1) == ["b"]


def test_top_k_validation():
    with pytest.raises(ValueError):
        top_k_keywords({"a": 1.0}, k=0)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=4), st.floats(0, 10), max_size=12
    ),
    st.integers(1, 15),
)
def test_top_k_is_sorted_prefix(scores, k):
    result = top_k_keywords(scores, k)
    assert len(result) == min(k, len(scores))
    keys = [(-scores[kw], kw) for kw in result]
    assert keys == sorted((-s, kw) for kw, s in scores.items())[: len(result)]


# ---------------------------------------------------------------------------
# Weights


def test_keyword_weight_examples():
    assert keyword_weight(1) == 1.0
    assert keyword_weight(10) == pytest.approx(3.302585, abs=1e-6)
    assert keyword_weight(100) == pytest.approx(5.605170, abs=1e-6)


def test_keyword_weight_domain():
    with pytest.raises(ValueError):
        keyword_weight(0)
    with pytest.raises(ValueError):
        keyword_weight(-3)


@given(st.integers(1, 10**6))
def test_keyword_weight_strictly_increasing(n):
    assert keyword_weight(n + 1) > keyword_weight(n)


# ---------------------------------------------------------------------------
# Fusion


def test_fuse_keeps_task_weight_and_adds_lexicon_words():
    task = {"甘草": WeightedKeyword("甘草", 3, keyword_weight(3), PROVENANCE_TASK)}
    fused = fuse(task, ["甘草", "黄芪"])
    gancao = fused.get("甘草")
    assert gancao.provenance == PROVENANCE_BOTH
    assert gancao.count == 3
    assert gancao.weight == 1.0 + math.log(3)
    huangqi = fused.get("黄芪")
    assert huangqi.provenance == PROVENANCE_LEXICON
    assert huangqi.count == 0
    assert huangqi.weight == 1.0


def test_fuse_empty_task():
    fused = fuse({}, ["黄芪"])
    assert fused.keywords() == {"黄芪"}
    assert fused.get("黄芪").weight == 1.0


def test_fuse_empty_lexicon():
    task = {"脉": WeightedKeyword("脉", 2, keyword_weight(2), PROVENANCE_TASK)}
    fused = fuse(task, [])
    assert fused.get("脉").provenance == PROVENANCE_TASK


def test_fuse_both_empty():
    assert len(fuse({}, [])) == 0


def test_fuse_entries_sorted_by_weight_then_keyword():
    task = {
        "b": WeightedKeyword("b", 5, keyword_weight(5), PROVENANCE_TASK),
        "a": WeightedKeyword("a", 1, 1.0, PROVENANCE_TASK),
    }
    fused = fuse(task, ["c"])
    assert [e.keyword for e in fused.entries] == ["b", "a", "c"]


@given(
    st.dictionaries(st.text(min_size=1, max_size=3), st.integers(1, 20), max_size=8),
    st.lists(st.text(min_size=1, max_size=3), max_size=8),
)
def test_fuse_covers_union(task_counts, lexicon):
    task = {
        kw: WeightedKeyword(kw, n, keyword_weight(n), PROVENANCE_TASK)
        for kw, n in task_counts.items()
    }
    fused = fuse(task, lexicon)
    assert fused.keywords() == set(task_counts) | set(lexicon)


# ---------------------------------------------------------------------------
# End-to-end extraction


def test_extract_task_keywords_counts_samples():
    tok = CjkCharTokenizer()
    samples = ["脉象弦滑者肝胆湿热"] * 4
    task = extract_task_keywords(samples, tok, k=3)
    assert task  # deterministic text yields at least one keyword
    for entry in task.values():
        assert entry.count == 4
        assert entry.weight == keyword_weight(4)
        assert entry.provenance == PROVENANCE_TASK


def test_extract_task_keywords_requires_samples():
    with pytest.raises(ValueError):
        extract_task_keywords([], CjkCharTokenizer())


def test_filter_candidates_drops_stopwords_and_single_latin():
    tokens = ["脉", "的", "x", "bm25", "象"]
    assert filter_candidates(tokens) == ["脉", "bm25", "象"]


# ---------------------------------------------------------------------------
# Persistence


def test_keywords_round_trip(tmp_path):
    task = {
        "脉象": WeightedKeyword("脉象", 7, keyword_weight(7), PROVENANCE_TASK),
    }
    fused = fuse(task, ["阴阳"])
    path = tmp_path / "keywords.tsv"
    save_keywords(fused, path)
    assert load_keywords(path) == fused


def test_loaded_keywords_name_the_digest_of_the_file_bytes(tmp_path):
    path = tmp_path / "keywords.tsv"
    save_keywords(fuse({}, ["阴阳", "脉象"]), path)
    loaded = load_keywords(path)
    assert loaded.digest == hashlib.blake2b(path.read_bytes(), digest_size=8).digest()
    # the file's bytes, not the entries: a blank line parses the same
    path.write_bytes(path.read_bytes() + b"\n")
    again = load_keywords(path)
    assert again == loaded and again.digest != loaded.digest
