from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from domainforge import retrieval
from domainforge.artifact import NO_FILE_DIGEST, pack_text, write_artifact
from domainforge.corpus_store import (
    CjkCharTokenizer,
    Document,
    RawRecord,
    ingest,
    load_store,
    save_store,
)
from domainforge.errors import (
    ChecksumMismatchError,
    EmptyCorpusError,
    MagicMismatchError,
    NoPositiveScoreError,
    SelectionBudgetError,
    TruncatedArtifactError,
)
from domainforge.keyword_extract import (
    PROVENANCE_LEXICON,
    PROVENANCE_TASK,
    DomainKeywordSet,
    WeightedKeyword,
    _sorted_entries,
)
from domainforge.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    INDEX_MAGIC,
    ExpandedQuery,
    InvertedIndex,
    Postings,
    ScoredDoc,
    bm25_score,
    build_index,
    expand_query,
    idf,
    load_index,
    retrieve_top_n,
    save_index,
    save_provenance,
    select_corpus,
)
from test_corpus_store import _mixed_texts

TOK = CjkCharTokenizer()


def store_of(texts, min_tokens=1):
    records = [RawRecord(f"s{i}", "", text) for i, text in enumerate(texts)]
    return ingest(records, TOK, min_tokens=min_tokens)


def kset_of(*entries):
    return DomainKeywordSet(entries=_sorted_entries(entries))


def pairs_of(plist):
    """A ``Postings``' columns as [(doc_id, tf), ...], checking their dtype."""
    assert plist.doc_ids.dtype == plist.tfs.dtype == np.uint32
    return list(zip(plist.doc_ids.tolist(), plist.tfs.tolist()))


# ---------------------------------------------------------------------------
# Index construction


def test_build_index_single_doc_postings():
    index = build_index(store_of(["a b a"]))
    assert {t: pairs_of(p) for t, p in index.postings.items()} == {
        "a": [(0, 2)], "b": [(0, 1)]
    }
    assert index.num_docs == 1
    assert index.avgdl == 3.0


def test_build_index_average_length():
    index = build_index(store_of(["a b", "a b c d"]))
    assert index.avgdl == 3.0
    assert index.doc_lengths == [2, 4]


def test_build_index_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_index(store_of([]))


def test_build_index_parameter_validation():
    store = store_of(["a b"])
    for k1 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="k1 must be positive and finite"):
            build_index(store, k1=k1)
    with pytest.raises(ValueError):
        build_index(store, b=1.5)


def test_index_postings_sorted_by_doc_id():
    index = build_index(store_of(["x y", "y z", "x y z"]))
    for plist in index.postings.values():
        doc_ids = plist.doc_ids.tolist()
        assert doc_ids == sorted(set(doc_ids))
        assert len(plist.tfs) == len(doc_ids)


def _counter_index(store):
    """The index that one ``Counter`` of each document's tokens gives."""
    columns: dict[str, tuple[list[int], list[int]]] = {}
    doc_lengths = []
    for doc in store:
        counts = Counter(TOK.tokenize(doc.text))
        for term, tf in counts.items():
            doc_ids, tfs = columns.setdefault(term, ([], []))
            doc_ids.append(doc.doc_id)
            tfs.append(tf)
        doc_lengths.append(counts.total())
    return InvertedIndex(
        postings={
            term: Postings(np.array(doc_ids, np.uint32), np.array(tfs, np.uint32))
            for term, (doc_ids, tfs) in columns.items()
        },
        doc_lengths=doc_lengths,
        avgdl=sum(doc_lengths) / len(doc_lengths),
    )


@pytest.mark.parametrize("seed", [3, 5, 9])
def test_build_index_matches_a_token_counter_per_document(tmp_path, seed):
    texts = [
        *_mixed_texts(200, seed=seed, max_len=60),
        "𠀀脉 İstanbul １２３ pulse_rate 𠀀 脉",
        "latin only: words, digits 42 and WORDS",
        "!! ,, ??",
    ]
    store = store_of(texts, min_tokens=0)
    assert store.documents[-1].token_count == 0
    index, reference = build_index(store), _counter_index(store)
    assert {t: pairs_of(p) for t, p in index.postings.items()} == {
        t: pairs_of(p) for t, p in reference.postings.items()
    }
    assert index.doc_lengths == reference.doc_lengths == [d.token_count for d in store]
    save_index(index, tmp_path / "built.idx")
    save_index(reference, tmp_path / "reference.idx")
    assert (tmp_path / "built.idx").read_bytes() == (tmp_path / "reference.idx").read_bytes()


def test_postings_length_truth_and_equality():
    # the bench tracer relies on len() and bool() of a postings value, and
    # index round trips on its equality
    one = Postings(np.array([0, 2], np.uint32), np.array([1, 3], np.uint32))
    assert len(one) == 2 and one
    assert not Postings(np.array([], np.uint32), np.array([], np.uint32))
    assert one == Postings(np.array([0, 2], np.uint32), np.array([1, 3], np.uint32))
    assert one != Postings(np.array([0, 2], np.uint32), np.array([1, 4], np.uint32))
    assert one != Postings(np.array([0, 1], np.uint32), np.array([1, 3], np.uint32))


def test_term_frequency_lookup():
    index = build_index(store_of(["x y", "y z", "x y z x"]))
    assert [index.term_frequency("x", d) for d in range(-1, 4)] == [0, 1, 0, 2, 0]
    assert index.term_frequency("absent", 0) == 0
    assert index.doc_frequency("y") == 3


# ---------------------------------------------------------------------------
# IDF


def test_idf_positive_even_for_ubiquitous_terms():
    index = build_index(store_of(["t a", "t b", "t c"]))
    assert idf(index, "t") == math.log(1.0 + 0.5 / 3.5)
    assert idf(index, "t") > 0.0


def test_idf_unseen_term():
    index = build_index(store_of(["a b"]))
    assert idf(index, "zzz") == math.log(1.0 + 1.5 / 0.5)


# ---------------------------------------------------------------------------
# Scoring


def test_bm25_single_doc_worked_example():
    index = build_index(store_of(["a a b"]))
    score = bm25_score(index, 0, ExpandedQuery({"a": 1}))
    # idf = ln(1 + 0.5/1.5) = ln(4/3); tf part = 2*2.2/(2 + 1.2*1.0) = 1.375
    assert score == math.log(1.0 + 0.5 / 1.5) * 1.375
    assert score == pytest.approx(0.39556284962119864, abs=1e-12)


def test_bm25_duplicated_term_scales_exactly():
    index = build_index(store_of(["a a b"]))
    one = bm25_score(index, 0, ExpandedQuery({"a": 1}))
    two = bm25_score(index, 0, ExpandedQuery({"a": 2}))
    assert two == 2.0 * one


def test_bm25_miss_contributes_zero():
    index = build_index(store_of(["a a b"]))
    assert bm25_score(index, 0, ExpandedQuery({"zzz": 3})) == 0.0
    assert bm25_score(index, 0, ExpandedQuery({"a": 1, "zzz": 3})) == bm25_score(
        index, 0, ExpandedQuery({"a": 1})
    )


def test_bm25_doc_id_validation():
    index = build_index(store_of(["a b"]))
    with pytest.raises(ValueError):
        bm25_score(index, 1, ExpandedQuery({"a": 1}))


def test_bm25_monotone_in_term_frequency():
    index = build_index(store_of(["t u v", "t t u", "t t t"]))
    q = ExpandedQuery({"t": 1})
    scores = [bm25_score(index, d, q) for d in range(3)]
    assert scores[0] < scores[1] < scores[2]


def test_bm25_b_zero_removes_length_normalization():
    index = build_index(store_of(["t u", "t w x y"]), b=0.0)
    q = ExpandedQuery({"t": 1})
    assert bm25_score(index, 0, q) == bm25_score(index, 1, q)


@given(st.integers(1, 5), st.integers(0, 2))
def test_bm25_multiplicity_linearity(m, doc_id):
    index = build_index(store_of(["t u v", "t t w", "u v w"]))
    q1 = ExpandedQuery({"t": 1})
    qm = ExpandedQuery({"t": m})
    assert bm25_score(index, doc_id, qm) == m * bm25_score(index, doc_id, q1)


# ---------------------------------------------------------------------------
# Query expansion


def test_expand_query_caps_repetitions():
    kset = kset_of(
        WeightedKeyword("aa", 0, 1.0, PROVENANCE_LEXICON),
        WeightedKeyword("bb", 10, 3.302585092994046, PROVENANCE_TASK),
        WeightedKeyword("cc", 100, 5.605170185988092, PROVENANCE_TASK),
    )
    query = expand_query(kset, TOK.tokenizer_id)
    assert query.counts == {"aa": 1, "bb": 3, "cc": 3}


def test_expand_query_floors_fractional_weights():
    kset = kset_of(WeightedKeyword("xx", 4, 2.5, PROVENANCE_TASK))
    assert expand_query(kset, TOK.tokenizer_id).counts == {"xx": 2}


def test_expand_query_splits_multi_token_keywords():
    kset = kset_of(WeightedKeyword("脉象", 10, 3.302585, PROVENANCE_TASK))
    assert expand_query(kset, TOK.tokenizer_id).counts == {"脉": 3, "象": 3}


def test_expand_query_merges_shared_tokens():
    kset = kset_of(
        WeightedKeyword("脉象", 1, 1.0, PROVENANCE_TASK),
        WeightedKeyword("脉诊", 10, 3.302585, PROVENANCE_TASK),
    )
    counts = expand_query(kset, TOK.tokenizer_id).counts
    assert counts == {"脉": 4, "象": 1, "诊": 3}


def test_expanded_query_multiset_view():
    # its length is the multiset's: each term counted with its multiplicity
    assert len(ExpandedQuery({"a": 2, "b": 1})) == 3
    assert len(ExpandedQuery({})) == 0


# ---------------------------------------------------------------------------
# Ranked retrieval


def test_retrieve_single_matching_document():
    index = build_index(store_of(["a b", "c d", "e f", "needle x", "g h"]))
    result = retrieve_top_n(index, ExpandedQuery({"needle": 1}), n=5)
    assert len(result) == 1
    assert result[0].doc_id == 3
    assert result[0].score > 0.0


def test_retrieve_ties_break_by_doc_id():
    index = build_index(store_of(["x y", "x y", "x y"]))
    result = retrieve_top_n(index, ExpandedQuery({"x": 1}), n=3)
    assert [sd.doc_id for sd in result] == [0, 1, 2]
    assert result[0].score == result[1].score == result[2].score


def test_retrieve_caps_result_count():
    index = build_index(store_of(["x a", "x b", "x c"]))
    assert len(retrieve_top_n(index, ExpandedQuery({"x": 1}), n=2)) == 2


def test_retrieve_excludes_zero_scores():
    index = build_index(store_of(["a b", "c d"]))
    assert retrieve_top_n(index, ExpandedQuery({"zzz": 1}), n=2) == []


def test_retrieve_n_validation():
    index = build_index(store_of(["a b"]))
    with pytest.raises(ValueError):
        retrieve_top_n(index, ExpandedQuery({"a": 1}), n=0)


def _oracle_ranking(doc_tokens, k1, b, counts):
    """Independent BM25 re-derivation, accumulating terms in sorted order."""
    big_n = len(doc_tokens)
    lens = [len(toks) for toks in doc_tokens]
    avgdl = sum(lens) / len(lens)
    out = []
    for doc_id, toks in enumerate(doc_tokens):
        score = 0.0
        for term in sorted(counts):
            tf = toks.count(term)
            if tf == 0:
                continue
            n = sum(1 for other in doc_tokens if term in other)
            idf_val = math.log(1.0 + (big_n - n + 0.5) / (n + 0.5))
            norm = 1.0 - b + b * lens[doc_id] / avgdl
            tf_comp = tf * (k1 + 1.0) / (tf + k1 * norm)
            score += counts[term] * (idf_val * tf_comp)
        if score > 0.0:
            out.append(ScoredDoc(doc_id, score))
    return sorted(out, key=lambda sd: (-sd.score, sd.doc_id))


def brute_force_corpus(seed=2024, n_docs=50, n_queries=20):
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(30)]
    texts = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(5, 40)))
        for _ in range(n_docs)
    ]
    queries = []
    for _ in range(n_queries):
        terms = rng.sample(vocab + ["unseen"], rng.randint(1, 4))
        queries.append({t: rng.randint(1, 3) for t in terms})
    return texts, queries


def test_retrieve_matches_brute_force_oracle_bitwise():
    texts, queries = brute_force_corpus()
    store = store_of(texts)
    index = build_index(store)
    doc_tokens = [TOK.tokenize(d.text) for d in store]
    for counts in queries:
        expected = _oracle_ranking(doc_tokens, index.k1, index.b, counts)
        got = retrieve_top_n(index, ExpandedQuery(counts), n=len(texts))
        assert got == expected  # identical floats, identical order


# ---------------------------------------------------------------------------
# Budgeted selection


def test_select_takes_everything_when_budget_allows():
    store = store_of(["x a b", "x c d", "x e f"])
    index = build_index(store)
    selection = select_corpus(index, store, ExpandedQuery({"x": 1}), token_budget=100)
    assert len(selection.store) == 3
    assert selection.selected_tokens == store.total_tokens


def test_select_budget_below_top_document():
    store = store_of(["x a b c d"])
    index = build_index(store)
    with pytest.raises(SelectionBudgetError) as err:
        select_corpus(index, store, ExpandedQuery({"x": 1}), token_budget=2)
    assert "token budget" in str(err.value)
    assert "5 tokens" in str(err.value)


def test_select_no_positive_scores():
    store = store_of(["a b", "c d"])
    index = build_index(store)
    with pytest.raises(NoPositiveScoreError) as err:
        select_corpus(index, store, ExpandedQuery({"zzz": 1}), token_budget=10)
    assert "no positive-score documents" in str(err.value)


def test_select_stops_at_first_overflowing_document():
    # ranking is A (tf 3 of 5 tokens) > B (tf 10 of 100) > C (tf 1 of 3);
    # budget admits A, then B overflows and selection stops -- C is not
    # pulled forward past it
    texts = [
        "t t t u v",
        " ".join(["t"] * 10 + ["w"] * 90),
        "t x y",
    ]
    store = store_of(texts)
    index = build_index(store)
    query = ExpandedQuery({"t": 1})
    assert [sd.doc_id for sd in retrieve_top_n(index, query, 3)] == [0, 1, 2]
    selection = select_corpus(index, store, query, token_budget=9)
    assert [orig for orig, _ in selection.provenance] == [0]


def test_select_provenance_and_dense_ids():
    store = store_of(["t t a", "b c d", "t e f"])
    index = build_index(store)
    selection = select_corpus(index, store, ExpandedQuery({"t": 1}), token_budget=10)
    ranked = retrieve_top_n(index, ExpandedQuery({"t": 1}), n=3)
    assert [d.doc_id for d in selection.store] == [0, 1]
    assert selection.provenance == tuple((sd.doc_id, sd.score) for sd in ranked)
    assert [d.text for d in selection.store] == [
        store.documents[sd.doc_id].text for sd in ranked
    ]
    assert selection.store.tokenizer_id == store.tokenizer_id


def test_select_budget_validation():
    store = store_of(["t a"])
    index = build_index(store)
    with pytest.raises(ValueError):
        select_corpus(index, store, ExpandedQuery({"t": 1}), token_budget=0)


@pytest.mark.parametrize("indexed, held", [(4, 2), (2, 4)], ids=["more", "fewer"])
def test_select_rejects_an_index_of_another_document_count(indexed, held):
    texts = ["t a", "t b", "t c", "t d"]
    index, store = build_index(store_of(texts[:indexed])), store_of(texts[:held])
    with pytest.raises(
        ValueError, match=f"index covers {indexed} documents but the store has {held}"
    ):
        select_corpus(index, store, ExpandedQuery({"t": 1}), token_budget=100)


@given(
    st.lists(st.sampled_from(["t", "t t", "t a b c", "a b", "t " * 7, "脉 t", "!!"]), max_size=12),
    st.integers(1, 40),
)
def test_select_is_the_greedy_walk_down_the_ranking(texts, budget):
    # "!!" is a document of 0 tokens, kept with min_tokens=0
    store = store_of(["t a", *texts], min_tokens=0)
    index = build_index(store)
    query = ExpandedQuery({"t": 1})
    ranked = retrieve_top_n(index, query, n=len(store))
    taken, used = [], 0
    for sd in ranked:
        count = store.documents[sd.doc_id].token_count
        if used + count > budget:
            break
        taken.append((sd.doc_id, sd.score))
        used += count
    if not taken:
        with pytest.raises(SelectionBudgetError):
            select_corpus(index, store, query, token_budget=budget)
        return
    selection = select_corpus(index, store, query, token_budget=budget)
    assert selection.provenance == tuple(taken)
    assert [(d.title, d.text, d.token_count) for d in selection.store] == [
        (d.title, d.text, d.token_count) for d in (store.documents[i] for i, _ in taken)
    ]
    assert selection.selected_tokens == used


@pytest.mark.parametrize(
    "texts, budget, asked",
    [
        (["t a b"] * 10, 7, 3),          # 3 tokens each: at most 2 fit
        (["t a b"] * 10, 1000, 10),      # the whole store fits: every document
        (["t a", "t b c d"] * 5, 9, 5),  # the fewest is 2 tokens: at most 4 fit
        (["t a", "!!", "t"], 2, 3),      # a 0-token document: every document
    ],
)
def test_select_ranks_only_what_the_budget_can_take(monkeypatch, texts, budget, asked):
    store = store_of(texts, min_tokens=0)
    index = build_index(store)
    query = ExpandedQuery({"t": 1})
    full = select_corpus(index, store, query, token_budget=budget)
    calls = []

    def recorded(index, query, n):
        calls.append(n)
        return retrieve_top_n(index, query, n)

    monkeypatch.setattr(retrieval, "retrieve_top_n", recorded)
    assert select_corpus(index, store, query, token_budget=budget) == full
    assert calls == [asked]
    assert full.provenance == tuple(
        (sd.doc_id, sd.score) for sd in retrieve_top_n(index, query, len(store))
    )[: len(full.store)]


def test_index_and_select_make_no_document_of_a_loaded_store(tmp_path, monkeypatch):
    store = store_of([f"t {i} " * (i % 4 + 1) + "脉" for i in range(30)])
    path = tmp_path / "corpus.store"
    save_store(store, path)
    made = []
    init = Document.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Document, "__init__", counted)
    loaded = load_store(path)
    index = build_index(loaded)
    assert made == []
    selection = select_corpus(index, load_store(path), ExpandedQuery({"t": 1}), token_budget=20)
    save_store(selection.store, tmp_path / "selected.store")
    assert made == []
    assert 0 < len(selection.store) < len(store)
    assert len(list(selection.store)) == len(made)  # reading one makes one


# ---------------------------------------------------------------------------
# Persistence


def test_index_round_trip(tmp_path):
    index = build_index(store_of(["脉 象 弦", "气 血 两 虚", "脉 诊"]))
    path = tmp_path / "corpus.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert {t: pairs_of(p) for t, p in loaded.postings.items()} == {
        t: pairs_of(p) for t, p in index.postings.items()
    }


def test_index_resave_is_byte_identical(tmp_path):
    index = build_index(store_of(["a b c", "b c d"]))
    p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
    save_index(index, p1)
    save_index(load_index(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_index_round_trip_rescoring_is_bitwise(tmp_path):
    texts, queries = brute_force_corpus(seed=7, n_docs=10, n_queries=5)
    index = build_index(store_of(texts))
    path = tmp_path / "re.idx"
    save_index(index, path)
    reloaded = load_index(path)
    for counts in queries:
        q = ExpandedQuery(counts)
        assert retrieve_top_n(reloaded, q, 10) == retrieve_top_n(index, q, 10)


def test_a_replaced_store_and_its_index_name_no_file(tmp_path):
    # the digest names the loaded file's bytes; a store made from it by
    # dataclasses.replace holds other documents, or the same ones reordered
    path = tmp_path / "two.store"
    save_store(store_of(["脉象弦滑", "气血两虚"]), path)
    loaded = load_store(path)
    assert loaded.digest != NO_FILE_DIGEST
    assert build_index(loaded).store_digest == loaded.digest
    reordered = dataclasses.replace(loaded, documents=loaded.documents.take([1, 0]))
    assert [d.text for d in reordered] == ["气血两虚", "脉象弦滑"]
    assert reordered.digest == NO_FILE_DIGEST
    assert build_index(reordered).store_digest == NO_FILE_DIGEST


# Mixed CJK and Latin text; the digest is that of the file written by the
# row-at-a-time index (a list of (doc_id, tf) tuples per term, one
# struct.pack per posting) that the columnar one replaced, moved to the
# DFIDX2 layout: the DFIDX1 file (SHA-256 4ea6aa2a...) with its tokenizer id
# replaced by the 8-byte digest of a store built in memory.
GOLDEN_TEXTS = [
    "脉象弦滑 The pulse is wiry and slippery.",
    "气血两虚, qi and blood deficiency; 舌淡苔白 2023",
    "Ｆｕｌｌ－ｗｉｄｔｈ ＡＢＣ 与 İstanbul 脉 pulse_rate 3.5mg",
    "无 Latin 的文档：只有中文 脉 脉 脉",
    "𠀀𠀁 extension-B 字 and café Ⅻ ½",
]
GOLDEN_INDEX_SHA256 = "407deb06d6051874bfa90a7e406bb5621232068e0eaea4fe7a22ae38339dc4cf"


def test_index_bytes_match_the_golden_file(tmp_path):
    path = tmp_path / "golden.idx"
    save_index(build_index(store_of(GOLDEN_TEXTS)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_INDEX_SHA256


def write_forged_index(path, num_docs, pairs, avgdl=1.0, terms=("t",), k1=DEFAULT_K1,
                       b=DEFAULT_B):
    """A checksum-valid index over ``num_docs`` one-token documents, naming
    the in-memory store digest, whose terms each have the given raw (doc id
    delta, tf) pairs."""
    body = struct.pack("<Qddd8s", num_docs, avgdl, k1, b, NO_FILE_DIGEST)
    body += struct.pack(f"<{num_docs}Q", *[1] * num_docs)
    body += struct.pack("<Q", len(terms))
    for term in terms:
        body += pack_text(term) + struct.pack("<Q", len(pairs))
        body += b"".join(struct.pack("<II", delta, tf) for delta, tf in pairs)
    write_artifact(path, INDEX_MAGIC, body)


def test_forged_index_with_valid_postings_loads(tmp_path):
    path = tmp_path / "ok.idx"
    write_forged_index(path, 3, [(0, 1), (2, 4)])
    assert pairs_of(load_index(path).postings["t"]) == [(0, 1), (2, 4)]


@pytest.mark.parametrize(
    "num_docs, pairs",
    [
        (3, [(1, 1), (0, 1)]),                 # doc 1 twice
        (1, [(5, 1)]),                         # doc 5 of 1
        (3, [(0, 1), (1, 0)]),                 # tf 0
        (4, [(3, 1), (2**32 - 2, 1)]),         # 3 + delta wraps to doc 1 in uint32
    ],
    ids=["repeated-doc", "doc-out-of-range", "zero-tf", "wrapping-delta"],
)
def test_checksum_valid_malformed_postings_are_rejected(tmp_path, num_docs, pairs):
    path = tmp_path / "forged.idx"
    write_forged_index(path, num_docs, pairs)
    with pytest.raises(TruncatedArtifactError, match="postings of term 't'"):
        load_index(path)


@pytest.mark.parametrize(
    "forged, message",
    [
        ({"avgdl": 0.0}, "avgdl 0.0 is not the mean"),
        ({"terms": ("t", "t")}, "term 't' is listed twice"),
        ({"k1": math.nan}, "k1 must be positive and finite, got nan"),
        ({"k1": math.inf}, "k1 must be positive and finite, got inf"),
        ({"k1": 0.0}, "k1 must be positive and finite, got 0.0"),
        ({"b": 1.5}, r"b must be in \[0, 1\], got 1.5"),
        ({"b": math.nan}, r"b must be in \[0, 1\], got nan"),
    ],
    ids=["avgdl-off-the-mean", "term-twice", "nan-k1", "infinite-k1", "zero-k1", "wide-b",
         "nan-b"],
)
def test_checksum_valid_inconsistent_index_is_rejected(tmp_path, forged, message):
    path = tmp_path / "forged.idx"
    write_forged_index(path, 2, [(0, 1), (1, 1)], **forged)
    with pytest.raises(TruncatedArtifactError, match=message):
        load_index(path)


def test_index_wrong_magic(tmp_path):
    path = tmp_path / "bad.idx"
    save_index(build_index(store_of(["a b"])), path)
    data = path.read_bytes()
    path.write_bytes(b"NOTIDX" + data[6:])
    with pytest.raises(MagicMismatchError):
        load_index(path)


def test_index_truncation(tmp_path):
    path = tmp_path / "cut.idx"
    save_index(build_index(store_of(["a b c d", "e f g"])), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedArtifactError):
        load_index(path)


def test_index_bit_flip(tmp_path):
    path = tmp_path / "flip.idx"
    save_index(build_index(store_of(["a b c"])), path)
    good = path.read_bytes()
    # inside num_docs, the first body field after magic and length; then
    # inside the store digest, after num_docs, avgdl, k1 and b
    for offset in (15, 14 + 32):
        data = bytearray(good)
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatchError):
            load_index(path)


def test_save_provenance_format(tmp_path):
    store = store_of(["t t a", "t b c"])
    index = build_index(store)
    selection = select_corpus(index, store, ExpandedQuery({"t": 1}), token_budget=10)
    path = tmp_path / "prov.tsv"
    save_provenance(selection, path, bytes(range(8)))
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "store\t0001020304050607"
    assert len(lines) == len(selection.provenance)
    new_id, orig_id, score = lines[0].split("\t")
    assert (int(orig_id), float(score)) == selection.provenance[int(new_id)]
