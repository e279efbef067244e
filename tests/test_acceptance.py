"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and asserts the stated tolerance directly; the
terminal summary hook in conftest.py prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from domainforge.corpus_store import CjkCharTokenizer, CorpusStore, Document, RawRecord, ingest, load_store, save_store
from domainforge.errors import (
    ChecksumMismatchError,
    MagicMismatchError,
    TruncatedArtifactError,
)
from domainforge.evaluator import (
    ABSTAIN,
    empty_responder,
    evaluate,
    extract_option,
    make_gold_responder,
)
from domainforge.keyword_extract import (
    DomainKeywordSet,
    WeightedKeyword,
    build_graph,
    extract_task_keywords,
    fuse,
    keyword_weight,
    textrank,
)
from domainforge.lora_model import (
    BOS_ID,
    ModelConfig,
    adapter_param_names,
    build_vocab,
    forward_batch,
    init_model,
    load_checkpoint,
    masked_next_token_loss,
    model_forward,
    param_names,
    save_checkpoint,
    trainable_param_names,
)
from domainforge.retrieval import (
    ExpandedQuery,
    bm25_score,
    build_index,
    expand_query,
    load_index,
    retrieve_top_n,
    save_index,
    select_corpus,
)
from domainforge.trainer import TrainConfig, _pad_batch, chunk_token_stream, gradient_check, pretrain

from synthdata import LEXICON_WORDS, SAMPLE_TEMPLATES, make_validation_texts
from test_evaluator import PULSE_ITEM, RESPONSE_CORRECT, RESPONSE_WRONG, items_with_golds
from test_retrieval import _oracle_ranking, brute_force_corpus, store_of

TOK = CjkCharTokenizer()

REFERENCE_CONFIG = ModelConfig(
    vocab_size=32,
    d_model=16,
    n_layers=1,
    n_heads=2,
    d_ff=32,
    max_seq_len=16,
    lora_rank=2,
    lora_alpha=4.0,
    lora_dropout=0.0,
    adapted_projections=("query", "key", "value", "output", "ff_in", "ff_out"),
)


def test_criterion_01_desk_scale_stand_in():
    """Billion-parameter runs on licensed corpora are out of reach for this
    suite, so every numerical claim is checked on a desk-scale reference
    model instead.  This pins the stand-in: the reference configuration
    instantiates and produces finite logits."""
    state = init_model(REFERENCE_CONFIG, seed=0)
    logits = model_forward(state, [BOS_ID, 5, 6, 7])
    assert logits.shape == (4, REFERENCE_CONFIG.vocab_size)
    assert np.all(np.isfinite(logits))


def test_criterion_02_gradient_suite():
    """Analytic gradients match central finite differences to < 1e-5 relative
    error on every trainable tensor, in under a minute."""
    report = gradient_check(seed=0)
    assert report.entries, "gradient check produced no comparisons"
    for entry in report.entries:
        assert entry.rel_err < 1e-5, f"{entry.loss_mode}/{entry.tensor}: {entry.rel_err}"
    assert report.passed()
    assert report.elapsed_seconds < 60.0


def test_criterion_03_zero_adapter_identity():
    """Freshly initialized adapters (B = 0) leave the logits bitwise equal to
    the same-seed base model without adapters, on 100 random inputs."""
    adapted = init_model(REFERENCE_CONFIG, seed=11)
    plain = init_model(replace(REFERENCE_CONFIG, adapted_projections=()), seed=11)
    rng = np.random.default_rng(3)
    for _ in range(100):
        length = int(rng.integers(1, REFERENCE_CONFIG.max_seq_len + 1))
        ids = rng.integers(0, REFERENCE_CONFIG.vocab_size, size=(1, length))
        got, _ = forward_batch(adapted, ids)
        want, _ = forward_batch(plain, ids)
        assert got.tobytes() == want.tobytes()


def test_criterion_04_freezing_after_fifty_steps():
    """After exactly 50 optimizer steps, every base tensor is byte-identical
    to its pre-training value and the trainable-parameter count equals
    sum(r * (d1 + d2)) over adapted projections."""
    texts = ["a b c d e f g h a b c d e f"] * 10
    vocab = build_vocab(texts, TOK)
    config = replace(REFERENCE_CONFIG, vocab_size=len(vocab))
    state = init_model(config, seed=3)
    frozen = set(param_names(config)) - set(adapter_param_names(config))
    before = {name: state.params[name].tobytes() for name in frozen}

    train_cfg = TrainConfig(
        phase="pretrain", learning_rate=1e-2, epochs=10, batch_size=2, seed=3,
        train_embeddings=False,
    )
    result = pretrain(state, texts, vocab, TOK, train_cfg)
    assert result.step == 50

    for name in sorted(frozen):
        assert result.state.params[name].tobytes() == before[name], name
    trained = trainable_param_names(config, train_embeddings=False)
    # r = 2 over the four d x d projections, ff_in (d_ff x d) and ff_out (d x d_ff)
    assert sum(result.state.params[n].size for n in trained) == 2 * (
        4 * (16 + 16) + (32 + 16) + (16 + 32)
    )


def test_criterion_05_loss_anchors():
    """Uniform logits give the log-vocab-size language-model loss; masking no
    position gives the mean next-token NLL; prompt-position target labels are
    inert."""
    vocab_size = 32
    tokens = np.array([[BOS_ID, 5, 6, 7, 8, 9, 10, 11]])
    every = np.ones((1, tokens.shape[1] - 1))
    uniform = np.zeros((1, tokens.shape[1], vocab_size))
    loss, _ = masked_next_token_loss(uniform, tokens, every)
    assert abs(loss - math.log(vocab_size)) < 1e-9

    rng = np.random.default_rng(0)
    logits = rng.normal(size=uniform.shape)
    log_probs = logits[0] - np.log(np.exp(logits[0]).sum(axis=-1, keepdims=True))
    nll = -np.mean([log_probs[j, tokens[0, j + 1]] for j in range(tokens.shape[1] - 1)])
    loss, _ = masked_next_token_loss(logits, tokens, every)
    assert abs(loss - nll) < 1e-12

    m, n = 3, 4  # a prompt of m tokens after BOS, then a response of n
    response = np.zeros_like(every)
    response[0, m : m + n] = 1.0
    base, _ = masked_next_token_loss(logits, tokens, response)
    perturbed = tokens.copy()
    perturbed[0, 1 : m + 1] = (perturbed[0, 1 : m + 1] + 1) % vocab_size  # the prompt's targets
    assert masked_next_token_loss(logits, perturbed, response)[0] - base == 0.0


def test_criterion_06_bm25_oracle_equivalence():
    """Ranking and scores match an exhaustive brute-force scorer to 1e-9 on a
    50-document corpus and 20 random queries; duplicating a query term scales
    its contribution exactly linearly."""
    texts, queries = brute_force_corpus()
    store = store_of(texts)
    index = build_index(store)
    doc_tokens = [TOK.tokenize(d.text) for d in store]
    for counts in queries:
        expected = _oracle_ranking(doc_tokens, index.k1, index.b, counts)
        got = retrieve_top_n(index, ExpandedQuery(counts), n=len(texts))
        assert [sd.doc_id for sd in got] == [sd.doc_id for sd in expected]
        for mine, theirs in zip(got, expected):
            assert abs(mine.score - theirs.score) <= 1e-9

    term = doc_tokens[0][0]
    single = bm25_score(index, 0, ExpandedQuery({term: 1}))
    assert bm25_score(index, 0, ExpandedQuery({term: 3})) == 3.0 * single


def test_criterion_07_textrank_anchors():
    """Two-node graph converges to (1.0, 1.0); the three-node path matches its
    hand-solved fixed point; relabeling nodes permutes scores exactly."""
    two = build_graph(["甲", "乙"], window=2)
    for score in textrank(two).values():
        assert abs(score - 1.0) < 1e-6

    path = build_graph(["a", "b", "b", "c"], window=2)  # a-b and b-c edges
    scores = textrank(path)
    assert abs(scores["a"] - 0.7702702702702703) < 1e-4
    assert abs(scores["b"] - 1.4594594594594594) < 1e-4
    assert abs(scores["c"] - 0.7702702702702703) < 1e-4

    tokens = list("abcabdcebadec")
    mapping = {"a": "v", "b": "w", "c": "x", "d": "y", "e": "z"}
    original = textrank(build_graph(tokens, window=3))
    relabeled = textrank(build_graph([mapping[t] for t in tokens], window=3))
    assert relabeled == {mapping[node]: score for node, score in original.items()}


def test_criterion_08_keyword_weights_and_repetitions():
    """Occurrence counts 1/10/100 give weights 1.0/3.302585/5.605170 and
    query repetitions 1/3/3 (floored weight, capped at 3)."""
    expected = {1: 1.0, 10: 3.302585, 100: 5.605170}
    for count, weight in expected.items():
        assert abs(keyword_weight(count) - weight) < 1e-6

    kset = DomainKeywordSet(entries=(
        WeightedKeyword("丙", 100, keyword_weight(100), "task"),
        WeightedKeyword("乙", 10, keyword_weight(10), "task"),
        WeightedKeyword("甲", 1, keyword_weight(1), "task"),
    ))
    query = expand_query(kset, "cjk-char-v1")
    assert query.counts == {"甲": 1, "乙": 3, "丙": 3}


def test_criterion_09_round_trips_and_designated_errors(tmp_path):
    """Store, index, and checkpoint round-trip unchanged with byte-identical
    re-save; wrong magic, truncation, and bit flips raise their own errors."""
    body = "aaaa bbbb cccc dddd eeee ffff gggg hhhh iiii jjjj"
    store = ingest([RawRecord("r0", "标题", body), RawRecord("r1", "", body + " kkkk")], TOK)
    index = build_index(store)
    state = init_model(REFERENCE_CONFIG, seed=5)

    store_path, index_path, ckpt_path = (
        tmp_path / "a.store", tmp_path / "a.idx", tmp_path / "a.ckpt"
    )
    save_store(store, store_path)
    save_index(index, index_path)
    save_checkpoint(ckpt_path, state, "pretrain", 0, None)

    # Round-trip equality and byte-identical re-save.
    assert load_store(store_path) == store
    loaded_index = load_index(index_path)
    assert loaded_index == index
    loaded_state, phase, step, opt = load_checkpoint(ckpt_path)
    assert phase == "pretrain" and step == 0 and opt == {}
    assert loaded_state.config == state.config
    for name in param_names(state.config):
        assert loaded_state.params[name].tobytes() == state.params[name].tobytes()

    for obj, path, saver in (
        (store, tmp_path / "b.store", save_store),
        (index, tmp_path / "b.idx", save_index),
    ):
        saver(obj, path)
    assert (tmp_path / "b.store").read_bytes() == store_path.read_bytes()
    assert (tmp_path / "b.idx").read_bytes() == index_path.read_bytes()
    save_checkpoint(tmp_path / "b.ckpt", loaded_state, phase, step, opt)
    assert (tmp_path / "b.ckpt").read_bytes() == ckpt_path.read_bytes()

    # Designated corruption errors, per artifact.
    cases = [
        (store_path, load_store, b"NOTMAGIC", 20, None),
        (index_path, load_index, b"NOTIDX", len(index_path.read_bytes()) // 2, 15),
        (ckpt_path, load_checkpoint, b"NOTCKPT", 30, -50),
    ]
    for path, loader, bad_magic, chop, flip_at in cases:
        data = path.read_bytes()

        wrong = tmp_path / "wrong.bin"
        wrong.write_bytes(bad_magic + data[len(bad_magic):])
        with pytest.raises(MagicMismatchError):
            loader(wrong)

        short = tmp_path / "short.bin"
        short.write_bytes(data[:len(data) - chop] if chop > 0 else data[:chop])
        with pytest.raises(TruncatedArtifactError):
            loader(short)

        flipped = tmp_path / "flipped.bin"
        if flip_at is None:
            flipped.write_bytes(data.replace(b"aaaa", b"aaab", 1))
        else:
            buf = bytearray(data)
            buf[flip_at] ^= 0xFF
            flipped.write_bytes(bytes(buf))
        with pytest.raises(ChecksumMismatchError):
            loader(flipped)


def test_criterion_10_end_to_end_selection_beats_random(mixed_store, mixed_corpus):
    """On the 200 in-domain / 800 out-of-domain corpus, keyword-guided
    selection under the token budget is >= 90% in-domain, and a fixed-seed
    training run on it reaches a strictly lower held-out in-domain validation
    loss than the same run on an equal-budget random selection."""
    t0 = time.monotonic()
    store = mixed_store
    _, flags = mixed_corpus
    assert len(store) == 1000

    samples = [text for text in SAMPLE_TEMPLATES for _ in range(3)]
    task = extract_task_keywords(samples, TOK)
    kset = fuse(task, LEXICON_WORDS)
    index = build_index(store)
    query = expand_query(kset, store.tokenizer_id)

    budget = 8000
    selection = select_corpus(index, store, query, token_budget=budget)
    in_tokens = sum(
        store.documents[orig].token_count
        for orig, _ in selection.provenance
        if flags[orig]
    )
    assert in_tokens / selection.selected_tokens >= 0.9

    rng = np.random.default_rng(99)
    random_docs = []
    used = 0
    for doc_id in rng.permutation(len(store)):
        doc = store.documents[doc_id]
        if used + doc.token_count > budget:
            break
        random_docs.append(doc)
        used += doc.token_count
    random_store = CorpusStore(
        documents=tuple(
            Document(i, d.title, d.text, d.token_count)
            for i, d in enumerate(random_docs)
        ),
        tokenizer_id=store.tokenizer_id,
    )

    vocab = build_vocab((d.text for d in store), TOK)
    model_config = ModelConfig(
        vocab_size=len(vocab), d_model=32, n_layers=1, n_heads=2, d_ff=64,
        max_seq_len=64, lora_rank=4, lora_alpha=8.0, lora_dropout=0.05,
    )
    train_config = TrainConfig(
        phase="pretrain", learning_rate=3e-3, epochs=3, batch_size=16, seed=7,
        train_embeddings=True,
    )
    initial = init_model(model_config, seed=7)

    validation = make_validation_texts()

    def validation_loss(state):
        seqs = chunk_token_stream(validation, vocab, TOK, state.config.max_seq_len - 1)
        masks = [np.ones(len(s) - 1) for s in seqs]
        ids, mask = _pad_batch(seqs, masks)
        logits, _ = forward_batch(state, ids)
        loss, _ = masked_next_token_loss(logits, ids, mask)
        return loss

    selected_run = pretrain(
        initial, (d.text for d in selection.store), vocab, TOK, train_config
    )
    random_run = pretrain(
        initial, (d.text for d in random_store), vocab, TOK, train_config
    )
    selected_loss = validation_loss(selected_run.state)
    random_loss = validation_loss(random_run.state)
    assert np.isfinite(selected_loss) and np.isfinite(random_loss)
    assert selected_loss < random_loss

    assert time.monotonic() - t0 < 600.0


def test_criterion_11_evaluator_extraction_and_scripted_responders():
    """The worked four-option item extracts D from the correct-answer response
    and A from the wrong-answer one; an always-gold responder scores 1.0 and
    an always-empty responder scores 0.0 with every item abstaining."""
    labels = [label for label, _ in PULSE_ITEM.options]
    assert extract_option(RESPONSE_CORRECT, labels) == "D"
    assert extract_option(RESPONSE_WRONG, labels) == "A"

    items = items_with_golds(["A", "B", "C", "D"])
    gold_report = evaluate(make_gold_responder(items), items)
    assert gold_report.accuracy == 1.0
    assert gold_report.abstain_count == 0

    empty_report = evaluate(empty_responder, items)
    assert empty_report.accuracy == 0.0
    assert empty_report.abstain_count == len(items)
    assert all(r.predicted == ABSTAIN for r in empty_report.results)
