from __future__ import annotations

import hashlib
import itertools
import math
import re
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from domainforge import lora_model, trainer
from domainforge.artifact import pack_text, write_artifact
from domainforge.corpus_store import CjkCharTokenizer
from domainforge.errors import (
    ChecksumMismatchError,
    MagicMismatchError,
    TruncatedArtifactError,
)
from domainforge.lora_model import (
    ADAPTABLE_PROJECTIONS,
    BOS_ID,
    EOS_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    ModelConfig,
    ModelState,
    Vocab,
    adapter_param_names,
    backward_batch,
    build_vocab,
    detokenize,
    forward_batch,
    forward_hidden,
    greedy_generate,
    head_loss,
    init_model,
    load_checkpoint,
    load_vocab,
    masked_next_token_loss,
    model_forward,
    param_names,
    save_checkpoint,
    save_vocab,
    trainable_param_names,
)

SMALL = ModelConfig(
    vocab_size=32,
    d_model=16,
    n_layers=1,
    n_heads=2,
    d_ff=32,
    max_seq_len=16,
    lora_rank=2,
    lora_alpha=4.0,
    lora_dropout=0.0,
    adapted_projections=ADAPTABLE_PROJECTIONS,
)


def random_ids(rng, config, shape):
    return rng.integers(len(SPECIAL_TOKENS), config.vocab_size, size=shape,
                        dtype=np.int64)


# ---------------------------------------------------------------------------
# Configuration


def test_config_canonicalizes_projection_order():
    config = ModelConfig(vocab_size=32, adapted_projections=("value", "query"))
    assert config.adapted_projections == ("query", "value")


def test_config_rejects_unknown_projection():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=32, adapted_projections=("sideways",))


def test_config_rank_bound_per_projection():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=32, d_model=8, n_heads=2, lora_rank=9)


def test_config_head_divisibility():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=32, d_model=10, n_heads=4)


@pytest.mark.parametrize("field, value, message", [
    ("n_layers", -1, "n_layers must be >= 0, got -1"),
    ("lora_alpha", float("nan"), "lora_alpha must be finite, got nan"),
    ("lora_alpha", float("inf"), "lora_alpha must be finite, got inf"),
    ("lora_alpha", float("-inf"), "lora_alpha must be finite, got -inf"),
])
def test_config_rejects_negative_layers_and_non_finite_alpha(field, value, message):
    with pytest.raises(ValueError, match=message):
        replace(SMALL, **{field: value})


@pytest.mark.parametrize("value", [4.0, True, "4", None])
def test_config_rejects_a_size_that_is_no_int(value):
    for field in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len",
                  "lora_rank"):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            replace(SMALL, **{field: value})


def test_config_allows_an_embedding_only_model():
    config = replace(SMALL, n_layers=0)
    state = init_model(config, seed=0)
    assert adapter_param_names(config) == []
    ids = random_ids(np.random.default_rng(0), config, (3, config.max_seq_len))
    needs = set(trainable_param_names(config, train_embeddings=True))
    loss, grads = trainer._batch_grads(state, ids, np.ones((3, config.max_seq_len - 1)),
                                       needs, np.random.default_rng(1))
    assert math.isfinite(loss) and set(grads) == needs
    assert all(np.isfinite(g).all() for g in grads.values())


def test_config_json_round_trip():
    config = replace(SMALL, lora_dropout=0.25)
    assert ModelConfig.from_json(config.to_json()) == config


# ---------------------------------------------------------------------------
# Model initialization


def test_init_model_shapes_and_fills():
    state = init_model(SMALL, seed=0)
    assert set(state.params) == set(param_names(SMALL))
    assert state.params["tok_emb"].shape == (32, 16)
    assert state.params["pos_emb"].shape == (16, 16)
    assert state.params["layers.0.ff.w1"].shape == (32, 16)
    assert np.all(state.params["layers.0.ln1.gamma"] == 1.0)
    assert np.all(state.params["layers.0.attn.bq"] == 0.0)
    for name in adapter_param_names(SMALL):
        if name.endswith(".b"):
            assert np.all(state.params[name] == 0.0)
        else:
            assert np.any(state.params[name] != 0.0)


def test_init_model_base_draws_independent_of_adapters():
    bare = replace(SMALL, adapted_projections=())
    with_adapters = init_model(SMALL, seed=5)
    without = init_model(bare, seed=5)
    for name in param_names(bare):
        assert with_adapters.params[name].tobytes() == without.params[name].tobytes()


def test_param_names_order_is_pinned():
    # the checkpoint tensor order and the init draw order
    assert param_names(SMALL) == [
        "tok_emb", "pos_emb",
        "layers.0.ln1.gamma", "layers.0.ln1.beta",
        "layers.0.attn.wq", "layers.0.attn.bq",
        "layers.0.attn.wk", "layers.0.attn.bk",
        "layers.0.attn.wv", "layers.0.attn.bv",
        "layers.0.attn.wo", "layers.0.attn.bo",
        "layers.0.ln2.gamma", "layers.0.ln2.beta",
        "layers.0.ff.w1", "layers.0.ff.b1",
        "layers.0.ff.w2", "layers.0.ff.b2",
        "ln_f.gamma", "ln_f.beta", "out_w",
        "layers.0.lora.query.a", "layers.0.lora.query.b",
        "layers.0.lora.key.a", "layers.0.lora.key.b",
        "layers.0.lora.value.a", "layers.0.lora.value.b",
        "layers.0.lora.output.a", "layers.0.lora.output.b",
        "layers.0.lora.ff_in.a", "layers.0.lora.ff_in.b",
        "layers.0.lora.ff_out.a", "layers.0.lora.ff_out.b",
    ]


def test_adapter_census_matches_formula():
    # r * (d1 + d2) per adapted projection per layer, at r = 2, d = 16, d_ff = 32
    for config, count in (
        (SMALL, 1 * 2 * (4 * (16 + 16) + (32 + 16) + (16 + 32))),
        (replace(SMALL, adapted_projections=("query", "value")), 1 * 2 * (2 * (16 + 16))),
        (replace(SMALL, n_layers=3, adapted_projections=("ff_in",)), 3 * 2 * (32 + 16)),
    ):
        state = init_model(config, seed=0)
        assert sum(state.params[n].size for n in adapter_param_names(config)) == count


@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_init_model_refuses_more_than_max_parameters(monkeypatch, n_layers):
    config = replace(SMALL, n_layers=n_layers)
    count = sum(arr.size for arr in init_model(config, seed=0).params.values())
    monkeypatch.setattr(lora_model, "MAX_PARAMETERS", count)
    init_model(config, seed=0)  # exactly at the bound
    monkeypatch.setattr(lora_model, "MAX_PARAMETERS", count - 1)
    with pytest.raises(ValueError, match=f"has {count} parameters, more than {count - 1}"):
        init_model(config, seed=0)


def test_trainable_param_names_split():
    assert trainable_param_names(SMALL) == adapter_param_names(SMALL)
    with_emb = trainable_param_names(SMALL, train_embeddings=True)
    assert with_emb[:3] == ["tok_emb", "pos_emb", "out_w"]


# ---------------------------------------------------------------------------
# Forward pass


def test_forward_is_causal_bitwise():
    state = init_model(SMALL, seed=1, dtype=np.float64)
    rng = np.random.default_rng(2)
    ids = random_ids(rng, SMALL, (1, 10))
    base = model_forward(state, ids[0])
    for j in range(1, 10):
        changed = ids.copy()
        changed[0, j] = (changed[0, j] + 1 - 4) % (SMALL.vocab_size - 4) + 4
        assert changed[0, j] != ids[0, j]
        out = model_forward(state, changed[0])
        assert out[:j].tobytes() == base[:j].tobytes()
        assert not np.array_equal(out[j], base[j])


def test_forward_single_token():
    state = init_model(SMALL, seed=1)
    logits = model_forward(state, [BOS_ID])
    assert logits.shape == (1, SMALL.vocab_size)
    assert np.all(np.isfinite(logits))


def test_forward_deterministic():
    state = init_model(SMALL, seed=1)
    ids = random_ids(np.random.default_rng(3), SMALL, (2, 7))
    one, _ = forward_batch(state, ids)
    two, _ = forward_batch(state, ids)
    assert one.tobytes() == two.tobytes()


def test_forward_dropout_reproducible_and_distinct():
    config = replace(SMALL, lora_dropout=0.5)
    state = init_model(config, seed=1)
    # dropout only matters once the adapters contribute
    for name in adapter_param_names(config):
        if name.endswith(".b"):
            state.params[name][:] = 0.5
    ids = random_ids(np.random.default_rng(4), config, (2, 6))
    eval_xf, _ = forward_hidden(state, ids)
    t1, _ = forward_hidden(state, ids, rng=np.random.default_rng(8))
    t2, _ = forward_hidden(state, ids, rng=np.random.default_rng(8))
    t3, _ = forward_hidden(state, ids, rng=np.random.default_rng(9))
    assert t1.tobytes() == t2.tobytes()
    assert not np.array_equal(t1, eval_xf)
    assert not np.array_equal(t1, t3)


def test_forward_hidden_without_rng_never_drops_out(monkeypatch):
    """Dropout follows the rng alone: without one, a model with
    ``lora_dropout > 0`` runs exactly as the same weights without dropout,
    draws no mask and caches none, for a training and a decode cache."""
    config = replace(SMALL, lora_dropout=0.5)
    state = _live_adapter_state(config, np.float64, 1)
    undropped = ModelState(replace(config, lora_dropout=0.0), state.params)
    ids = random_ids(np.random.default_rng(4), config, (2, 6))
    dropped, _ = forward_hidden(state, ids, rng=np.random.default_rng(8))

    def no_draw(*args):
        raise AssertionError("a dropout mask was drawn")

    monkeypatch.setattr(lora_model, "_dropout_mask", no_draw)
    for needs in (None, frozenset()):
        xf, cache = forward_hidden(state, ids, needs=needs)
        reference, _ = forward_hidden(undropped, ids, needs=needs)
        assert xf.tobytes() == reference.tobytes()
        assert not np.array_equal(xf, dropped)
        assert all(blk[p][2] is None for blk in cache["blocks"] for p in ADAPTABLE_PROJECTIONS)


@pytest.mark.parametrize("projections", [ADAPTABLE_PROJECTIONS, ("query", "value")])
def test_adapters_match_merged_weights(projections):
    config = replace(SMALL, n_layers=2, adapted_projections=projections)
    adapted = init_model(config, seed=3, dtype=np.float64)
    rng = np.random.default_rng(5)
    for name in adapter_param_names(config):
        if name.endswith(".b"):
            adapted.params[name][:] = rng.normal(0.0, 0.3, adapted.params[name].shape)
    # same seed, no adapters: identical base tensors, into which B A is folded
    merged = init_model(replace(config, adapted_projections=()), seed=3, dtype=np.float64)
    plain = merged.copy()
    scale = config.lora_alpha / config.lora_rank
    for i in range(config.n_layers):
        for proj in projections:
            w_name = f"layers.{i}.{lora_model.PROJECTION_TENSORS[proj][0]}"
            lora = f"layers.{i}.lora.{proj}"
            merged.params[w_name] += scale * (
                adapted.params[f"{lora}.b"] @ adapted.params[f"{lora}.a"]
            )
    ids = random_ids(rng, config, (2, 9))
    via_adapters, _ = forward_batch(adapted, ids)
    via_merged, _ = forward_batch(merged, ids)
    np.testing.assert_allclose(via_adapters, via_merged, rtol=1e-10, atol=1e-12)
    # the adapters move the logits, so the comparison is not vacuous
    assert not np.allclose(via_adapters, forward_batch(plain, ids)[0])


def test_forward_validation():
    state = init_model(SMALL, seed=1)
    with pytest.raises(ValueError):
        forward_batch(state, np.array([1, 2, 3]))  # not 2-D
    with pytest.raises(ValueError):
        forward_batch(state, np.full((1, 17), 4))  # beyond max_seq_len
    with pytest.raises(ValueError):
        forward_batch(state, np.array([[1, 99]]))  # id out of range


# ---------------------------------------------------------------------------
# Losses


def _one_sequence_loss(logits, tokens, mask):
    """``masked_next_token_loss`` of one (time, vocab) sequence."""
    loss, _ = masked_next_token_loss(logits[None], np.asarray([tokens]), np.asarray([mask], float))
    return loss


def test_masked_loss_uniform_logits_is_log_vocab():
    V, T = 32, 6
    tokens = [BOS_ID] + [5] * (T - 1)
    for mask in ([1.0] * (T - 1), [0.0, 0.0, 1.0, 1.0, 0.0]):
        assert _one_sequence_loss(np.zeros((T, V)), tokens, mask) == pytest.approx(
            math.log(V), abs=1e-9
        )
        shifted = 3.25 * np.ones((T, V))  # any constant rows stay uniform
        assert _one_sequence_loss(shifted, tokens, mask) == pytest.approx(math.log(V), abs=1e-9)


def test_masked_loss_two_token_hand_case():
    V = 6
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, V))
    row = logits[0]
    expected = -(row[5] - math.log(sum(math.exp(v) for v in row)))
    assert _one_sequence_loss(logits, [BOS_ID, 5], [1.0]) == pytest.approx(expected, abs=1e-9)


def test_masked_loss_response_hand_case():
    V = 8
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, V))
    tokens = [BOS_ID, 4, 5, 6, 7]  # prompt ids 4,5; response ids 6,7

    def logprob(row, t):
        return row[t] - math.log(sum(math.exp(v) for v in row))

    expected = -(logprob(logits[2], 6) + logprob(logits[3], 7)) / 2.0
    loss = _one_sequence_loss(logits, tokens, [0.0, 0.0, 1.0, 1.0])
    assert loss == pytest.approx(expected, abs=1e-9)


def test_masked_loss_ignores_prompt_position_targets_exactly():
    V = 12
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, V))
    mask = [0.0, 0.0, 0.0, 1.0, 1.0]  # a prompt of 3 after BOS, a response of 2
    base = _one_sequence_loss(logits, [BOS_ID, 4, 5, 6, 7, 8], mask)
    perturbed = [BOS_ID, 9, 10, 11, 7, 8]  # same response, any prompt ids
    assert _one_sequence_loss(logits, perturbed, mask) - base == 0.0


def test_masked_loss_averages_per_sequence_then_batch():
    B, T, V = 2, 4, 10
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(B, T, V))
    ids = rng.integers(4, V, size=(B, T))
    mask = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
    loss, _ = masked_next_token_loss(logits, ids, mask)

    def logprob(row, t):
        return row[t] - math.log(sum(math.exp(v) for v in row))

    seq0 = -sum(logprob(logits[0, j], ids[0, j + 1]) for j in range(3)) / 3.0
    seq1 = -logprob(logits[1, 1], ids[1, 2])
    assert loss == pytest.approx((seq0 + seq1) / 2.0, abs=1e-9)


def test_masked_loss_requires_a_target_per_sequence():
    logits = np.zeros((2, 3, 8))
    ids = np.full((2, 3), 4)
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        masked_next_token_loss(logits, ids, mask)


def test_masked_loss_gradient_is_zero_at_masked_positions():
    B, T, V = 2, 5, 9
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(B, T, V))
    ids = rng.integers(4, V, size=(B, T))
    mask = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
    _, dlogits = masked_next_token_loss(logits, ids, mask)
    assert np.all(dlogits[:, -1, :] == 0.0)  # the last row never predicts
    for b in range(B):
        for j in range(T - 1):
            if mask[b, j] == 0.0:
                assert np.all(dlogits[b, j] == 0.0)
            else:
                assert abs(dlogits[b, j].sum()) < 1e-12


# ---------------------------------------------------------------------------
# Fused vocab head


def _head_case(dtype, seed=6):
    """A small model with live adapters, and a batch with masked rows."""
    config = replace(SMALL, vocab_size=40, max_seq_len=12)
    state = init_model(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name in adapter_param_names(config):
        state.params[name] = rng.normal(0.0, 0.1, state.params[name].shape).astype(dtype)
    ids = random_ids(rng, config, (5, 12))
    mask = np.ones((5, 11))
    mask[0, :6] = 0.0  # a prompt
    mask[2, 3:] = 0.0  # padding
    mask[4, ::2] = 0.0
    return state, ids, mask


def _reference_head(state, ids, mask, needs):
    """The unfused path: full logits, masked_next_token_loss, then the vocab
    head's backward on the whole batch."""
    out_w = state.params["out_w"]
    xf, cache = forward_hidden(state, ids, needs=needs)
    logits = xf @ out_w.T
    loss, dlogits = masked_next_token_loss(logits, ids, mask)
    grads = backward_batch(state, cache, dlogits @ out_w)
    V, d = out_w.shape
    dout_w = dlogits.reshape(-1, V).T @ xf.reshape(-1, d)
    return loss, dlogits @ out_w, grads, dout_w


def _fused_head(state, ids, mask, needs):
    xf, cache = forward_hidden(state, ids, needs=needs)
    loss, dxf, head_grads = head_loss(state, xf, ids, mask, needs)
    grads = backward_batch(state, cache, dxf.copy())  # it consumes dxf
    return loss, dxf, grads, head_grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_loss_matches_reference_bitwise_one_sequence_per_block(monkeypatch, dtype):
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    state, ids, mask = _head_case(dtype)
    needs = set(adapter_param_names(state.config))
    loss_r, dxf_r, grads_r, _ = _reference_head(state, ids, mask, needs)
    loss, dxf, grads, head_grads = _fused_head(state, ids, mask, needs)
    assert loss == loss_r
    assert dxf.dtype == dxf_r.dtype and dxf.tobytes() == dxf_r.tobytes()
    assert head_grads == {}
    assert sorted(grads) == sorted(needs)
    for name in needs:
        assert grads[name].tobytes() == grads_r[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_loss_out_w_gradient(monkeypatch, dtype):
    state, ids, mask = _head_case(dtype)
    needs = set(trainable_param_names(state.config, train_embeddings=True))
    loss_r, _, _, dout_w_r = _reference_head(state, ids, mask, needs)
    # one block: the same GEMM as the reference
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 2**40)
    _, _, _, head_grads = _fused_head(state, ids, mask, needs)
    assert head_grads["out_w"].tobytes() == dout_w_r.tobytes()
    # one sequence per block: a sum of per-block GEMMs
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    loss, _, _, head_grads = _fused_head(state, ids, mask, needs)
    assert loss == loss_r
    err = np.abs(head_grads["out_w"] - dout_w_r).max() / np.abs(dout_w_r).max()
    assert err < 1e-6


def _allocating_head(state, xf, ids, mask, needs):
    """``head_loss`` with ``dxf`` in a new array, ``xf`` left as it is: the
    same blocks, in order on one thread, and ``d out_w`` (None unless
    wanted) summed in block order."""
    out_w = state.params["out_w"]
    B, T = xf.shape[:2]
    weights, n = lora_model._target_weights(mask, xf.dtype)
    seq_loss = np.empty(B, xf.dtype)
    dxf, dout_w = np.empty_like(xf), None
    for sl in lora_model._seq_blocks(B, T * out_w.shape[0] * xf.itemsize):
        dlogits = xf[sl] @ out_w.T
        seq_loss[sl] = lora_model._block_loss(dlogits, ids[sl], weights[sl], n[sl], B)
        dxf[sl] = dlogits @ out_w
        if needs is None or "out_w" in needs:
            part = dlogits.reshape(-1, out_w.shape[0]).T @ xf[sl].reshape(-1, xf.shape[-1])
            dout_w = part if dout_w is None else dout_w + part
    return float(seq_loss.mean()), dxf, dout_w


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("needs", ["all", "adapters"])
def test_head_loss_writes_dxf_over_xf_bitwise(monkeypatch, dtype, needs):
    """``head_loss`` consumes ``xf``: the ``dxf`` it returns is ``xf``
    itself, each block's rows written after its ``d out_w`` part read them.
    Two workers, one sequence per block: the loss, ``dxf`` and ``d out_w``
    equal a run that keeps ``xf``, bitwise."""
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    _use_workers(monkeypatch, 2)
    state, ids, mask = _head_case(dtype)
    needs = None if needs == "all" else set(adapter_param_names(state.config))
    xf, _ = forward_hidden(state, ids, needs=frozenset())
    kept = xf.copy()
    loss_r, dxf_r, dout_w_r = _allocating_head(state, kept, ids, mask, needs)
    assert kept.tobytes() == xf.tobytes()
    loss, dxf, head_grads = head_loss(state, xf, ids, mask, needs)
    assert dxf is xf
    assert loss == loss_r and dxf.tobytes() == dxf_r.tobytes()
    if needs is None:
        assert head_grads["out_w"].tobytes() == dout_w_r.tobytes()
    else:
        assert head_grads == {} and dout_w_r is None


def _gathered_block_loss(logits, ids, mask, n, batch):
    """``_block_loss`` through the boolean gather and scatter of the
    weighted rows (its path for masks with zero weights): the reference for
    its every-row-weighted fast path."""
    weighted = mask != 0.0
    rows = logits[:, :-1][weighted]
    nll = np.zeros_like(mask)
    nll[weighted] = lora_model._nll_block(
        rows, ids[:, 1:][weighted], (mask / n[:, None] / batch)[weighted]
    )
    dlogits = np.zeros_like(logits)
    dlogits[:, :-1][weighted] = rows
    return (nll * mask).sum(axis=1) / n, dlogits


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_row_weighted_loss_matches_the_gathered_rows_bitwise(dtype):
    rng = np.random.default_rng(6)
    B, T, V = 3, 9, 40
    logits = rng.normal(0.0, 2.0, (B, T, V)).astype(dtype)
    ids = rng.integers(0, V, (B, T))
    for mask in (np.ones((B, T - 1)), rng.uniform(0.5, 2.0, (B, T - 1))):
        mask, n = lora_model._target_weights(mask, dtype)
        seq_r, dlogits_r = _gathered_block_loss(logits, ids, mask, n, 5)
        dlogits = logits.copy()
        seq = lora_model._block_loss(dlogits, ids, mask, n, 5)
        assert seq.tobytes() == seq_r.tobytes()
        assert dlogits.tobytes() == dlogits_r.tobytes()


def _nll_block_expression(rows, targets, weights):
    """``_nll_block`` with its log-sum-exp as one whole-array expression."""
    rows -= rows.max(axis=-1, keepdims=True)
    rows -= np.log(np.exp(rows).sum(axis=-1, keepdims=True))
    at = (*np.indices(targets.shape, sparse=True), targets)
    nll = -rows[at]
    np.exp(rows, out=rows)
    rows[at] -= 1.0
    rows *= weights[..., None]
    return nll


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# one row, one chunk, one chunk + 1 row, and three sequences of one chunk + 3
# rows each as the strided rows of a (sequences, time, vocab) buffer
@pytest.mark.parametrize("extra", [None, 0, 1, "sequences"])
def test_nll_block_chunks_match_whole_array_expression_bitwise(dtype, extra):
    """``_nll_block`` takes its log-sum-exp one ``CHUNK_BYTES`` chunk of
    rows at a time, through one buffer; the loss and the gradient it
    writes into ``rows`` are bitwise the whole-array expression's, also
    when ``rows`` is the strided ``logits[:, :-1]`` view that
    ``_block_loss`` passes (a reshape of that view would copy it, and the
    gradient written to the copy would be lost)."""
    V = 300
    per_chunk = lora_model.CHUNK_BYTES // (V * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(per_chunk)
    if extra == "sequences":
        shape = (3, per_chunk + 3, V)  # rows of logits[:, :-1]
    else:
        shape = (1 if extra is None else per_chunk + extra, V)
    logits = rng.normal(0.0, 4.0, shape).astype(dtype)
    targets = rng.integers(0, V, shape[:-1])
    weights = rng.uniform(0.1, 1.0, shape[:-1]).astype(dtype)
    ref = logits.copy()
    nll_r = _nll_block_expression(ref, targets, weights)
    if extra == "sequences":
        buf = np.zeros((shape[0], shape[1] + 1, V), dtype)
        buf[:, :-1] = logits
        rows = buf[:, :-1]
        assert not rows.flags.c_contiguous
    else:
        rows = logits.copy()
    nll = lora_model._nll_block(rows, targets, weights)
    assert nll.dtype == dtype and nll.tobytes() == nll_r.tobytes()
    assert rows.tobytes() == ref.tobytes()
    if extra == "sequences":
        assert not buf[:, -1].any()  # the row past each sequence is untouched


def test_head_loss_requires_a_target_per_sequence():
    state, ids, mask = _head_case(np.float64)
    mask[3] = 0.0
    xf, _ = forward_hidden(state, ids)
    with pytest.raises(ValueError):
        head_loss(state, xf, ids, mask)


def test_head_loss_never_holds_the_full_logits(monkeypatch):
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    B, T, V = 16, 256, 4100
    config = ModelConfig(vocab_size=V, max_seq_len=T)
    state = init_model(config, seed=0)
    rng = np.random.default_rng(0)
    ids = random_ids(rng, config, (B, T))
    xf, _ = forward_hidden(state, ids)
    full_logits_bytes = B * T * V * xf.itemsize
    tracemalloc.start()
    try:
        head_loss(state, xf, ids, np.ones((B, T - 1)),
                  set(trainable_param_names(config, train_embeddings=True)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_logits_bytes / 2


def _sft_case(dtype, B=6, T=40, V=50, seed=9):
    """Logits-sized inputs with an SFT-shaped mask: a prompt, then a short
    response, then padding, so most rows carry zero weight."""
    rng = np.random.default_rng(seed)
    config = replace(SMALL, vocab_size=V, max_seq_len=T)
    state = _live_adapter_state(config, dtype, seed)
    ids = random_ids(rng, config, (B, T))
    mask = np.zeros((B, T - 1))
    for b in range(B):
        lo = int(rng.integers(5, 20))
        mask[b, lo : lo + int(rng.integers(1, 8))] = 1.0
    return state, ids, mask


def _recording_nll_block(monkeypatch):
    """Wraps ``lora_model._nll_block``; returns the row count of each call."""
    rows = []
    inner = lora_model._nll_block

    def wrapped(block_rows, *args):
        rows.append(len(block_rows))
        return inner(block_rows, *args)

    monkeypatch.setattr(lora_model, "_nll_block", wrapped)
    return rows


@pytest.mark.parametrize("block_bytes", [1, 2**40])
def test_loss_kernel_sees_only_weighted_rows(monkeypatch, block_bytes):
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", block_bytes)
    state, ids, mask = _sft_case(np.float32)
    weighted = int((mask != 0).sum())
    assert weighted < mask.size / 4
    rows = _recording_nll_block(monkeypatch)
    xf, _ = forward_hidden(state, ids)
    head_loss(state, xf.copy(), ids, mask)  # it consumes xf
    assert sum(rows) == weighted
    assert len(rows) == (len(ids) if block_bytes == 1 else 1)
    rows.clear()
    masked_next_token_loss(xf @ state.params["out_w"].T, ids, mask)
    assert rows == [weighted]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sft_head_matches_reference_bitwise(monkeypatch, dtype):
    """Mostly zero-weight rows: the fused head against full logits, with the
    unweighted rows of the reference's gradient exactly +0.0."""
    state, ids, mask = _sft_case(dtype)
    needs = set(trainable_param_names(state.config, train_embeddings=True))
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 2**40)
    loss_r, dxf_r, grads_r, dout_w_r = _reference_head(state, ids, mask, needs)
    loss, dxf, grads, head_grads = _fused_head(state, ids, mask, needs)
    assert loss == loss_r
    assert dxf.tobytes() == dxf_r.tobytes()
    assert head_grads["out_w"].tobytes() == dout_w_r.tobytes()
    for name in needs - {"out_w"}:
        assert grads[name].tobytes() == grads_r[name].tobytes(), name
    _, dlogits = masked_next_token_loss(forward_batch(state, ids)[0], ids, mask)
    zero = np.ones(dlogits.shape[:2], dtype=bool)
    zero[:, :-1] = mask == 0.0
    assert not np.signbit(dlogits[zero]).any() and not dlogits[zero].any()


# ---------------------------------------------------------------------------
# GELU


def _gelu_fwd_expression(x):
    """The GELU forward as one whole-array expression."""
    t = np.tanh(lora_model._GELU_C * (x + lora_model._GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad_expression(x, t):
    """gelu'(x) as one whole-array expression, given the forward's t."""
    inner = lora_model._GELU_C * (1.0 + 3.0 * lora_model._GELU_A * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * inner


def _gelu_case(dtype, extra):
    """x of 96-wide rows: one row when ``extra`` is None, else one
    ``CHUNK_BYTES`` chunk of rows plus ``extra``."""
    d = 96
    per_chunk = lora_model.CHUNK_BYTES // (d * np.dtype(dtype).itemsize)
    rows = 1 if extra is None else per_chunk + extra
    rng = np.random.default_rng(rows)
    x = rng.normal(0.0, 3.0, (rows, d)).astype(dtype)
    x[0, :4] = (0.0, -0.0, 30.0, -30.0)  # zeros and saturated tanh
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# one row, one chunk, one chunk + 1 row, and 2.5 (float32) or 3.9 (float64)
# chunks, the last one partial
@pytest.mark.parametrize("extra", [None, 0, 1, 1000])
def test_gelu_chunks_match_whole_array_expression_bitwise(dtype, extra):
    """``_gelu_fwd`` and ``_gelu_grad`` each overwrite x, with gelu(x) and
    with gelu'(x), bitwise the whole-array expressions (the derivative the
    forward computed beside the value when the cache kept it)."""
    x = _gelu_case(dtype, extra)
    for shape in (x.shape, (1,) + x.shape):
        g_r, t_r = _gelu_fwd_expression(x.reshape(shape))
        d_r = _gelu_grad_expression(x.reshape(shape), t_r)
        for kernel, ref in ((lora_model._gelu_fwd, g_r), (lora_model._gelu_grad, d_r)):
            h1 = x.reshape(shape).copy()
            out = kernel(h1)
            assert np.shares_memory(out, h1)  # in place
            assert out.shape == shape and out.dtype == dtype
            assert out.tobytes() == ref.tobytes(), kernel.__name__


def test_gelu_never_holds_whole_batch_temporaries():
    B, T = 16, 256
    config = ModelConfig(vocab_size=4100, max_seq_len=T)
    rng = np.random.default_rng(0)
    h1 = rng.normal(size=(B, T, config.d_ff)).astype(np.float32)

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # forward writes gelu(x) into x and holds at most two chunks (the tanh
    # term and the next chunk's); the derivative overwrites x and holds at
    # most four (t, its inner factor, 1 - t*t and the next chunk's t):
    # measured 4.01 chunks.  Returning the forward's derivative beside gelu(x) held 1x
    # + 3 chunks, a new activation and t 2.06x.
    chunk = lora_model.CHUNK_BYTES
    assert chunk * 8 <= h1.nbytes  # chunks are small beside the activation
    assert peak(lora_model._gelu_fwd, h1.copy()) < 3 * chunk
    assert peak(lora_model._gelu_grad, h1.copy()) < 5 * chunk


# ---------------------------------------------------------------------------
# Generation


def _constant_argmax_state(target_id: int) -> "ModelState":
    config = replace(SMALL, max_seq_len=8)
    state = init_model(config, seed=0)
    for name in state.params:
        state.params[name][:] = 0.0
    state.params["ln_f.beta"][:] = 1.0
    state.params["out_w"][target_id, :] = 0.1
    return state


def test_greedy_generate_stops_at_eos():
    state = _constant_argmax_state(EOS_ID)
    assert greedy_generate(state, [BOS_ID, 5], max_new_tokens=10) == [EOS_ID]


def test_greedy_generate_stops_when_context_full():
    state = _constant_argmax_state(PAD_ID)
    out = greedy_generate(state, [BOS_ID], max_new_tokens=100)
    assert out == [PAD_ID] * 7  # 8-token context minus the prompt


def test_greedy_generate_respects_token_budget():
    state = _constant_argmax_state(PAD_ID)
    assert len(greedy_generate(state, [BOS_ID], max_new_tokens=3)) == 3


def test_greedy_generate_deterministic():
    state = init_model(SMALL, seed=6)
    prompt = [BOS_ID, 4, 5]
    assert greedy_generate(state, prompt, 8) == greedy_generate(state, prompt, 8)


def test_greedy_generate_edge_cases():
    state = init_model(SMALL, seed=6)
    with pytest.raises(ValueError):
        greedy_generate(state, [], 4)
    assert greedy_generate(state, [BOS_ID], 0) == []
    assert greedy_generate(state, [BOS_ID], -1) == []
    assert greedy_generate(state, [BOS_ID] * SMALL.max_seq_len, 4) == []


# Bounds on a cached decode step's logits against the full-prefix reference:
# a one-row product runs another BLAS kernel than the rows of a T-row GEMM.
CACHED_TOL = {np.float32: 1e-5, np.float64: 1e-12}


def _live_adapter_state(config, dtype, seed):
    """A random state whose adapters all contribute (noisy B), with EOS
    unreachable so that decoding runs until the budget or context ends."""
    state = init_model(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    for name in adapter_param_names(config):
        if name.endswith(".b"):
            state.params[name][:] = rng.normal(0.0, 0.1, state.params[name].shape)
    state.params["out_w"][EOS_ID] = -1.0
    return state


def _full_prefix_decode(state, prompt, max_new_tokens):
    """Reference decode: rerun the whole prefix for every token and take the
    last row of its logits."""
    ids, out, rows = list(prompt), [], []
    for _ in range(max_new_tokens):
        if len(ids) >= state.config.max_seq_len:
            break
        logits = model_forward(state, ids)
        rows.append(logits[-1])
        nxt = int(np.argmax(logits[-1]))
        ids.append(nxt)
        out.append(nxt)
        if nxt == EOS_ID:
            break
    return out, rows


def _recording_forward(monkeypatch):
    """Wraps ``lora_model.forward_hidden``; returns the (ids, xf) of each call."""
    calls = []
    inner = lora_model.forward_hidden

    def wrapped(state, ids, *args, **kwargs):
        xf, cache = inner(state, ids, *args, **kwargs)
        calls.append((np.asarray(ids), xf))
        return xf, cache

    monkeypatch.setattr(lora_model, "forward_hidden", wrapped)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("projections", [ADAPTABLE_PROJECTIONS, ("query", "value")])
@pytest.mark.parametrize("prompt_len", [1, 7, SMALL.max_seq_len - 1])
def test_cached_decode_matches_full_prefix_decode(
    monkeypatch, dtype, projections, prompt_len
):
    config = replace(SMALL, adapted_projections=projections)
    state = _live_adapter_state(config, dtype, seed=prompt_len)
    prompt = [BOS_ID] + list(
        random_ids(np.random.default_rng(prompt_len), config, prompt_len - 1)
    )
    budget = config.max_seq_len  # always runs into the context limit
    want, rows = _full_prefix_decode(state, prompt, budget)
    assert len(want) == config.max_seq_len - prompt_len

    calls = _recording_forward(monkeypatch)
    got = greedy_generate(state, prompt, budget)
    assert got == want
    assert len(calls) == len(got)
    for (_, xf), row in zip(calls, rows):
        logits = xf[0, -1] @ state.params["out_w"].T
        assert logits.dtype == dtype
        np.testing.assert_allclose(logits, row, rtol=0, atol=CACHED_TOL[dtype])


def test_greedy_generate_feeds_each_position_once(monkeypatch):
    state = _live_adapter_state(SMALL, np.float32, seed=3)
    prompt = [BOS_ID, 4, 5, 6]
    calls = _recording_forward(monkeypatch)
    out = greedy_generate(state, prompt, 6)
    assert len(out) == 6
    assert sum(ids.shape[1] for ids, _ in calls) == len(prompt) + len(out) - 1


def _assert_chained_past_matches_one_call(dtype):
    state = _live_adapter_state(SMALL, dtype, seed=4)
    ids = random_ids(np.random.default_rng(5), SMALL, (2, 12))
    full, _ = forward_hidden(state, ids)
    # only a decode cache serves as past; a backward cache keeps no keys
    xf, cache = forward_hidden(state, ids[:, :5], needs=frozenset())
    parts = [xf]
    for lo, hi in ((5, 6), (6, 10), (10, 12)):
        xf, cache = forward_hidden(state, ids[:, lo:hi], past=cache)
        parts.append(xf)
    assert cache["blocks"][0]["kh"].shape[2] == 12
    np.testing.assert_allclose(
        np.concatenate(parts, axis=1), full, rtol=0, atol=CACHED_TOL[dtype]
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_with_past_matches_one_call(dtype):
    _assert_chained_past_matches_one_call(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_with_past_matches_one_call_one_sequence_per_block(monkeypatch, dtype):
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    _assert_chained_past_matches_one_call(dtype)


def test_forward_with_past_validation():
    state = init_model(SMALL, seed=1)
    _, cache = forward_hidden(state, np.full((1, 10), 4), needs=frozenset())
    with pytest.raises(ValueError, match="max_seq_len"):
        forward_hidden(state, np.full((1, 7), 4), past=cache)


@pytest.mark.parametrize("needs", [None, {"layers.0.lora.query.a"}, {"ln_f.gamma"}])
def test_forward_rejects_a_backward_cache_as_past(needs):
    state = init_model(SMALL, seed=1)
    _, cache = forward_hidden(state, np.full((1, 4), 5), needs=needs)
    with pytest.raises(ValueError, match="decode cache"):
        forward_hidden(state, np.full((1, 2), 6), past=cache)


def test_backward_rejects_a_cache_built_on_past():
    state = init_model(SMALL, seed=1)
    _, cache = forward_hidden(state, np.full((1, 4), 5), needs=frozenset())
    xf, cache = forward_hidden(state, np.full((1, 2), 6), past=cache)
    with pytest.raises(ValueError):
        backward_batch(state, cache, np.ones_like(xf))


# ---------------------------------------------------------------------------
# Blocked attention


def _attention_step(monkeypatch, state, ids, mask, block_bytes):
    """One dropout training step whose attention runs in blocks of
    ``block_bytes``; the vocab head keeps its default blocks, so ``out_w``'s
    gradient sees the attention only through xf.  Returns (xf, loss, dxf,
    grads, the batch size of each ``_attn_tile`` call)."""
    calls = []
    inner = lora_model._attn_tile

    def counting(qh, *args):
        calls.append(qh.shape[0])
        return inner(qh, *args)

    def blocked(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(lora_model, "BLOCK_BYTES", block_bytes)
            m.setattr(lora_model, "_attn_tile", counting)
            return fn(*args, **kwargs)

    rng = np.random.default_rng(3)
    xf, cache = blocked(forward_hidden, state, ids, rng=rng)
    loss, dxf, grads = head_loss(state, xf.copy(), ids, mask)  # it consumes xf
    grads.update(blocked(backward_batch, state, cache, dxf))
    return xf, loss, dxf, grads, calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_blocks_match_one_block_bitwise(monkeypatch, dtype):
    config = replace(SMALL, n_layers=2, lora_dropout=0.2)
    state = _live_adapter_state(config, dtype, seed=8)
    B = 5
    ids = random_ids(np.random.default_rng(8), config, (B, config.max_seq_len))
    mask = np.ones((B, config.max_seq_len - 1))
    mask[0, :6] = 0.0  # a prompt
    mask[2, 3:] = 0.0  # padding
    mask[4, ::2] = 0.0
    xf1, loss1, dxf1, grads1, calls1 = _attention_step(monkeypatch, state, ids, mask, 1)
    xf, loss, dxf, grads, calls = _attention_step(monkeypatch, state, ids, mask, 2**40)
    # forward and backward each: one call per sequence and layer, or per layer
    assert calls1 == [1] * (2 * config.n_layers * B)
    assert calls == [B] * (2 * config.n_layers)
    assert xf1.dtype == dtype and xf1.tobytes() == xf.tobytes()
    assert loss1 == loss
    assert dxf1.tobytes() == dxf.tobytes()
    assert sorted(grads1) == sorted(grads) == sorted(param_names(config))
    for name in grads:
        assert grads1[name].tobytes() == grads[name].tobytes(), name


def test_training_step_never_holds_whole_batch_attention():
    B, T = 16, 256
    config = ModelConfig(vocab_size=4100, max_seq_len=T)
    state = init_model(config, seed=0)
    ids = random_ids(np.random.default_rng(0), config, (B, T))
    needs = set(trainable_param_names(config))
    whole = (B, config.n_heads, T, T)
    probs_bytes = math.prod(whole) * 4  # one layer's float32 probabilities
    tracemalloc.start()
    try:
        xf, cache = forward_hidden(state, ids, rng=np.random.default_rng(1))
        # before backward_batch consumes the cache
        for blk in cache["blocks"]:
            for entry in blk.values():
                for arr in entry if isinstance(entry, tuple) else (entry,):
                    assert arr is None or arr.shape != whole
        _, dxf, _ = head_loss(state, xf, ids, np.ones((B, T - 1)), needs)
        backward_batch(state, cache, dxf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 128 MiB; caching the probabilities and differentiating the whole batch
    # at once peaked at about 153 MiB
    assert peak < 8 * probs_bytes


# ---------------------------------------------------------------------------
# Causal attention tiles


def _whole_row_attention(qh, kh, vh, doh, head_scale):
    """The whole-row causal attention that the tiles replace, forward and
    backward, each step as the unblocked pass computed it: (o, dv, dq, dk)."""
    t, tk = qh.shape[2], kh.shape[2]
    attn = qh @ kh.transpose(0, 1, 3, 2)
    attn *= head_scale
    np.copyto(attn, -np.inf, where=np.triu(np.ones((t, tk), dtype=bool), k=tk - t + 1))
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    o = attn @ vh
    dv = attn.transpose(0, 1, 3, 2) @ doh
    ds = doh @ vh.transpose(0, 1, 3, 2)
    ds -= (ds * attn).sum(axis=-1, keepdims=True)
    ds *= attn
    dq = (ds @ kh) * head_scale
    dk = (ds.transpose(0, 1, 3, 2) @ qh) * head_scale
    return o, dv, dq, dk


def _tiled_attention_mismatches(tk, dtype, head_dim, seed=0):
    """Names of the outputs of ``_attn_fwd``/``_attn_bwd`` over tk positions
    that differ in any bit from ``_whole_row_attention``."""
    rng = np.random.default_rng(seed + tk)
    qh, kh, vh, doh = (
        rng.normal(0.0, 1.0, (2, 2, tk, head_dim)).astype(dtype) for _ in range(4)
    )
    head_scale = 1.0 / math.sqrt(head_dim)
    outs = [np.empty_like(qh) for _ in range(4)]
    o, dv, dq, dk = outs
    lora_model._attn_fwd(qh, kh, vh, head_scale, o)
    lora_model._attn_bwd(qh, kh, vh, doh, head_scale, dq, dk, dv)
    reference = _whole_row_attention(qh, kh, vh, doh, head_scale)
    return [
        name for name, a, r in zip(("o", "dv", "dq", "dk"), outs, reference)
        if a.tobytes() != r.tobytes()
    ]


# every (dtype, head dim) that runs in tiles, and its longest key row
TILED = [(str(dtype), head_dim, top) for (dtype, head_dim), top in lora_model._TILED.items()]


@pytest.mark.parametrize("dtype,head_dim,top", TILED)
@pytest.mark.parametrize("tile", [8, lora_model.ATTN_TILE])
def test_causal_tiles_match_whole_rows_bitwise_at_every_length(
    monkeypatch, dtype, head_dim, top, tile
):
    """Guards the tile kernel against NumPy's row-sum tree and BLAS: a
    change in either that breaks a tile's bits fails here, by length."""
    monkeypatch.setattr(lora_model, "ATTN_TILE", tile)
    mismatched = {}
    for tk in range(1, 257):
        names = _tiled_attention_mismatches(tk, dtype, head_dim)
        if names:
            mismatched[tk] = names
    assert mismatched == {}
    # the lengths in range really ran in tiles, the others in whole rows
    for tk in range(1, 257):
        count = max(1, -(-(tk - 1) // tile)) if tk <= top else 1
        assert len(lora_model._causal_tiles(tk, dtype, head_dim)) == count, tk


@pytest.mark.parametrize("dtype,head_dim,top", TILED)
@pytest.mark.parametrize("tile", [8, lora_model.ATTN_TILE])
def test_causal_tiles_match_whole_rows_bitwise_at_named_lengths(
    monkeypatch, dtype, head_dim, top, tile
):
    """255 (the bench's predicted positions per sequence), 256 (its
    attention length), and tile*k + 1, whose lone last row joins the tile
    before it."""
    monkeypatch.setattr(lora_model, "ATTN_TILE", tile)
    for tk in [255, 256] + list(range(tile + 1, top + 1, tile)):
        tiles = lora_model._causal_tiles(tk, dtype, head_dim)
        assert tiles[0][0] == 0 and tiles[-1][1] == tk
        assert all(hi - lo >= 2 for lo, hi in tiles), tk
        assert all(hi % 8 == 0 for _, hi in tiles[:-1]), tk
        assert _tiled_attention_mismatches(tk, dtype, head_dim, seed=1) == [], tk


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tk, tiles", [(20, (1, 1)), (97, (3, 3)), (200, (7, 1))])
def test_attention_backward_writes_any_subset_of_its_gradients_bitwise(dtype, tk, tiles):
    """``_attn_bwd`` with each of dq, dk and dv given or None writes the
    given ones, bitwise the whole-row expressions: at one tile (20 keys),
    at tiles whose lone last row joins the tile before it (97), and at 200
    keys, in tiles in float32 and in whole rows in float64."""
    assert len(lora_model._causal_tiles(tk, dtype, 16)) == tiles[dtype == np.float64]
    rng = np.random.default_rng(tk)
    qh, kh, vh, doh = (rng.normal(0.0, 1.0, (2, 2, tk, 16)).astype(dtype) for _ in range(4))
    _, dv_r, dq_r, dk_r = _whole_row_attention(qh, kh, vh, doh, 0.25)
    for given in itertools.product((False, True), repeat=3):
        outs = [np.full_like(qh, np.nan) if g else None for g in given]
        lora_model._attn_bwd(qh, kh, vh, doh, 0.25, *outs)
        for name, out, ref in zip(("dq", "dk", "dv"), outs, (dq_r, dk_r, dv_r)):
            assert out is None or out.tobytes() == ref.tobytes(), (given, name)


def test_attention_backward_holds_one_score_buffer():
    """At a tiled length, ``_attn_bwd`` keeps one (batch, heads, t, t)
    buffer, not one of probabilities and one of ``ds``: with dq, dk and dv
    all wanted it peaked at 1.38 buffers (2.38 with two), plus the tiles'
    temporaries."""
    b, H, T, dh = 2, 4, 256, 16
    rng = np.random.default_rng(0)
    qh, kh, vh, doh = (rng.normal(size=(b, H, T, dh)).astype(np.float32) for _ in range(4))
    outs = [np.empty_like(qh) for _ in range(3)]
    assert len(lora_model._causal_tiles(T, np.float32, dh)) > 1
    tracemalloc.start()
    try:
        lora_model._attn_bwd(qh, kh, vh, doh, 0.25, *outs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * b * H * T * T * 4


def test_untiled_shapes_keep_whole_rows():
    for dtype, head_dim in ((np.float32, 8), (np.float32, 32), (np.float16, 16)):
        assert lora_model._causal_tiles(200, dtype, head_dim) == [(0, 200)]
    assert lora_model._causal_tiles(193, np.float64, 16) == [(0, 193)]


def test_causal_tiles_skip_the_masked_scores(monkeypatch):
    """At T=255 a layer computes under 2/3 of the whole rows' B*H*T*T scores
    (32-row tiles: 36,577 of 65,025 per head, 56%)."""
    B, T = 2, 255
    config = replace(SMALL, d_model=32, max_seq_len=256, n_layers=2)
    state = init_model(config, seed=0)
    ids = random_ids(np.random.default_rng(0), config, (B, T))
    scores = []
    inner = lora_model._attn_tile

    def counting(qh, kh, *args):
        p = inner(qh, kh, *args)
        scores.append(p.size)
        return p

    monkeypatch.setattr(lora_model, "_attn_tile", counting)
    monkeypatch.setattr(lora_model, "ATTN_TILE", 32)
    forward_hidden(state, ids)
    per_layer = sum(scores) / config.n_layers
    assert per_layer == B * config.n_heads * 36577
    assert per_layer < 2 / 3 * B * config.n_heads * T * T


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tiled_training_step_matches_whole_rows_bitwise(monkeypatch, dtype):
    """``forward_hidden`` and ``backward_batch`` in 8-row tiles against one
    tile of whole rows, for every tensor, over lengths that end a tile, miss
    a tile bound by one row, and fall between."""
    config = replace(SMALL, d_model=32, n_layers=2, max_seq_len=60, lora_dropout=0.2)
    state = _live_adapter_state(config, dtype, seed=5)
    for T in (59, 49, 44):
        ids = random_ids(np.random.default_rng(T), config, (3, T))
        mask = np.ones((3, T - 1))
        mask[1, :7] = 0.0
        results = []
        for tile in (8, 2**20):
            monkeypatch.setattr(lora_model, "ATTN_TILE", tile)
            xf, cache = forward_hidden(state, ids, rng=np.random.default_rng(2))
            loss, dxf, grads = head_loss(state, xf.copy(), ids, mask)  # it consumes xf
            grads.update(backward_batch(state, cache, dxf))
            results.append((xf, loss, grads))
        (xf, loss, grads), (xf_r, loss_r, grads_r) = results
        assert xf.tobytes() == xf_r.tobytes() and loss == loss_r
        assert sorted(grads) == sorted(grads_r) == sorted(param_names(config))
        for name in grads:
            assert grads[name].tobytes() == grads_r[name].tobytes(), (T, name)


def test_tiled_dropout_gradients_match_finite_differences(monkeypatch):
    """Tiled attention and LoRA dropout against central differences of the
    loss along a random direction per tensor, with the dropout masks drawn
    from the same seed on every forward pass."""
    monkeypatch.setattr(lora_model, "ATTN_TILE", 8)
    config = replace(SMALL, d_model=32, n_layers=2, max_seq_len=40, lora_dropout=0.3)
    state = _live_adapter_state(config, np.float64, seed=2)
    rng = np.random.default_rng(2)
    ids = random_ids(rng, config, (2, 37))
    mask = np.ones((2, 36))

    def forward():
        return forward_hidden(state, ids, rng=np.random.default_rng(4))

    xf, cache = forward()
    _, dxf, grads = head_loss(state, xf, ids, mask)
    grads.update(backward_batch(state, cache, dxf))
    assert len(lora_model._causal_tiles(37, np.float64, 16)) == 5
    step = 1e-5
    for name in ("tok_emb", "layers.0.attn.wk", "layers.0.lora.query.a", "layers.1.lora.value.b"):
        direction = rng.normal(size=state.params[name].shape)
        losses = []
        for sign in (1.0, -1.0):
            saved = state.params[name].copy()
            state.params[name] += sign * step * direction
            losses.append(head_loss(state, forward()[0], ids, mask)[0])
            state.params[name] = saved
        fd = (losses[0] - losses[1]) / (2.0 * step)
        analytic = float((grads[name] * direction).sum())
        assert abs(fd - analytic) < 1e-6 * max(1.0, abs(analytic)), name


# ---------------------------------------------------------------------------
# Needs-aware training step


def _dropout_expression(x, p, rng):
    """LoRA dropout's forward as one whole-array expression."""
    keep = rng.random(x.shape) >= p
    return x * keep.astype(x.dtype) / (1.0 - p), keep


def _layer_norm_fwd_expression(x, gamma, beta):
    """The layer-norm forward as one whole-array expression."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + lora_model._LN_EPS)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv)


def _layer_norm_bwd_expression(dy, xhat, inv, gamma):
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * inv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (2, 256), (16, 256)],
                         ids=["one row", "one block", "whole batch"])
@pytest.mark.parametrize("d", [64, 48])  # a row mean divides by a power of two, or not
def test_dropout_and_layer_norm_kernels_match_whole_array_expressions_bitwise(dtype, shape, d):
    rng = np.random.default_rng(shape[0] * d)
    x = rng.normal(0.0, 3.0, shape + (d,)).astype(dtype)
    x[0, 0, :2] = (0.0, -0.0)  # signed zeros, kept or dropped
    if x.size > d:
        x[-1, -1] = 2.5  # a constant row: variance 0, xhat all zeros
    dy = rng.normal(size=x.shape).astype(dtype)
    drawn, reference = np.random.default_rng(1), np.random.default_rng(1)
    keep = lora_model._dropout_mask(x.shape, 0.3, drawn)
    xd = lora_model._dropout_apply(x, keep, 0.3)
    xd_r, keep_r = _dropout_expression(x, 0.3, reference)
    assert drawn.bit_generator.state == reference.bit_generator.state
    assert keep.shape == x.shape and keep.tobytes() == keep_r.tobytes()
    assert xd.dtype == dtype and xd.tobytes() == xd_r.tobytes()
    dxd_r = dy * keep_r.astype(dtype) / (1.0 - 0.3)
    dxd = dy.copy()
    out = lora_model._dropout_apply(dxd, keep, 0.3, out=dxd)  # in place
    assert np.shares_memory(out, dxd) and dxd.tobytes() == dxd_r.tobytes()
    gamma = rng.normal(1.0, 0.2, d).astype(dtype)
    gamma[1] = -1.0
    beta = rng.normal(0.0, 0.1, d).astype(dtype)
    beta[:2] = -0.0  # a zero xhat gives -0 + -0 = -0 under gamma < 0, else +0
    y, (xhat, inv) = lora_model._layer_norm_fwd(x, gamma, beta)
    y_r, (xhat_r, inv_r) = _layer_norm_fwd_expression(x, gamma, beta)
    for out, ref in ((y, y_r), (xhat, xhat_r), (inv, inv_r)):
        assert out.shape == ref.shape and out.dtype == ref.dtype == dtype
        assert out.tobytes() == ref.tobytes()
    # y written over x itself, as the final layer norm does
    x_in = x.copy()
    y_in, (xhat_in, inv_in) = lora_model._layer_norm_fwd(x_in, gamma, beta, out=x_in)
    assert np.shares_memory(y_in, x_in) and y_in.shape == x.shape
    for out, ref in ((y_in, y), (xhat_in, xhat), (inv_in, inv)):
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()
    dx_r = _layer_norm_bwd_expression(dy, xhat, inv, gamma)
    # a dy whose rows are no (rows, d) view is written through a copy: the
    # array returned is the one written
    padded = np.zeros((shape[0], shape[1] + 1, d), dtype)
    padded[:, :-1] = dy
    dx_view = lora_model._layer_norm_bwd(padded[:, :-1], (xhat, inv), gamma)
    assert dx_view.shape == x.shape and dx_view.tobytes() == dx_r.tobytes()
    dx = lora_model._layer_norm_bwd(dy, (xhat, inv), gamma)
    assert np.shares_memory(dx, dy)  # in place
    assert dx.shape == x.shape and dx.dtype == dtype
    assert dx.tobytes() == dx_r.tobytes()


def test_layer_norm_forward_holds_only_its_outputs():
    B, T, d = 64, 256, 64
    x = np.random.default_rng(0).normal(size=(B, T, d)).astype(np.float32)
    gamma, beta = np.ones(d, np.float32), np.zeros(d, np.float32)
    inv_bytes = x.nbytes // d
    tracemalloc.start()
    try:
        lora_model._layer_norm_fwd(x, gamma, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # y and xhat (2x) plus inv, with no temporary of x's size: measured 2x +
    # 1.5 inv; the allocating whole-array expression peaked at 4.06x
    assert peak < 2 * x.nbytes + 2 * inv_bytes


def _step_case(dtype, projections, seed=4, dropout=0.2):
    """A 3-layer model with live adapters and dropout (0.2 by default), and
    a batch with an SFT-style mask: a prompt, a response, then padding.  The
    adapter scale
    (1.5) is no power of two, so moving it between factors changes bits."""
    config = replace(SMALL, n_layers=3, lora_alpha=3.0, lora_dropout=dropout,
                     adapted_projections=projections)
    state = _live_adapter_state(config, dtype, seed)
    rng = np.random.default_rng(seed)
    B, T = 5, config.max_seq_len
    ids = random_ids(rng, config, (B, T))
    mask = np.zeros((B, T - 1))
    for b in range(B):
        lo = int(rng.integers(0, 6))
        mask[b, lo : lo + int(rng.integers(1, 8))] = 1.0
    return state, ids, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("projections", [("query", "value"), ADAPTABLE_PROJECTIONS])
@pytest.mark.parametrize("train_embeddings", [False, True])
@pytest.mark.parametrize("chunk", ["one row", "one chunk + 1 row"])
def test_needs_aware_step_matches_full_pass_bitwise(
    monkeypatch, dtype, projections, train_embeddings, chunk
):
    state, ids, mask = _step_case(dtype, projections)
    config = state.config
    needs = set(trainable_param_names(config, train_embeddings))
    # the reference: a whole-array (one chunk) forward and backward that
    # caches and differentiates every tensor
    monkeypatch.setattr(lora_model, "CHUNK_BYTES", 2**40)
    xf, cache = forward_hidden(state, ids, rng=np.random.default_rng(3))
    loss_r, dxf, grads_r = head_loss(state, xf, ids, mask)
    grads_r.update(backward_batch(state, cache, dxf))
    row_bytes = config.d_model * np.dtype(dtype).itemsize
    rows = 1 if chunk == "one row" else ids.size - 1
    monkeypatch.setattr(lora_model, "CHUNK_BYTES", rows * row_bytes)
    rng = np.random.default_rng(3)
    loss, grads = trainer._batch_grads(state, ids, mask, needs, rng)
    assert loss == loss_r
    assert set(grads) == needs
    for name in needs:
        assert grads[name].dtype == dtype, name
        assert grads[name].tobytes() == grads_r[name].tobytes(), name
    # the chunked draws consumed the stream as one whole-array draw per
    # adapted projection would
    whole = np.random.default_rng(3)
    for _ in range(config.n_layers):
        for proj in config.adapted_projections:
            whole.random(ids.shape + (config.projection_dims(proj)[1],))
    assert rng.bit_generator.state == whole.bit_generator.state


def _traced_block_sizes(monkeypatch, block_bytes, fn, *args):
    """``fn(*args)`` with ``BLOCK_BYTES`` set to ``block_bytes``; returns its
    result and the set of batch sizes that ``_proj_out`` saw."""
    sizes = set()
    inner = lora_model._proj_out

    def recording(state, i, proj, x, u):
        sizes.add(x.shape[0])
        return inner(state, i, proj, x, u)

    with monkeypatch.context() as m:
        m.setattr(lora_model, "BLOCK_BYTES", block_bytes)
        m.setattr(lora_model, "_proj_out", recording)
        return fn(*args), sizes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("projections", [("query", "value"), ADAPTABLE_PROJECTIONS, ("ff_in",)])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("needs", ["adapters", "all"])
def test_batch_grads_do_not_depend_on_the_block_size(
    monkeypatch, dtype, projections, dropout, needs
):
    """Every layer runs one block of whole sequences at a time, forward and
    backward; a block of one sequence and a block of the whole batch give
    the same loss and gradients, bitwise.  ``out_w`` is left out:
    ``head_loss`` documents its gradient as a sum of per-block GEMMs."""
    state, ids, mask = _step_case(dtype, projections, dropout=dropout)
    needs = set(adapter_param_names(state.config)) if needs == "adapters" else None
    runs = [
        _traced_block_sizes(monkeypatch, block_bytes, trainer._batch_grads,
                            state, ids, mask, needs, np.random.default_rng(3))
        for block_bytes in (1, 2**40)
    ]
    (one_loss, one_grads), one_sizes = runs[0]
    (loss, grads), sizes = runs[1]
    assert one_sizes == {1} and sizes == {len(ids)}
    assert one_loss == loss
    assert sorted(one_grads) == sorted(grads)
    for name in set(grads) - {"out_w"}:
        assert grads[name].dtype == dtype, name
        assert one_grads[name].tobytes() == grads[name].tobytes(), name


def _use_workers(monkeypatch, n):
    """Runs ``_each`` on ``n`` threads until the test ends.  OpenBLAS is
    pinned first where it can be, and taken as pinned where it cannot, so
    that the threads run on every platform."""
    lora_model._workers()
    monkeypatch.setattr(lora_model, "WORKERS", n)
    monkeypatch.setattr(lora_model, "_blas_pinned", True)


def _recording_pool(monkeypatch):
    """Wraps ``lora_model._pool``; returns the number of pool threads that
    each ``_each`` that went to the pool ran its work on."""
    sizes = []
    inner = lora_model._pool

    class Recording:
        def __init__(self, pool):
            self.pool = pool
            sizes.append(0)

        def submit(self, fn):
            sizes[-1] += 1
            return self.pool.submit(fn)

    monkeypatch.setattr(lora_model, "_pool", lambda workers: Recording(inner(workers)))
    return sizes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("needs", ["adapters", "all"])
def test_batch_grads_do_not_depend_on_the_worker_count(monkeypatch, dtype, needs):
    """The blocks of every layer and of the vocab head run on 1, 2 or 3
    threads with the same bits.  The layer blocks shrink per worker (here 2
    sequences at one worker, 1 at two or three), which changes no bit; the
    head keeps its blocks of 2 sequences and adds the ``d out_w`` parts in
    block order, so with ``needs=None`` ``out_w``, a sum over three blocks,
    matches too."""
    state, ids, mask = _step_case(dtype, ("query", "value"), dropout=0.1)
    needs = set(adapter_param_names(state.config)) if needs == "adapters" else None
    cfg = state.config
    # a sequence's logits, attention scores and d_ff hidden array all hold
    # 16 x 32 values
    seq_bytes = cfg.max_seq_len * cfg.vocab_size * np.dtype(dtype).itemsize
    runs = {}
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            _use_workers(m, workers)
            pool = _recording_pool(m)
            runs[workers] = _traced_block_sizes(
                m, 2 * seq_bytes, trainer._batch_grads,
                state, ids, mask, needs, np.random.default_rng(3),
            )
        if workers == 1:
            assert pool == []
        else:  # the layers on every worker, the head on two
            assert max(pool) == workers - 1 and min(pool) == lora_model.HEAD_WORKERS - 1
    (loss, grads), sizes = runs[1]
    assert sizes == {1, 2}
    for workers in (2, 3):
        (other_loss, other_grads), other_sizes = runs[workers]
        assert other_sizes == {1}
        assert other_loss == loss
        assert sorted(other_grads) == sorted(grads)
        for name in grads:
            assert other_grads[name].dtype == dtype, name
            assert other_grads[name].tobytes() == grads[name].tobytes(), (workers, name)


@pytest.mark.parametrize("workers", [1, 3])
def test_each_runs_every_slice_once_on_every_worker_and_folds_in_slice_order(
    monkeypatch, workers
):
    """Three workers (more than some hosts have cores), each made to hold a
    slice until all three do, with a short switch interval: every slice
    runs once, on three threads, and ``fold`` sees the results in slice
    order, whatever order the slices finish in.  One worker runs every
    slice in order on the calling thread, and no pool is made."""
    _use_workers(monkeypatch, workers)
    pool = _recording_pool(monkeypatch)
    barrier = threading.Barrier(workers, timeout=30)
    delays = np.random.default_rng(0).uniform(0.0, 2e-3, 60)
    ran, threads, folded = [], set(), []

    def block(sl):
        if sl.start < workers:
            barrier.wait()  # the first slices run side by side
        time.sleep(delays[sl.start])
        ran.append(sl.start)
        threads.add(threading.get_ident())
        return sl.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lora_model._each(block, [slice(k, k + 1) for k in range(60)], folded.append)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(60))
    assert len(threads) == workers
    assert folded == list(range(60))
    if workers == 1:
        assert ran == folded and threads == {threading.get_ident()}
        assert pool == []
    else:
        assert pool == [workers - 1]


@pytest.mark.parametrize("workers", [1, 3])
def test_each_passes_a_block_exception_to_the_caller(monkeypatch, workers):
    _use_workers(monkeypatch, workers)
    pool = _recording_pool(monkeypatch)
    ran = []

    def block(sl):
        ran.append(sl.start)
        if sl.start == 7:
            raise KeyError("block 7")
        return sl.start

    folded = []
    with pytest.raises(KeyError, match="block 7"):
        lora_model._each(block, [slice(k, k + 1) for k in range(40)], folded.append)
    assert folded == list(range(len(folded))) and 7 not in folded
    if workers == 1:  # in order, and no slice after the failing one
        assert ran == list(range(8)) and folded == list(range(7))
    # the pool, where there is one, still serves the next call
    folded.clear()
    lora_model._each(block, [slice(k, k + 1) for k in range(7)], folded.append)
    assert folded == list(range(7))
    assert pool == ([] if workers == 1 else [workers - 1] * 2)


def test_decode_runs_inline(monkeypatch):
    """A decode call is one block of one sequence: it runs on the calling
    thread and submits nothing to the pool, whatever the worker count."""
    _use_workers(monkeypatch, 3)
    pool = _recording_pool(monkeypatch)
    state = _live_adapter_state(replace(SMALL, n_layers=2), np.float32, seed=1)
    out = greedy_generate(state, [BOS_ID, 5, 6, 7], 8)
    assert len(out) == 8
    assert pool == []
    # a batch of several sequences in several blocks does go to the pool
    monkeypatch.setattr(lora_model, "BLOCK_BYTES", 1)
    forward_hidden(state, random_ids(np.random.default_rng(1), state.config, (3, 8)))
    assert pool == [2, 2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d_in, d_out", [(64, 64), (64, 8), (8, 64), (64, 256), (256, 64)])
def test_projection_rows_do_not_depend_on_the_block_split(dtype, d_in, d_out):
    """The property the layer blocks rest on: the projections multiply a
    (sequences, time, d_in) array by a matrix, which NumPy does one
    sequence at a time, so a block of whole sequences gets bitwise the rows
    that the whole batch gets.  Checked for every projection shape of the
    default model, as ``x @ W.T`` (forward) and ``x @ W`` (backward), at
    blocks of 1 to 64 sequences.  The (rows, d_in) reshape would not do:
    OpenBLAS picks its kernel by the row count, and at some shapes (such as
    64 -> 8 as ``x @ W.T``) a short block's rows round otherwise."""
    rng = np.random.default_rng(d_in * 1000 + d_out)
    B, T = 64, 16
    x = rng.normal(size=(B, T, d_in)).astype(dtype)
    for w in (rng.normal(size=(d_out, d_in)).astype(dtype).T,
              rng.normal(size=(d_in, d_out)).astype(dtype)):
        whole = x @ w
        for per_block in range(1, B + 1):
            for lo in range(0, B, per_block):
                sl = slice(lo, lo + per_block)
                assert (x[sl] @ w).tobytes() == whole[sl].tobytes(), (per_block, lo)


REBUILD_NEEDS = {
    "default adapters": {f"layers.{i}.lora.{proj}.{m}" for i in range(3)
                         for proj in ("query", "value") for m in "ab"},
    "ln1 gamma": {"layers.0.ln1.gamma"},
    "value weight": {"layers.1.attn.wv"},
    "ff_in adapter": {"layers.1.lora.ff_in.a", "layers.1.lora.ff_in.b"},
    # the first wanted tensor is a bias: only the norm before it keeps its
    # statistics, for the rebuild
    "value bias": {"layers.1.attn.bv"},
    "ff_in B": {"layers.2.lora.ff_in.b"},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("needs", list(REBUILD_NEEDS))
def test_rebuilt_heads_and_gelu_derivative_match_the_full_pass_bitwise(dtype, needs):
    """Every needs set rebuilds the per-head query, key and value and the
    GELU derivative from what its own cache keeps (a projection's input, a
    layer norm's statistics, the adapters' u), and its gradients are the
    ``needs=None`` pass's, bitwise: all six projections adapted, dropout
    on, in training."""
    state, ids, mask = _step_case(dtype, ADAPTABLE_PROJECTIONS)
    needs = REBUILD_NEEDS[needs]
    loss_r, grads_r = trainer._batch_grads(state, ids, mask, None, np.random.default_rng(3))
    loss, grads = trainer._batch_grads(state, ids, mask, needs, np.random.default_rng(3))
    assert loss == loss_r
    assert set(grads) == needs
    for name in needs:
        assert grads[name].dtype == dtype, name
        assert grads[name].tobytes() == grads_r[name].tobytes(), name


def _gelu_arrays(blk, d_ff):
    """Names of a cache block's whole-batch feed-forward (d_ff wide) arrays."""
    return [k for k, v in blk.items() if isinstance(v, np.ndarray) and v.shape[-1] == d_ff]


def _model_wide_arrays(blk, shape):
    """The distinct whole-batch float arrays of ``shape`` that a cache block
    holds, its tuples' entries included."""
    entries = [e for v in blk.values() for e in (v if isinstance(v, tuple) else (v,))]
    found = {id(e): e for e in entries
             if isinstance(e, np.ndarray) and e.dtype.kind == "f" and e.shape == shape}
    return list(found.values())


def test_forward_keeps_only_the_cache_entries_backward_reads():
    """Each projection caches (x, u, keep), never a dropped-out input and
    never a layer norm's output: query, key, value and ff_in cache no x,
    and a norm keeps its statistics wherever the gradient reaches the
    projections that read its output, which backward rebuilds from them
    bitwise.  Under adapters-only training every layer, layer 0 included,
    keeps ln1's and ln2's statistics and both adapters' dropout masks,
    since their A gradients rebuild the dropped-out input from them.  A
    backward cache keeps no per-head query, key or value and no GELU array:
    backward rebuilds them from the norms' statistics and u's.  A decode
    cache keeps each layer's keys and values and nothing for a backward
    pass.  A wanted ln1 gamma keeps its layer's statistics, bitwise as the
    full pass computes it."""
    state, ids, mask = _step_case(np.float64, ("query", "value"))
    cfg = state.config
    needs = set(adapter_param_names(cfg))
    _, cache = forward_hidden(state, ids, rng=np.random.default_rng(0), needs=needs)
    wide = ids.shape + (cfg.d_model,)
    for blk in cache["blocks"]:
        assert set(blk) == set(ADAPTABLE_PROJECTIONS) | {"ln1", "ln2"}
        for proj in ("query", "value"):
            x, u, keep = blk[proj]
            assert x is None, proj
            assert u.shape == ids.shape + (cfg.lora_rank,)
            assert keep.dtype == bool and keep.shape == wide
        for proj in ("key", "output", "ff_in", "ff_out"):
            assert blk[proj] == (None, None, None), proj
        # the layer norms' xhat only: no dropped-out copy, no norm output
        held = _model_wide_arrays(blk, wide)
        assert sorted(map(id, held)) == sorted(map(id, [blk["ln1"][0], blk["ln2"][0]]))
        assert _gelu_arrays(blk, cfg.d_ff) == []
    # every tensor: still no per-head array and no GELU array, and only the
    # inputs that are no norm output (attention's and GELU's outputs)
    _, cache = forward_hidden(state, ids, rng=np.random.default_rng(0))
    for blk in cache["blocks"]:
        assert set(blk) == set(ADAPTABLE_PROJECTIONS) | {"ln1", "ln2"}
        assert _gelu_arrays(blk, cfg.d_ff) == []
        for proj in ("query", "key", "value", "ff_in"):
            assert blk[proj][0] is None, proj
        assert blk["output"][0].shape == wide
        assert blk["ff_out"][0].shape == ids.shape + (cfg.d_ff,)
    # only the last layer's value adapter: the layers below keep nothing;
    # that layer keeps its ln1 statistics for the query/key/value rebuild
    # and its ln2 statistics for the ff_in rebuild, beside the adapters' u,
    # and no input
    _, cache = forward_hidden(state, ids, needs={"layers.2.lora.value.b"})
    for blk in cache["blocks"][:2]:
        assert set(blk) == set(ADAPTABLE_PROJECTIONS)
        assert all(blk[proj] == (None, None, None) for proj in ADAPTABLE_PROJECTIONS)
    last = cache["blocks"][2]
    assert set(last) == set(ADAPTABLE_PROJECTIONS) | {"ln1", "ln2"}
    for proj in ("query", "value"):
        x, u, keep = last[proj]
        assert x is None and keep is None, proj
        assert u.shape == ids.shape + (cfg.lora_rank,)
    for proj in ("key", "output", "ff_in", "ff_out"):
        assert last[proj] == (None, None, None), proj
    # a decode cache: the keys and values of every position so far
    _, cache = forward_hidden(state, ids[:, :5], needs=frozenset())
    _, cache = forward_hidden(state, ids[:, 5:], past=cache)
    for blk in cache["blocks"]:
        assert set(blk) == set(ADAPTABLE_PROJECTIONS) | {"kh", "vh"}
        assert blk["kh"].shape == blk["vh"].shape == (
            ids.shape[0], cfg.n_heads, ids.shape[1], cfg.d_model // cfg.n_heads)
        assert all(blk[proj] == (None, None, None) for proj in ADAPTABLE_PROJECTIONS)
    assert cache["needs"] == frozenset()
    xf, cache = forward_hidden(state, ids)
    _, dxf, _ = head_loss(state, xf, ids, mask)
    full = backward_batch(state, cache, dxf.copy())
    for name in ("layers.0.ln1.gamma", "layers.1.ln1.beta"):
        xf, cache = forward_hidden(state, ids, needs={name})
        assert "ln1" in cache["blocks"][int(name.split(".")[1])]
        assert backward_batch(state, cache, dxf.copy())[name].tobytes() == full[name].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_single_tensor_step_matches_the_full_pass_bitwise(monkeypatch, dtype):
    """Each of the 89 tensors alone (``needs={name}``), all six projections
    adapted, dropout on: its gradient is the ``needs=None`` pass's,
    bitwise, wherever in the model the gradient first enters.  No cache
    entry of query, key, value or ff_in holds an x under any of these
    needs: their input is the layer norm's output, which backward always
    rebuilds from the norm's statistics."""
    state, ids, mask = _step_case(dtype, ADAPTABLE_PROJECTIONS, dropout=0.1)
    kept = []
    inner = lora_model._layer_cache

    def recording(*args):
        blk, masks = inner(*args)
        kept.extend(proj for proj in ("query", "key", "value", "ff_in") if blk[proj][0] is not None)
        return blk, masks

    monkeypatch.setattr(lora_model, "_layer_cache", recording)
    loss_r, grads_r = trainer._batch_grads(state, ids, mask, None, np.random.default_rng(3))
    names = param_names(state.config)
    assert len(names) == 89
    for name in names:
        loss, grads = trainer._batch_grads(state, ids, mask, {name}, np.random.default_rng(3))
        assert loss == loss_r, name
        assert set(grads) == {name}
        assert grads[name].dtype == dtype, name
        assert grads[name].tobytes() == grads_r[name].tobytes(), name
    assert kept == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extra", [None, 0, 1])  # one row, one chunk, one chunk + 1
@pytest.mark.parametrize("proj", ["query", "output"])
def test_adapter_gradient_rebuilds_the_forward_dropout_bitwise(monkeypatch, dtype, extra, proj):
    """``_proj_grads`` rebuilds the adapter's dropped-out input in place on
    x, bitwise the array the forward formed, and takes its A gradient as
    one GEMM on it.  For query, x is the ln1 output, rebuilt from ln1's
    statistics; for output, x is the input the cache kept, which nothing
    reads after this."""
    config = replace(SMALL, d_model=64, n_heads=4, d_ff=64, lora_rank=4,
                     lora_alpha=6.0, lora_dropout=0.3, adapted_projections=(proj,))
    state = _live_adapter_state(config, dtype, 0)
    P = state.params
    d = config.d_model
    per_chunk = lora_model.CHUNK_BYTES // (d * np.dtype(dtype).itemsize)
    rows = 1 if extra is None else per_chunk + extra
    rng = np.random.default_rng(rows)
    x = rng.normal(0.0, 3.0, (1, rows, d)).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    keep = lora_model._dropout_mask(x.shape, 0.3, np.random.default_rng(5))
    if proj == "query":
        x, stats = lora_model._layer_norm_fwd(x, P["layers.0.ln1.gamma"], P["layers.0.ln1.beta"])
        blk = {"query": (None, None, keep), "ln1": stats}
    else:
        blk = {"output": (x.copy(), None, keep)}
    cached = blk[proj][0]
    built = []
    inner = lora_model._dropout_apply

    def recording(x, keep, p, out=None):
        result = inner(x, keep, p, out)
        built.append((result, out))
        return result

    monkeypatch.setattr(lora_model, "_dropout_apply", recording)
    _, _, a_name, b_name = lora_model._proj_names(0, proj)
    want = lora_model._wants({a_name})
    lora_model._proj_fwd(state, 0, proj, x, keep)
    xd_r, _ = _dropout_expression(x, 0.3, np.random.default_rng(5))
    grads = {}
    assert lora_model._proj_grads(state, 0, proj, dy, blk, grads, want) is keep
    assert proj not in blk
    (forward, forward_out), (rebuilt, rebuilt_out) = built
    assert forward_out is None and rebuilt_out is not None
    assert np.shares_memory(rebuilt, rebuilt_out) and not np.shares_memory(rebuilt, x)
    if cached is not None:  # the cached x, dropped out in place
        assert np.shares_memory(rebuilt, cached)
    assert forward.dtype == rebuilt.dtype == dtype
    assert forward.tobytes() == rebuilt.tobytes() == xd_r.tobytes()
    du = config.lora_alpha / config.lora_rank * (dy @ P[b_name])
    expected = du.reshape(-1, config.lora_rank).T @ xd_r.reshape(-1, d)
    assert set(grads) == {a_name} and grads[a_name].tobytes() == expected.tobytes()


def _recording_gelu(monkeypatch):
    """Names of the GELU kernels called from here on, in call order."""
    calls = []
    for name in ("_gelu_fwd", "_gelu_grad"):
        inner = getattr(lora_model, name)

        def recording(x, inner=inner, name=name):
            calls.append(name)
            return inner(x)

        monkeypatch.setattr(lora_model, name, recording)
    return calls


def test_greedy_generate_computes_no_gelu_derivative(monkeypatch):
    state = init_model(SMALL, seed=0)
    calls = _recording_gelu(monkeypatch)
    greedy_generate(state, [BOS_ID, 5, 6, 7], 4)
    assert len(calls) > SMALL.n_layers and set(calls) == {"_gelu_fwd"}


def test_forward_batch_and_model_forward_compute_no_gelu_derivative(monkeypatch):
    # their logits feed no backward pass (gradcheck's finite differences
    # call forward_batch once per probed element); forward_batch's cache is
    # a decode cache: each layer's keys and values, nothing for a backward
    state = init_model(SMALL, seed=0)
    calls = _recording_gelu(monkeypatch)
    ids = np.array([[BOS_ID, 5, 6, 7], [BOS_ID, 8, 9, 10]])
    _, cache = forward_batch(state, ids)
    model_forward(state, [BOS_ID, 5, 6, 7])
    assert calls == ["_gelu_fwd"] * (2 * SMALL.n_layers)
    for blk in cache["blocks"]:
        assert set(blk) == set(ADAPTABLE_PROJECTIONS) | {"kh", "vh"}
        assert all(blk[proj] == (None, None, None) for proj in ADAPTABLE_PROJECTIONS)


def test_backward_differentiates_the_forward_needs_and_consumes_its_cache():
    state, ids, mask = _step_case(np.float64, ("query", "value"))
    needs = set(adapter_param_names(state.config))
    xf, cache = forward_hidden(state, ids, needs=needs)
    _, dxf, _ = head_loss(state, xf, ids, mask)
    assert sorted(backward_batch(state, cache, dxf.copy())) == sorted(needs)
    with pytest.raises(ValueError, match="consumed"):
        backward_batch(state, cache, dxf.copy())
    # without needs, every tensor but out_w (whose gradient is head_loss's)
    _, cache = forward_hidden(state, ids)
    assert sorted(backward_batch(state, cache, dxf.copy())) == sorted(
        set(param_names(state.config)) - {"out_w"}
    )
    # forward_batch's cache serves no backward pass, and leaves dxf as it is
    _, cache = forward_batch(state, ids)
    before = dxf.copy()
    assert backward_batch(state, cache, dxf) == {}
    assert dxf.tobytes() == before.tobytes()


def test_backward_stops_at_the_first_wanted_tensor(monkeypatch):
    state, ids, mask = _step_case(np.float64, ("query", "value"))
    calls = {"_layer_norm_bwd": 0, "_proj_dx": 0}
    for name in calls:
        inner = getattr(lora_model, name)

        def counting(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(lora_model, name, counting)
    # (layer norm backwards, projection dx's), in one block per layer: ln_f,
    # then ln2 and ln1 and all six projections per layer; only adapters: no
    # ln1 and no query, key or value dx in layer 0; only the last layer's
    # value adapter: ln_f and that layer's ln2, ff_out, ff_in and output.
    # Then one set per stage of layer 1, which runs layer 2 whole and layer
    # 1 down to the input of the stage's part that holds the wanted tensor
    adapters = set(adapter_param_names(state.config))
    for needs, counts in (
        (None, (7, 18)), (adapters, (6, 15)), ({"layers.2.lora.value.b"}, (2, 3)), (set(), (0, 0)),
        ({"layers.1.ln1.gamma"}, (4, 12)),
        ({"layers.1.attn.wk"}, (4, 9)), ({"layers.1.lora.query.a"}, (4, 9)),
        ({"layers.1.attn.bo"}, (4, 8)),
        ({"layers.1.ln2.beta"}, (3, 8)),
        ({"layers.1.ff.w1"}, (3, 7)),
        ({"layers.1.ff.b2"}, (3, 6)),
    ):
        calls.update(dict.fromkeys(calls, 0))
        xf, cache = forward_hidden(state, ids, needs=needs)
        _, dxf, _ = head_loss(state, xf, ids, mask, needs)
        grads = backward_batch(state, cache, dxf)
        assert (calls["_layer_norm_bwd"], calls["_proj_dx"]) == counts, needs
        assert needs is None or set(grads) == needs


def _traced_step_peak(needs):
    """Traced peak bytes of one default-model training step at B=16, T=256."""
    B, T = 16, 256
    config = ModelConfig(vocab_size=4100, max_seq_len=T)
    state = init_model(config, seed=0)
    ids = random_ids(np.random.default_rng(0), config, (B, T))
    if needs is not None:
        needs = set(needs(config))
    tracemalloc.start()
    try:
        trainer._batch_grads(state, ids, np.ones((B, T - 1)), needs, np.random.default_rng(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_peak_memory():
    peak = _traced_step_peak(trainable_param_names)
    # about 21.1 MiB on one worker, 16.3 on two or four (smaller layer
    # blocks); keeping a norm output beside its statistics, the residual
    # stream beside xf, xf beside dxf and two attention score buffers per
    # block peaked at 30.1 (19.3); running each layer but its attention
    # over the whole batch at once peaked at 32.6, caching each layer's
    # per-head query, key and value and its GELU derivative at 40.6,
    # caching each adapter's dropped-out input and holding dead forward
    # activations at 42.1, keeping each layer's GELU input and tanh term in
    # place of its derivative at 46, caching every projection's input and
    # holding every layer's cache and activation gradients through
    # backward at 90
    assert peak < 22 * 2**20


def test_full_parameter_step_peak_memory():
    """A step that differentiates every tensor (``needs=None``) caches
    the inputs of output and ff_out, every adapter's u and both norms'
    statistics in every layer, but no norm output (the inputs of query,
    key, value and ff_in), no per-head array and no GELU derivative."""
    peak = _traced_step_peak(None)
    # about 28.7 MiB on one worker, 30.8 on two or four (two head blocks at
    # once); caching the norm outputs, keeping the residual stream beside
    # xf, xf beside dxf and two attention score buffers per block peaked at
    # 39.7 (35.7); running each layer but its attention over the whole
    # batch at once peaked at 40.7, caching the per-head query, key and
    # value and the GELU derivative at 48.7
    assert peak < 32 * 2**20


def test_forward_peak_memory():
    """The forward pass of a default adapters-only step holds, beside its
    cache, little more than one layer's working set: no per-head array and
    no GELU derivative cached, GELU in place, layer norms over row chunks,
    no cached input in any layer (each keeps its ln1 statistics instead),
    xf written over the residual stream, and every other activation living
    one block of whole sequences at a time."""
    B, T = 16, 256
    config = ModelConfig(vocab_size=4100, max_seq_len=T)
    state = init_model(config, seed=0)
    ids = random_ids(np.random.default_rng(0), config, (B, T))
    needs = set(trainable_param_names(config))
    h1_bytes = B * T * config.d_ff * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        out = forward_hidden(state, ids, rng=np.random.default_rng(1), needs=needs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    # measured 2.75x and 1.90x, 0.85x above what it holds, on one worker
    # (2.23x-2.27x, 0.34x-0.37x above, on two or four); caching layer 0's
    # ln1 output in place of its statistics read 2.74x and 1.89x; keeping
    # layer 1's and 2's ln1 output beside its statistics and the residual
    # stream beside xf read 2.99x and 2.14x (2.65x on two or four); running
    # each layer but its attention over the whole batch at once read 3.26x
    # and 2.14x (1.12x above), caching the per-head query, key and value
    # and the GELU derivative 6.83x and 5.64x (1.18x above), caching each
    # adapter's dropped-out input and holding dead activations to the next
    # layer 8.70x and 6.02x (2.68x above), and keeping each layer's GELU
    # input and tanh term, and whole-batch layer-norm temporaries, 10.58x
    # and 8.02x
    assert peak < 2.95 * h1_bytes
    assert held < 2.0 * h1_bytes
    assert peak - held < 1.0 * h1_bytes


@pytest.mark.parametrize("workers", [1, 4])
def test_peak_memory_bounds_hold_at_one_and_four_workers(monkeypatch, workers):
    """The three guards above (which run on the host's worker count) on
    one worker, as where OpenBLAS cannot be pinned, and on four: each
    layer's blocks shrink to keep the bytes in flight, and the head runs
    ``HEAD_WORKERS`` blocks at once, adding each ``d out_w`` part as soon
    as the parts before it are in."""
    _use_workers(monkeypatch, workers)
    pool = _recording_pool(monkeypatch)
    test_training_step_peak_memory()
    test_full_parameter_step_peak_memory()
    test_forward_peak_memory()
    assert max(pool, default=0) == workers - 1


# ---------------------------------------------------------------------------
# Vocabulary


def test_build_vocab_orders_by_frequency_then_token():
    tok = CjkCharTokenizer()
    vocab = build_vocab(["b b a", "a c a"], tok)
    assert vocab.tokens == SPECIAL_TOKENS + ("a", "b", "c")


def test_build_vocab_cap():
    tok = CjkCharTokenizer()
    vocab = build_vocab(["b b a", "a c a"], tok, cap=2)
    assert vocab.tokens == SPECIAL_TOKENS + ("a", "b")
    assert vocab.encode(["c"]) == [UNK_ID]


@pytest.mark.parametrize("cap", [0, -1, -5])
def test_build_vocab_rejects_a_cap_below_one(cap):
    with pytest.raises(ValueError, match="vocab cap"):
        build_vocab(["b b a", "a c a"], CjkCharTokenizer(), cap=cap)


def test_vocab_encode_decode():
    vocab = Vocab(tokens=SPECIAL_TOKENS + ("脉", "象"))
    assert vocab.encode(["脉", "象", "未知"]) == [4, 5, UNK_ID]
    assert vocab.decode([4, 5]) == ["脉", "象"]


def test_vocab_requires_special_prefix():
    with pytest.raises(ValueError):
        Vocab(tokens=("a", "b"))


def test_vocab_rejects_duplicate_tokens(tmp_path):
    with pytest.raises(ValueError, match="duplicate token '脉'"):
        Vocab(tokens=SPECIAL_TOKENS + ("脉", "舌", "脉"))
    with pytest.raises(ValueError, match="duplicate token '<pad>'"):
        Vocab(tokens=SPECIAL_TOKENS + ("<pad>",))
    path = tmp_path / "dup.vocab"
    path.write_text("DFVOCAB1\n脉\n舌\n脉\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate token '脉'"):
        load_vocab(path)


@pytest.mark.parametrize("blank", ["", "  ", "\t", "\u3000"])
def test_load_vocab_rejects_blank_lines(tmp_path, blank):
    path = tmp_path / "blank.vocab"
    path.write_text(f"DFVOCAB1\n脉\n{blank}\n舌\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"blank\.vocab:3: blank vocab token"):
        load_vocab(path)


def test_vocab_round_trip(tmp_path):
    tok = CjkCharTokenizer()
    vocab = build_vocab(["脉 象 弦 滑", "bm25 score"], tok)
    path = tmp_path / "model.vocab"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


def test_vocab_magic_checked(tmp_path):
    path = tmp_path / "bad.vocab"
    path.write_text("WRONG\nx\n", encoding="utf-8")
    with pytest.raises(MagicMismatchError):
        load_vocab(path)


def test_detokenize_spaces_only_between_latin_runs():
    assert detokenize(["中", "医", "bm25", "score", "脉"]) == "中医bm25 score脉"
    assert detokenize([]) == ""


# ---------------------------------------------------------------------------
# Checkpoints


def _assert_states_equal(a, b):
    assert a.config == b.config
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert a.params[name].tobytes() == b.params[name].tobytes()


def test_checkpoint_round_trip(tmp_path):
    state = init_model(SMALL, seed=7)
    opt = {
        name: (
            np.full(state.params[name].shape, 0.25, dtype=np.float32),
            np.full(state.params[name].shape, 0.5, dtype=np.float32),
        )
        for name in adapter_param_names(SMALL)
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, state, "pretrain", step=40, opt_state=opt)
    loaded, phase, step, opt_loaded = load_checkpoint(path)
    _assert_states_equal(loaded, state)
    assert (phase, step) == ("pretrain", 40)
    assert set(opt_loaded) == set(opt)
    for name, (m, v) in opt.items():
        assert np.array_equal(opt_loaded[name][0], m)
        assert np.array_equal(opt_loaded[name][1], v)


def test_checkpoint_without_optimizer_state(tmp_path):
    state = init_model(SMALL, seed=7)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, state, "init")
    _, phase, step, opt = load_checkpoint(path)
    assert (phase, step, opt) == ("init", 0, {})


def test_checkpoint_resave_is_byte_identical(tmp_path):
    state = init_model(SMALL, seed=7)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, state, "sft", step=3)
    loaded, phase, step, opt = load_checkpoint(p1)
    save_checkpoint(p2, loaded, phase, step, opt or None)
    assert p1.read_bytes() == p2.read_bytes()


GOLDEN_CONFIG = ModelConfig(
    vocab_size=8, d_model=4, n_layers=2, n_heads=2, d_ff=6, max_seq_len=5,
    lora_rank=2, lora_alpha=4.0, lora_dropout=0.05,
    adapted_projections=ADAPTABLE_PROJECTIONS,
)
GOLDEN_CONFIG_JSON = (
    '{"adapted_projections":["query","key","value","output","ff_in","ff_out"],'
    '"d_ff":6,"d_model":4,"lora_alpha":4.0,"lora_dropout":0.05,"lora_rank":2,'
    '"max_seq_len":5,"n_heads":2,"n_layers":2,"vocab_size":8}'
)
# The DFCKPT2 file, 4,405 bytes.  Its tensor bytes are the float payloads of
# the 9,134-byte DFCKPT1 file (SHA-256 ea06d862...) in the same order, without
# the name and shape that came before each one; only the flags are new.
GOLDEN_CHECKPOINT_SHA256 = "46510c1cc65eadf1e1b65ffeb3217f3f2516fb8332381d673017f485af84e475"


def test_checkpoint_bytes_match_the_golden_file(tmp_path):
    # pins the config JSON, the tensor order, every shape and the init draws
    assert GOLDEN_CONFIG.to_json() == GOLDEN_CONFIG_JSON
    state = init_model(GOLDEN_CONFIG, seed=11)
    rng = np.random.default_rng(12)
    opt = {
        name: (rng.normal(size=state.params[name].shape), rng.random(state.params[name].shape))
        for name in adapter_param_names(GOLDEN_CONFIG)
    }
    path = tmp_path / "golden.ckpt"
    save_checkpoint(path, state, "pretrain", step=9, opt_state=opt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT_SHA256


def test_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, init_model(SMALL, seed=0), "init")
    data = path.read_bytes()
    path.write_bytes(b"NOTCKPT" + data[7:])
    with pytest.raises(MagicMismatchError):
        load_checkpoint(path)


def test_checkpoint_of_the_previous_format_is_magic_mismatch(tmp_path):
    path = tmp_path / "old.ckpt"
    body = pack_text("init") + struct.pack("<Q", 0) + pack_text(SMALL.to_json())
    write_artifact(path, b"DFCKPT1", body + struct.pack("<I", 0))
    with pytest.raises(MagicMismatchError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, init_model(SMALL, seed=0), "init")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 30])
    with pytest.raises(TruncatedArtifactError):
        load_checkpoint(path)


def test_checkpoint_bit_flip(tmp_path):
    path = tmp_path / "flip.ckpt"
    save_checkpoint(path, init_model(SMALL, seed=0), "init")
    data = bytearray(path.read_bytes())
    data[-50] ^= 0xFF  # inside the last tensor's float payload
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatchError):
        load_checkpoint(path)


@pytest.mark.parametrize("where", ["adapter", "moment", "moments-of-no-tensor"])
def test_save_checkpoint_rejects_a_tensor_off_the_table_and_writes_nothing(tmp_path, where):
    # the body gives no shapes, so a transposed tensor of the same size
    # would load silently as the table's shape
    state = init_model(SMALL, seed=0)
    name = "layers.0.lora.query.a"
    shape = state.params[name].shape
    moments = {name: (np.zeros(shape), np.zeros(shape))}
    problem = f"tensor '{name}' has shape {shape[::-1]}, expected {shape}"
    if where == "adapter":
        state.params[name] = state.params[name].T
    elif where == "moment":
        moments[name] = (moments[name][0], moments[name][1].T)
    else:
        moments["layers.0.lora.nothing.a"] = moments[name]
        problem = "moments of no tensor: ['layers.0.lora.nothing.a']"
    with pytest.raises(ValueError, match=re.escape(problem)):
        save_checkpoint(tmp_path / "x.ckpt", state, "sft", 1, moments)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_phase_validation(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.ckpt", init_model(SMALL, seed=0), "warmup")
