from __future__ import annotations

import math

import numpy as np
import pytest

from domainforge.corpus_store import CjkCharTokenizer
from domainforge.errors import NonFiniteLossError
from domainforge.lora_model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ModelConfig,
    adapter_param_names,
    backward_batch,
    build_vocab,
    forward_batch,
    forward_hidden,
    head_loss,
    init_model,
    masked_next_token_loss,
    param_names,
    trainable_param_names,
)
from domainforge.trainer import (
    SftExample,
    TrainConfig,
    chunk_token_stream,
    encode_sft_example,
    finetune,
    load_sft_examples,
    pretrain,
    save_loss_history,
    _adam_step,
    _pad_batch,
)

TOK = CjkCharTokenizer()

# 32 sequences of one repeated pattern: each text is 14 tokens, so with the
# document separator every text fills exactly one 15-id chunk
PATTERN_TEXTS = ["a b c d e f g h a b c d e f"] * 32


def tiny_setup(texts, seed=3, **config_overrides):
    vocab = build_vocab(texts, TOK)
    defaults = dict(
        vocab_size=len(vocab),
        d_model=16,
        n_layers=1,
        n_heads=2,
        d_ff=32,
        max_seq_len=16,
        lora_rank=2,
        lora_alpha=4.0,
        lora_dropout=0.0,
        adapted_projections=("query", "value"),
    )
    defaults.update(config_overrides)
    config = ModelConfig(**defaults)
    return vocab, config, init_model(config, seed=seed)


def params_bytes(state, names):
    return {n: state.params[n].tobytes() for n in names}


# ---------------------------------------------------------------------------
# Data preparation


def test_chunk_token_stream_splits_with_separators():
    vocab = build_vocab(["a b c d e"], TOK)
    a, b, c, d, e = vocab.encode(["a", "b", "c", "d", "e"])
    seqs = chunk_token_stream(["a b c d e"], vocab, TOK, chunk_len=2)
    assert [s.tolist() for s in seqs] == [
        [BOS_ID, a, b],
        [BOS_ID, c, d],
        [BOS_ID, e, EOS_ID],
    ]


def test_chunk_token_stream_skips_empty_texts():
    vocab = build_vocab(["a b"], TOK)
    seqs = chunk_token_stream(["", "a b", ""], vocab, TOK, chunk_len=8)
    assert len(seqs) == 1
    assert seqs[0].tolist() == [BOS_ID] + vocab.encode(["a", "b"]) + [EOS_ID]


def test_encode_sft_example_mask_covers_response_and_eos():
    vocab = build_vocab(["a b c d e f"], TOK)
    ids, mask = encode_sft_example(
        SftExample(prompt="a b", response="c d"), vocab, TOK, max_seq_len=16
    )
    assert ids.tolist() == [BOS_ID] + vocab.encode(["a", "b", "c", "d"]) + [EOS_ID]
    assert mask.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]


def test_encode_sft_example_truncates_prompt_from_left():
    vocab = build_vocab(["a b c d e f g h"], TOK)
    example = SftExample(prompt="a b c d e f", response="g h")
    ids, mask = encode_sft_example(example, vocab, TOK, max_seq_len=7)
    # room for 6 ids after BOS; the response needs 3, the prompt keeps its tail
    assert ids.tolist() == [BOS_ID] + vocab.encode(["d", "e", "f", "g", "h"]) + [EOS_ID]
    assert mask.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert len(ids) == 7


def test_encode_sft_example_rejects_overlong_response():
    vocab = build_vocab(["a b c d e f g h"], TOK)
    example = SftExample(prompt="a", response="b c d e f g h")
    with pytest.raises(ValueError) as err:
        encode_sft_example(example, vocab, TOK, max_seq_len=6)
    assert "response" in str(err.value)
    assert "'a'" in str(err.value)  # names the offending example


def test_sft_example_validation():
    with pytest.raises(ValueError):
        SftExample(prompt=" ", response="x")
    with pytest.raises(ValueError):
        SftExample(prompt="x", response="")


def test_load_sft_examples(tmp_path):
    path = tmp_path / "sft.jsonl"
    path.write_text(
        '{"prompt": "问", "response": "答"}\n\n{"prompt": "q", "response": "a"}\n',
        encoding="utf-8",
    )
    assert load_sft_examples(path) == [
        SftExample("问", "答"),
        SftExample("q", "a"),
    ]


def test_pad_batch_shapes_and_fill():
    seqs = [np.array([1, 4, 5]), np.array([1, 4, 5, 6, 7])]
    masks = [np.ones(2), np.ones(4)]
    ids, mask = _pad_batch(seqs, masks)
    assert ids.shape == (2, 5)
    assert mask.shape == (2, 4)
    assert ids[0].tolist() == [1, 4, 5, PAD_ID, PAD_ID]
    assert mask[0].tolist() == [1.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# Training basics


def test_pretrain_zero_epochs_changes_nothing():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    tc = TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=0, batch_size=8)
    result = pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    assert result.step == 0
    assert result.loss_history == ()
    assert params_bytes(result.state, state.params) == params_bytes(
        state, state.params
    )


def test_training_is_bitwise_deterministic():
    vocab, config, state = tiny_setup(PATTERN_TEXTS, lora_dropout=0.1)
    tc = TrainConfig(
        phase="pretrain", learning_rate=1e-2, epochs=2, batch_size=8, seed=11
    )
    one = pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    two = pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    assert one.loss_history == two.loss_history
    assert params_bytes(one.state, state.params) == params_bytes(
        two.state, state.params
    )


def test_training_freezes_base_and_moves_adapters():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    tc = TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=2, batch_size=8)
    result = pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    adapters = set(adapter_param_names(config))
    for name in param_names(config):
        before = state.params[name].tobytes()
        after = result.state.params[name].tobytes()
        if name in adapters:
            assert after != before, name
        else:
            assert after == before, name
    census = sum(result.state.params[n].size for n in adapters)
    assert census == 2 * (16 + 16) * 2  # query and value, r = 2, d = 16


def test_training_does_not_mutate_input_state():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    before = params_bytes(state, state.params)
    tc = TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=1, batch_size=8)
    pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    assert params_bytes(state, state.params) == before


def test_pretrain_smoke_matches_regression_baseline():
    # 32 sequences, batches of 8, 50 epochs: exactly 200 optimizer steps
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    tc = TrainConfig(
        phase="pretrain", learning_rate=1e-2, epochs=50, batch_size=8,
        seed=3, train_embeddings=True,
    )
    result = pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    assert result.step == 200
    losses = [loss for _, _, loss in result.loss_history]
    assert all(math.isfinite(l) for l in losses)
    assert losses[-1] < losses[0]
    assert losses[0] == pytest.approx(2.547541379928589, rel=1e-6)
    assert losses[-1] == pytest.approx(0.006145709194242954, rel=1e-6)


def test_resume_at_epoch_boundary_is_bitwise_identical():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    straight = pretrain(
        state, PATTERN_TEXTS, vocab, TOK,
        TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=4, batch_size=8),
    )
    half = pretrain(
        state, PATTERN_TEXTS, vocab, TOK,
        TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=2, batch_size=8),
    )
    resumed = pretrain(
        half.state, PATTERN_TEXTS, vocab, TOK,
        TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=4, batch_size=8),
        start_step=half.step,
        opt_state=half.opt_state,
    )
    assert params_bytes(resumed.state, state.params) == params_bytes(
        straight.state, state.params
    )
    assert half.loss_history + resumed.loss_history == straight.loss_history


def test_resume_off_boundary_rejected():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    tc = TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=2, batch_size=8)
    with pytest.raises(ValueError):
        pretrain(state, PATTERN_TEXTS, vocab, TOK, tc, start_step=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf embeddings on purpose
def test_nonfinite_loss_raises_with_context():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    state.params["tok_emb"][:] = np.inf
    tc = TrainConfig(phase="pretrain", learning_rate=1e-2, epochs=1, batch_size=8)
    with pytest.raises(NonFiniteLossError) as err:
        pretrain(state, PATTERN_TEXTS, vocab, TOK, tc)
    assert "step" in str(err.value)
    assert "pretrain" in str(err.value)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(phase="warmup", learning_rate=1e-3, epochs=1)
    with pytest.raises(ValueError):
        TrainConfig(phase="sft", learning_rate=0.0, epochs=1)
    with pytest.raises(ValueError):
        TrainConfig(phase="sft", learning_rate=1e-3, epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(phase="sft", learning_rate=1e-3, epochs=1, batch_size=0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -1e-3])
def test_train_config_rejects_a_non_finite_or_negative_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(phase="pretrain", learning_rate=lr, epochs=1)


@pytest.mark.parametrize("clip", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_train_config_rejects_a_negative_or_non_finite_grad_clip(clip):
    with pytest.raises(ValueError, match="grad_clip"):
        TrainConfig(phase="pretrain", learning_rate=1e-3, epochs=1, grad_clip=clip)


def test_zero_grad_clip_means_no_clipping():
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([30.0, 40.0, 0.0])}  # norm 50
    steps = {}
    for clip in (0.0, 100.0, 1.0):
        opt = {"w": (np.zeros(3), np.zeros(3))}
        p = {k: v.copy() for k, v in params.items()}
        _adam_step(p, grads, opt, ["w"], 1e-3, 1, clip)
        steps[clip] = opt["w"][0].copy()  # the first moment takes the clipped gradient
    assert steps[0.0].tobytes() == steps[100.0].tobytes()
    assert not np.array_equal(steps[1.0], steps[0.0])


# ---------------------------------------------------------------------------
# Instruction tuning


def test_finetune_single_example_loss_strictly_decreases():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    example = SftExample(prompt="a b c", response="d e f g")
    tc = TrainConfig(phase="sft", learning_rate=5e-3, epochs=100, batch_size=1,
                     seed=0)
    result = finetune(state, [example], vocab, TOK, tc)
    losses = [loss for _, _, loss in result.loss_history]
    assert len(losses) == 100
    assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
    assert losses[0] == pytest.approx(2.5231409072875977, rel=1e-6)
    assert losses[-1] == pytest.approx(2.3658204078674316, rel=1e-6)


def test_finetune_zero_epochs_changes_nothing():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    example = SftExample(prompt="a b", response="c d")
    tc = TrainConfig(phase="sft", learning_rate=5e-3, epochs=0, batch_size=1)
    result = finetune(state, [example], vocab, TOK, tc)
    assert result.step == 0
    assert params_bytes(result.state, state.params) == params_bytes(
        state, state.params
    )


def test_finetune_requires_examples():
    vocab, config, state = tiny_setup(PATTERN_TEXTS)
    tc = TrainConfig(phase="sft", learning_rate=5e-3, epochs=1)
    with pytest.raises(ValueError):
        finetune(state, [], vocab, TOK, tc)


def test_prompt_position_targets_never_reach_gradients():
    vocab, config, state = tiny_setup(PATTERN_TEXTS, seed=9)
    rng = np.random.default_rng(0)
    ids = rng.integers(4, config.vocab_size, size=(2, 8), dtype=np.int64)
    mask = np.zeros((2, 7))
    mask[:, 4:] = 1.0
    logits, _ = forward_batch(state, ids)
    _, dlogits = masked_next_token_loss(logits, ids, mask)
    perturbed = ids.copy()
    # rewrite every prompt-side target to a different valid id
    perturbed[:, 1:5] = ((perturbed[:, 1:5] - 4 + 1) % (config.vocab_size - 4)) + 4
    assert np.all(perturbed[:, 1:5] != ids[:, 1:5])
    loss_p, dlogits_p = masked_next_token_loss(logits, perturbed, mask)
    loss_b, _ = masked_next_token_loss(logits, ids, mask)
    assert loss_p == loss_b
    assert dlogits_p.tobytes() == dlogits.tobytes()
    grads, grads_p = {}, {}
    for target_ids, out in ((ids, grads), (perturbed, grads_p)):
        xf, cache = forward_hidden(state, ids)  # backward_batch consumes its cache
        loss, dxf, head_grads = head_loss(state, xf, target_ids, mask)
        assert loss == loss_b
        out.update(head_grads)
        out.update(backward_batch(state, cache, dxf))
    assert "out_w" in grads
    for name in grads:
        assert grads[name].tobytes() == grads_p[name].tobytes()


def test_adapter_b_tensors_receive_gradient_despite_zero_init():
    vocab, config, state = tiny_setup(PATTERN_TEXTS, seed=2)
    rng = np.random.default_rng(1)
    ids = rng.integers(4, config.vocab_size, size=(2, 6), dtype=np.int64)
    xf, cache = forward_hidden(state, ids)
    _, dxf, _ = head_loss(state, xf, ids, np.ones((2, 5)))
    grads = backward_batch(state, cache, dxf)
    for name in adapter_param_names(config):
        if name.endswith(".b"):
            assert np.any(grads[name] != 0.0), name


# ---------------------------------------------------------------------------
# Loss history


def test_save_loss_history_round_trips_floats(tmp_path):
    history = [(1, "pretrain", 2.547541379928589), (2, "sft", 0.25)]
    path = tmp_path / "loss.tsv"
    save_loss_history(history, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    parsed = []
    for line in lines:
        step, phase, loss = line.split("\t")
        parsed.append((int(step), phase, float(loss)))
    assert parsed == history
