"""Adam training loops for the toy decoder.

Two phases: continued pretraining on a document stream and instruction
tuning on prompt/response pairs.  Only adapter tensors (optionally plus the
embeddings) receive updates; everything is seeded so a (seed, data, config)
triple reproduces checkpoints bitwise, and runs can resume from a saved
checkpoint at epoch boundaries without changing the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifact import write_lines
from .corpus_store import Tokenizer, as_str, read_jsonl
from .errors import NonFiniteLossError
from .lora_model import (
    ADAPTABLE_PROJECTIONS,
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ModelConfig,
    ModelState,
    Vocab,
    backward_batch,
    forward_batch,
    forward_hidden,
    head_loss,
    init_model,
    masked_next_token_loss,
    param_names,
    trainable_param_names,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_BATCH_SIZE = 128
DEFAULT_PRETRAIN_LR = 1e-4
DEFAULT_PRETRAIN_EPOCHS = 2
DEFAULT_SFT_LR = 5e-5
DEFAULT_SFT_EPOCHS = 3
DEFAULT_GRAD_CLIP = 1.0

DROPOUT_STREAM = 7  # rng lane for adapter dropout, keyed by global step


@dataclass(frozen=True)
class TrainConfig:
    """One training phase's settings.  ``learning_rate`` must be positive
    and finite.  ``grad_clip`` caps the global gradient norm before each
    Adam step; it must be finite and >= 0, and 0 means no clipping."""

    phase: str
    learning_rate: float
    epochs: int
    batch_size: int = DEFAULT_BATCH_SIZE
    seed: int = 0
    grad_clip: float = DEFAULT_GRAD_CLIP
    train_embeddings: bool = False

    def __post_init__(self):
        if self.phase not in ("pretrain", "sft"):
            raise ValueError(f"phase must be 'pretrain' or 'sft', got {self.phase!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError(f"grad_clip must be >= 0 and finite, got {self.grad_clip}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainResult:
    state: ModelState
    step: int
    loss_history: tuple[tuple[int, str, float], ...]
    opt_state: dict[str, tuple[np.ndarray, np.ndarray]]


def save_loss_history(
    history: Iterable[tuple[int, str, float]], path: str | Path
) -> None:
    lines = [f"{step}\t{phase}\t{loss!r}" for step, phase, loss in history]
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# Data preparation

def chunk_token_stream(
    texts: Iterable[str], vocab: Vocab, tokenizer: Tokenizer, chunk_len: int
) -> list[np.ndarray]:
    """Concatenate encoded documents (EOS between them) and split into
    BOS-prefixed training sequences of at most chunk_len + 1 ids."""
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    stream: list[int] = []
    for text in texts:
        ids = vocab.encode(tokenizer.tokenize(text))
        if ids:
            stream.extend(ids)
            stream.append(EOS_ID)
    sequences = []
    for start in range(0, len(stream), chunk_len):
        chunk = stream[start : start + chunk_len]
        sequences.append(np.asarray([BOS_ID] + chunk, dtype=np.int64))
    return sequences


@dataclass(frozen=True)
class SftExample:
    prompt: str
    response: str

    def __post_init__(self):
        if not self.prompt.strip():
            raise ValueError("prompt must be non-empty")
        if not self.response.strip():
            raise ValueError("response must be non-empty")


def load_sft_examples(path: str | Path) -> list[SftExample]:
    """Read JSONL lines of {"prompt": ..., "response": ...}, both strings."""
    return read_jsonl(
        path,
        lambda obj: SftExample(
            prompt=as_str("prompt", obj["prompt"]), response=as_str("response", obj["response"])
        ),
    )


def encode_sft_example(
    example: SftExample,
    vocab: Vocab,
    tokenizer: Tokenizer,
    max_seq_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode [BOS] prompt response [EOS]; only response ids (and the EOS)
    are loss targets.  Over-long prompts are truncated from the left; an
    over-long response is rejected since truncating targets would train on
    a corrupted answer."""
    p_ids = vocab.encode(tokenizer.tokenize(example.prompt))
    r_ids = vocab.encode(tokenizer.tokenize(example.response)) + [EOS_ID]
    room = max_seq_len - 1 - len(r_ids)
    if room < 0:
        raise ValueError(
            f"response needs {len(r_ids)} ids but only {max_seq_len - 1} fit; "
            f"prompt starts {example.prompt[:40]!r}"
        )
    if len(p_ids) > room:
        p_ids = p_ids[len(p_ids) - room :]
    ids = np.asarray([BOS_ID] + p_ids + r_ids, dtype=np.int64)
    mask = np.zeros(len(ids) - 1)
    m = len(p_ids)
    mask[m : m + len(r_ids)] = 1.0
    return ids, mask


def _pad_batch(
    seqs: Sequence[np.ndarray], masks: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), width - 1))
    for row, (s, m) in enumerate(zip(seqs, masks)):
        ids[row, : len(s)] = s
        mask[row, : len(m)] = m
    return ids, mask


# ---------------------------------------------------------------------------
# Optimizer

def init_opt_state(
    state: ModelState, trainable: Sequence[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {
        name: (np.zeros_like(state.params[name]), np.zeros_like(state.params[name]))
        for name in trainable
    }


def _adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    opt_state: dict[str, tuple[np.ndarray, np.ndarray]],
    trainable: Sequence[str],
    lr: float,
    t: int,
    grad_clip: float,
) -> None:
    sq = 0.0
    for name in trainable:
        g = grads[name]
        sq += float((g.astype(np.float64) ** 2).sum())
    total_norm = math.sqrt(sq)
    if not math.isfinite(total_norm):
        raise NonFiniteLossError(f"non-finite gradient norm at adam step {t}")
    coef = 1.0
    if grad_clip > 0.0 and total_norm > grad_clip:
        coef = grad_clip / total_norm
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name in trainable:
        g = grads[name] * coef if coef != 1.0 else grads[name]
        m, v = opt_state[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params[name] -= (lr * update).astype(params[name].dtype)


# ---------------------------------------------------------------------------
# The loop

def _batch_grads(
    state: ModelState,
    ids: np.ndarray,
    mask: np.ndarray,
    needs: set[str],
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Loss and gradients of one training batch (no gradients when the loss
    is not finite).  The forward pass caches only what the gradients in
    ``needs`` read, and ``backward_batch`` frees it layer by layer; the
    cache and the activation gradients are locals here, so nothing of them
    outlives the batch.  One (batch, time, d_model) buffer serves the whole
    step: the forward writes xf over the residual stream, ``head_loss``
    writes ``dxf`` over xf, and ``backward_batch`` writes the residual
    stream's gradient into ``dxf``."""
    xf, cache = forward_hidden(state, ids, rng=rng, needs=needs)
    loss, dxf, grads = head_loss(state, xf, ids, mask, needs)
    if not math.isfinite(loss):
        return loss, None
    grads.update(backward_batch(state, cache, dxf))
    return loss, grads


def _run_training(
    state: ModelState,
    sequences: Sequence[np.ndarray],
    masks: Sequence[np.ndarray],
    config: TrainConfig,
    start_step: int = 0,
    opt_state: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> TrainResult:
    if not sequences:
        raise ValueError("no training sequences")
    state = state.copy()
    trainable = trainable_param_names(state.config, config.train_embeddings)
    if not trainable:
        raise ValueError("no trainable tensors (no adapters and embeddings frozen)")
    steps_per_epoch = math.ceil(len(sequences) / config.batch_size)
    if start_step % steps_per_epoch != 0:
        raise ValueError(
            f"start_step {start_step} is not an epoch boundary "
            f"(steps_per_epoch={steps_per_epoch})"
        )
    start_epoch = start_step // steps_per_epoch
    if opt_state is None:
        opt_state = init_opt_state(state, trainable)
    else:
        opt_state = {k: (m.copy(), v.copy()) for k, (m, v) in opt_state.items()}
        missing = set(trainable) - set(opt_state)
        if missing:
            raise ValueError(f"optimizer state missing tensors: {sorted(missing)}")

    step = start_step
    history: list[tuple[int, str, float]] = []
    needs = set(trainable)
    for epoch in range(start_epoch, config.epochs):
        order = np.random.default_rng([config.seed, epoch, 0]).permutation(
            len(sequences)
        )
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            ids, mask = _pad_batch(
                [sequences[j] for j in batch], [masks[j] for j in batch]
            )
            drop_rng = np.random.default_rng([config.seed, DROPOUT_STREAM, step])
            loss, grads = _batch_grads(state, ids, mask, needs, drop_rng)
            if grads is None:
                raise NonFiniteLossError(
                    f"loss {loss!r} at step {step + 1} "
                    f"(phase {config.phase}, epoch {epoch}, lr {config.learning_rate})"
                )
            step += 1
            _adam_step(
                state.params, grads, opt_state, trainable,
                config.learning_rate, step, config.grad_clip,
            )
            history.append((step, config.phase, loss))
    return TrainResult(
        state=state, step=step, loss_history=tuple(history), opt_state=opt_state
    )


def pretrain(
    state: ModelState,
    texts: Iterable[str],
    vocab: Vocab,
    tokenizer: Tokenizer,
    config: TrainConfig,
    start_step: int = 0,
    opt_state: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> TrainResult:
    """Causal-LM training over chunked documents; padded targets are masked."""
    chunk_len = state.config.max_seq_len - 1
    sequences = chunk_token_stream(texts, vocab, tokenizer, chunk_len)
    if not sequences:
        raise ValueError("no pretraining data after tokenization")
    masks = [np.ones(len(s) - 1) for s in sequences]
    return _run_training(state, sequences, masks, config, start_step, opt_state)


def finetune(
    state: ModelState,
    examples: Sequence[SftExample],
    vocab: Vocab,
    tokenizer: Tokenizer,
    config: TrainConfig,
    start_step: int = 0,
    opt_state: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> TrainResult:
    """Instruction tuning; the loss reads only response positions."""
    if not examples:
        raise ValueError("no finetuning examples")
    encoded = [
        encode_sft_example(ex, vocab, tokenizer, state.config.max_seq_len)
        for ex in examples
    ]
    sequences = [ids for ids, _ in encoded]
    masks = [mask for _, mask in encoded]
    return _run_training(state, sequences, masks, config, start_step, opt_state)


# ---------------------------------------------------------------------------
# Finite-difference gradient check

GRADCHECK_FD_STEP = 1e-4
GRADCHECK_TOLERANCE = 1e-5


@dataclass(frozen=True)
class GradCheckEntry:
    loss_mode: str
    tensor: str
    rel_err: float


@dataclass(frozen=True)
class GradCheckReport:
    entries: tuple[GradCheckEntry, ...]
    elapsed_seconds: float

    @property
    def max_rel_err(self) -> float:
        return max(e.rel_err for e in self.entries)

    def passed(self, tolerance: float = GRADCHECK_TOLERANCE) -> bool:
        return self.max_rel_err < tolerance

    def format(self) -> str:
        lines = [
            f"{e.loss_mode}\t{e.tensor}\t{e.rel_err:.3e}" for e in self.entries
        ]
        lines.append(
            f"max_rel_err={self.max_rel_err:.3e} "
            f"elapsed={self.elapsed_seconds:.1f}s "
            f"passed={self.passed()}"
        )
        return "\n".join(lines)


def _gradcheck_model(seed: int) -> ModelState:
    config = ModelConfig(
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
    state = init_model(config, seed, dtype=np.float64)
    # perturb every tensor so no gradient sits at a symmetric zero (B and the
    # biases start at 0, which would hide sign errors from the check)
    rng = np.random.default_rng([seed, 1])
    for name in param_names(config):
        state.params[name] = state.params[name] + rng.normal(
            0.0, 0.1, state.params[name].shape
        )
    return state


def gradient_check(seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against float64 central differences on a
    small model, for both the plain and the response-masked loss.  Every
    parameter element is probed."""
    t0 = time.perf_counter()
    state = _gradcheck_model(seed)
    rng = np.random.default_rng([seed, 2])
    ids = rng.integers(4, state.config.vocab_size, size=(2, 8), dtype=np.int64)
    full_mask = np.ones((2, 7))
    sft_mask = np.zeros((2, 7))
    sft_mask[:, 3:] = 1.0  # three conditioning targets masked out per row

    modes = (("clm", full_mask), ("sft", sft_mask))

    # analytic: the training step's own path (the model has no dropout);
    # finite differences: the reference forward_batch ->
    # masked_next_token_loss, one forward serving both masks
    analytic = [_batch_grads(state, ids, mask, None, None)[1] for _, mask in modes]

    def losses_at() -> list[float]:
        lg, _ = forward_batch(state, ids)
        return [masked_next_token_loss(lg, ids, mask)[0] for _, mask in modes]

    names = param_names(state.config)
    fds: dict[str, np.ndarray] = {}  # (mode, element) per tensor
    for name in names:
        flat = state.params[name].reshape(-1)
        fd = np.zeros((len(modes), flat.size))
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + GRADCHECK_FD_STEP
            up = losses_at()
            flat[j] = orig - GRADCHECK_FD_STEP
            down = losses_at()
            flat[j] = orig
            fd[:, j] = [(u - d) / (2.0 * GRADCHECK_FD_STEP) for u, d in zip(up, down)]
        fds[name] = fd

    entries: list[GradCheckEntry] = []
    for k, (mode, _) in enumerate(modes):
        for name in names:
            a = analytic[k][name]
            fd = fds[name][k].reshape(a.shape)
            scale = max(float(np.abs(a).max()), float(np.abs(fd).max()))
            diff = float(np.abs(a - fd).max())
            rel = diff / scale if scale > 1e-12 else diff
            entries.append(GradCheckEntry(loss_mode=mode, tensor=name, rel_err=rel))
    return GradCheckReport(
        entries=tuple(entries), elapsed_seconds=time.perf_counter() - t0
    )
