"""Toy causal decoder with low-rank adapters.

Adapted linear layers compute h = (W + (alpha/r)*B*A) x with W frozen, B zero
at init.  The decoder (embeddings, pre-norm attention + feed-forward blocks,
causal mask) is plain numpy with hand-derived reverse-mode gradients; the
finite-difference suite in the trainer is the correctness contract.

Also home to the token vocabulary and the checkpoint format: an artifact
envelope (see ``artifact.py``) under magic ``DFCKPT2`` whose body holds the
phase tag, step, config JSON, one optimizer-moment flag byte per
``param_shapes`` tensor, every tensor as float32 in table order, then the
two moments of each flagged tensor.  The body names no tensor and gives no
shape: both come from ``param_shapes(config)``.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import struct
import threading
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifact import Cursor, load_artifact, pack_text, read_text, write_artifact, write_lines
from .corpus_store import Tokenizer, _is_cjk
from .errors import MagicMismatchError

CHECKPOINT_MAGIC = b"DFCKPT2"
PHASES = ("init", "pretrain", "sft")

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

# Each adaptable projection's base weight and bias under ``layers.{i}.`` and
# the ``ModelConfig`` fields of its weight's (d_out, d_in), in the order the
# forward pass applies them (and draws their dropout masks).
PROJECTION_TENSORS = {
    "query": ("attn.wq", "attn.bq", "d_model", "d_model"),
    "key": ("attn.wk", "attn.bk", "d_model", "d_model"),
    "value": ("attn.wv", "attn.bv", "d_model", "d_model"),
    "output": ("attn.wo", "attn.bo", "d_model", "d_model"),
    "ff_in": ("ff.w1", "ff.b1", "d_ff", "d_model"),
    "ff_out": ("ff.w2", "ff.b2", "d_model", "d_ff"),
}
ADAPTABLE_PROJECTIONS = tuple(PROJECTION_TENSORS)

# A layer as its two residual halves in forward order, each a row (norm,
# projs, out) of ``x += out(inner(projs(norm(x))))``: attention reads query,
# key and value off ln1, GELU reads ff_in off ln2.
LAYER_HALVES = (("ln1", ("query", "key", "value"), "output"), ("ln2", ("ff_in",), "ff_out"))

_LN_EPS = 1e-5
_INIT_STD = 0.02


# ---------------------------------------------------------------------------
# Configuration

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 256
    lora_rank: int = 8
    lora_alpha: float = 32.0
    lora_dropout: float = 0.1
    adapted_projections: tuple[str, ...] = ("query", "value")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a size must be an int: a float such as 4.0 compares equal to
            # its int, so tensor shapes would pass and the first forward fail
            if f.type in (int, "int") and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.vocab_size < len(SPECIAL_TOKENS):
            raise ValueError(f"vocab_size must be >= {len(SPECIAL_TOKENS)}")
        for field in ("d_model", "n_heads", "d_ff"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        if not math.isfinite(self.lora_alpha):
            raise ValueError(f"lora_alpha must be finite, got {self.lora_alpha}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2")
        unknown = set(self.adapted_projections) - set(ADAPTABLE_PROJECTIONS)
        if unknown:
            raise ValueError(f"unknown projections: {sorted(unknown)}")
        # canonical order makes the checkpoint tensor order configuration-stable
        object.__setattr__(
            self,
            "adapted_projections",
            tuple(p for p in ADAPTABLE_PROJECTIONS if p in self.adapted_projections),
        )
        for proj in self.adapted_projections:
            d1, d2 = self.projection_dims(proj)
            if not 1 <= self.lora_rank <= min(d1, d2):
                raise ValueError(
                    f"lora_rank {self.lora_rank} out of range for {proj} "
                    f"({d1}x{d2})"
                )
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ValueError("lora_dropout must be in [0, 1)")

    def projection_dims(self, proj: str) -> tuple[int, int]:
        """(d_out, d_in) of a projection's base weight matrix."""
        if proj not in PROJECTION_TENSORS:
            raise ValueError(f"unknown projection: {proj}")
        d_out, d_in = PROJECTION_TENSORS[proj][2:]
        return getattr(self, d_out), getattr(self, d_in)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        obj = json.loads(text)
        obj["adapted_projections"] = tuple(obj["adapted_projections"])
        return cls(**obj)


# ---------------------------------------------------------------------------
# Full model state

@functools.lru_cache(maxsize=None)
def _proj_names(i: int, proj: str) -> tuple[str, str, str, str]:
    """(weight, bias, adapter A, adapter B) tensor names of layer i's
    ``proj``; cached, since every projection of every call asks for them."""
    w, b = PROJECTION_TENSORS[proj][:2]
    pre = f"layers.{i}"
    return f"{pre}.{w}", f"{pre}.{b}", f"{pre}.lora.{proj}.a", f"{pre}.lora.{proj}.b"


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape by name, in fixed declaration order: the
    checkpoint order and ``init_model``'s draw order."""
    d, v, r = config.d_model, config.vocab_size, config.lora_rank

    def norm(name):
        return {f"{name}.gamma": (d,), f"{name}.beta": (d,)}

    shapes = {"tok_emb": (v, d), "pos_emb": (config.max_seq_len, d)}
    for i in range(config.n_layers):
        for ln, projs, out in LAYER_HALVES:
            shapes.update(norm(f"layers.{i}.{ln}"))
            for proj in (*projs, out):
                d1, d2 = config.projection_dims(proj)
                shapes.update(zip(_proj_names(i, proj)[:2], ((d1, d2), (d1,))))
    shapes.update(norm("ln_f"), out_w=(v, d))
    for i in range(config.n_layers):
        for proj in config.adapted_projections:
            d1, d2 = config.projection_dims(proj)
            shapes.update(zip(_proj_names(i, proj)[2:], ((r, d2), (d1, r))))
    return shapes


def param_names(config: ModelConfig) -> list[str]:
    """All tensor names in fixed declaration order (also the checkpoint order)."""
    return list(param_shapes(config))


def adapter_param_names(config: ModelConfig) -> list[str]:
    return [n for n in param_names(config) if ".lora." in n]


EMBEDDING_PARAM_NAMES = ("tok_emb", "pos_emb", "out_w")


def trainable_param_names(
    config: ModelConfig, train_embeddings: bool = False
) -> list[str]:
    names = adapter_param_names(config)
    if train_embeddings:
        names = [n for n in EMBEDDING_PARAM_NAMES] + names
    return names


@dataclass
class ModelState:
    """Named parameter tensors plus their config; base tensors stay frozen."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    def copy(self) -> "ModelState":
        return ModelState(
            config=self.config,
            params={k: v.copy() for k, v in self.params.items()},
        )


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelState:
    """Seeded init; draws happen in declaration order so that configs which
    differ only in adapters share identical base tensors for a given seed.
    Norm gains start at one; norm shifts, biases and adapter B (``*.b``) at
    zero."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gamma"):
            arr = np.ones(shape)
        elif len(shape) == 1 or name.endswith(".b"):
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, _INIT_STD, shape)
        params[name] = arr.astype(dtype)
    return ModelState(config=config, params=params)


# ---------------------------------------------------------------------------
# Forward / backward building blocks

def _row_chunks(x):
    """``x`` as (rows, last axis), and ``_seq_blocks`` slices of its rows that
    hold at most ``CHUNK_BYTES`` each."""
    x2 = _rows(x)
    return x2, _seq_blocks(len(x2), x2.shape[1] * x2.itemsize, CHUNK_BYTES)


def _layer_norm_fwd(x, gamma, beta, out=None):
    """(y, (xhat, inv)) of a layer norm over the last axis, written into
    preallocated outputs: ``xhat * gamma + beta`` with ``xhat = (x - mu) *
    inv`` and ``inv = 1 / sqrt(var + eps)``, in that expression's rounding
    steps.  mu and var go to inv and ``(x - mu)**2`` to y, so nothing is
    allocated beyond the outputs.  A mean is ``mean``'s sum divided by the
    row length, bitwise ``mean`` (which divides in float64: a float32
    quotient rounds the same either way) without its Python-level cost of
    about 3 us, which a decode step pays per layer norm.  y is written to
    ``out`` when given (a contiguous array; ``x`` itself works in place,
    since x is read only to form ``x - mu``)."""
    x2 = _rows(x)
    y = np.empty_like(x2) if out is None else out.reshape(x2.shape)
    xhat = np.empty_like(x2)
    inv = np.empty((len(x2), 1), dtype=x2.dtype)
    d = x2.shape[1]
    np.add.reduce(x2, axis=-1, keepdims=True, out=inv)
    inv /= d
    np.subtract(x2, inv, out=xhat)
    np.multiply(xhat, xhat, out=y)
    np.add.reduce(y, axis=-1, keepdims=True, out=inv)
    inv /= d
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y.reshape(x.shape), (xhat.reshape(x.shape), inv.reshape(x.shape[:-1] + (1,)))


def _layer_norm_bwd(dy, cache, gamma):
    """dx of a layer norm, written over ``dy`` (as its (rows, last axis)
    view, which it returns in dy's shape): ``(dxhat - m1 - xhat * m2) *
    inv``, where ``dxhat = dy * gamma`` and m1, m2 are the row means of
    ``dxhat`` and ``dxhat * xhat``, in that expression's rounding steps.  dy
    is read only to form ``dxhat``, so dx can overwrite it.  The parameter
    gradients sum across rows and are left to the caller, who reads dy
    before this."""
    xhat, inv = cache
    dy2 = _rows(dy)
    xhat2 = xhat.reshape(dy2.shape)
    dxhat = np.multiply(dy2, gamma)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    np.multiply(dxhat, xhat2, out=dy2)
    m2 = dy2.mean(axis=-1, keepdims=True)
    dxhat -= m1
    np.multiply(xhat2, m2, out=dy2)
    np.subtract(dxhat, dy2, out=dy2)
    dy2 *= inv.reshape(-1, 1)
    return dy2.reshape(dy.shape)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _gelu_tanh(xc):
    """``t = tanh(C * (x + A*x*x*x))`` of one chunk, in a new array."""
    tc = np.multiply(xc, _GELU_A)
    tc *= xc
    tc *= xc
    tc += xc
    tc *= _GELU_C
    return np.tanh(tc, out=tc)


def _gelu_fwd(x):
    """tanh-approximate GELU ``0.5 * x * (1 + t)`` in place in ``x``, which
    it returns, one row chunk at a time.  Each rounding step is the one the
    whole-array expression takes, so the result is bitwise equal to it; t
    never exists beyond one chunk.  Backward rebuilds x and takes its
    derivative with ``_gelu_grad``."""
    x2, chunks = _row_chunks(x)
    for sl in chunks:
        xc = x2[sl]
        tc = _gelu_tanh(xc)
        xc *= 0.5
        tc += 1.0
        xc *= tc
    return x2.reshape(x.shape)


def _gelu_grad(x):
    """gelu'(x) ``= 0.5*(1+t) + 0.5*x*(1-t*t) * C*(1 + 3*A*x*x)`` in place in
    ``x``, which it returns, one row chunk at a time: bitwise equal to that
    whole-array expression, each rounding step being its own, with three
    chunk-sized temporaries (t, the inner factor and ``1 - t*t``)."""
    x2, chunks = _row_chunks(x)
    for sl in chunks:
        xc = x2[sl]
        tc = _gelu_tanh(xc)
        inner = np.multiply(xc, 3.0 * _GELU_A)
        inner *= xc
        inner += 1.0
        inner *= _GELU_C
        xc *= 0.5
        sq = np.multiply(tc, tc)
        np.subtract(1.0, sq, out=sq)
        xc *= sq
        xc *= inner
        tc += 1.0
        np.multiply(tc, 0.5, out=inner)
        xc += inner
    return x2.reshape(x.shape)


def _dropout_mask(shape, p, rng):
    """The dropout mask ``keep = rng.random(shape) >= p``, drawn one row
    chunk at a time.  ``Generator.random`` draws in row order, so the
    chunks consume the stream exactly as one whole-array draw does."""
    keep = np.empty(shape, dtype=bool)
    keep2 = _rows(keep)
    for sl in _seq_blocks(len(keep2), keep2.shape[1] * 8, CHUNK_BYTES):  # float64 draws
        np.greater_equal(rng.random(keep2[sl].shape), p, out=keep2[sl])
    return keep


def _dropout_apply(x, keep, p, out=None):
    """``x * keep / (1 - p)``, written to ``out`` (a new array when None;
    ``x`` itself works in place), which it returns.  The forward's
    dropped-out input, its rebuild in backward and the gradient through the
    mask all take these rounding steps, so the same bits."""
    out = np.multiply(x, keep, out=out)
    out /= 1.0 - p
    return out


def _proj_out(state, i, proj, x, u):
    """y = x W^T + b for layer i's ``proj``, plus ``u B^T`` scaled by
    alpha/r when ``u`` (the adapter's ``xd A^T``) is given.  The forward
    pass forms a projection's output here, and backward rebuilds one here
    from the same x and u, so the two are bitwise equal."""
    cfg, P = state.config, state.params
    w_name, b_name, _, b_up_name = _proj_names(i, proj)
    y = x @ P[w_name].T
    y += P[b_name]
    if u is not None:
        up = u @ P[b_up_name].T
        up *= cfg.lora_alpha / cfg.lora_rank
        y += up
    return y


def _proj_fwd(state, i, proj, x, keep):
    """``(_proj_out, u)`` of layer i's ``proj`` on the rows of ``x``, where
    u is the adapter's ``xd A^T`` (None unless ``proj`` is adapted) and
    ``xd`` is ``x`` through the dropout mask ``keep`` (``x`` itself when
    None).  Every step works row by row, so ``x`` may be one block of whole
    sequences and ``keep`` that block of the mask.  ``xd`` lives only until
    u is formed: backward rebuilds it from x and keep."""
    cfg, P = state.config, state.params
    u = None
    if proj in cfg.adapted_projections:
        a_name = _proj_names(i, proj)[2]
        xd = x if keep is None else _dropout_apply(x, keep, cfg.lora_dropout)
        u = xd @ P[a_name].T
    return _proj_out(state, i, proj, x, u), u


def _proj_dx(state, i, proj, dy, keep):
    """dx of layer i's ``proj`` given its output gradient ``dy`` and its
    dropout mask ``keep`` (None without dropout).  Every step works row by
    row, so ``dy`` may be one block of whole sequences and ``keep`` that
    block of the mask."""
    cfg, P = state.config, state.params
    w_name, _, a_name, b_up_name = _proj_names(i, proj)
    dx = dy @ P[w_name]
    if proj in cfg.adapted_projections:
        du = cfg.lora_alpha / cfg.lora_rank * (dy @ P[b_up_name])
        dxd = du @ P[a_name]
        if keep is not None:
            _dropout_apply(dxd, keep, cfg.lora_dropout, out=dxd)
        dx += dxd
    return dx


def _norm_out(state, i, norm, stats, sl=slice(None)):
    """Layer i's ``norm`` output on the sequences ``sl``, rebuilt from its
    cached (xhat, inv) as ``xhat * gamma + beta``: the forward's own
    expression, so bitwise the array the forward formed."""
    y = stats[0][sl] * state.params[f"layers.{i}.{norm}.gamma"]
    y += state.params[f"layers.{i}.{norm}.beta"]
    return y


def _proj_grads(state, i, proj, dy, blk, grads, want):
    """Writes into ``grads`` the gradients of layer i's ``proj`` that
    ``want`` asks for, from its whole-batch output gradient ``dy`` (None
    when none is wanted) and its cache entry ``blk[proj] = (x, u, keep)``,
    which it removes; returns ``keep``, which the blocks' ``_proj_dx`` may
    still read.  Each gradient is one GEMM or sum over every row of the batch.

    A projection that reads a layer norm's output caches no x
    (``_layer_cache``): when the weight's or A's gradient reads it, x is
    rebuilt here once, whole-batch, with ``_norm_out``.  An adapter's A
    gradient rebuilds the forward's dropped-out input ``xd = x * keep / (1 -
    p)`` (``_dropout_apply``, bitwise the forward's) in place on x, which
    nothing reads after the weight's gradient, and drops it after its GEMM."""
    cfg, P = state.config, state.params
    x, u, keep = blk.pop(proj)
    w_name, b_name, a_name, b_up_name = _proj_names(i, proj)
    adapted = proj in cfg.adapted_projections
    if x is None and (want(w_name) or (adapted and want(a_name))):
        norm = _NORM_BEFORE[proj]
        x = _norm_out(state, i, norm, blk[norm])
    if want(w_name):
        grads[w_name] = _rows(dy).T @ _rows(x)
    if want(b_name):
        grads[b_name] = _rows(dy).sum(axis=0)
    if adapted:
        scale, p = cfg.lora_alpha / cfg.lora_rank, cfg.lora_dropout
        if want(b_up_name):
            grads[b_up_name] = scale * (_rows(dy).T @ _rows(u))
        if want(a_name):
            du = scale * (dy @ P[b_up_name])
            if keep is not None:
                x = _dropout_apply(x, keep, p, out=x)
            grads[a_name] = _rows(du).T @ _rows(x)
    return keep


def _rows(x):
    """``x`` as (rows, last axis)."""
    return x.reshape(-1, x.shape[-1])


def _part(x, sl):
    """``x[sl]``, or None for None."""
    return None if x is None else x[sl]


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


# Bytes that one block of whole sequences may give its largest temporary; it
# sizes the blocks of ``head_loss`` (the logits), and a layer's blocks (the
# attention scores or the feed-forward hidden array, ``_layer_blocks``) get
# ``BLOCK_BYTES / workers**2`` each; a block holds at least one sequence.
# Smaller blocks stay in cache.  At B=128, T=256, V=4100 on 2 vCPUs (two
# workers, one BLAS thread each) the head takes about 0.40 s with 8 MB blocks
# and 0.42 s with 32 MB (0.6 and 0.9 s on one worker under two BLAS
# threads), and a training forward 0.23-0.29 s with 8 MiB layer blocks per
# worker, 0.25-0.29 s with 4 MiB, 0.33-0.35 s with the 2 MiB it gets and
# 0.42 s with 1 MiB.  Larger layer blocks are faster but cost resident
# memory: each pool thread allocates from its own malloc arena, and the bench
# ``pretrain`` (2 workers) read a median peak RSS of 122.1 MB and ``pass_s``
# of 2.34 s with 2 MiB per worker, 125.6 MB and 2.25 s with 4 MiB, and 134.6
# MB and 2.29 s with 8 MiB (5 runs each); one worker with 8 MiB read 121.0
# MB and 3.4 s.  At H=4 and T=256, 8 MB holds the attention of 8 float32
# sequences.
BLOCK_BYTES = 8 * 2**20

# Bytes of one row chunk of the kernels that still run in chunks: GELU
# (``_gelu_fwd``, ``_gelu_grad``), whose temporaries then stay in the L2
# cache, and the float64 dropout draws (``_dropout_mask``) and the head's
# log-sum-exp (``_sum_exp``), whose temporaries then never span a whole
# batch or block.  The layer norm and the dropout product run whole-array,
# on a layer block (128 to 280 KiB at the bench's shapes) and, for the final
# norm, on the whole batch, whose forward and backward read 7-11 ms either
# way at (128, 256, 64).  On one thread of a 2-vCPU Xeon (2 MiB of L2 per
# core) in float32, best of 15, the GELU derivative takes 0.8-1.0 ms on an
# SFT block (10, 110, 256) in 256 KiB chunks against 1.2-1.4 ms whole, and
# 0.34-0.42 ms on a pretraining block (2, 256, 256) against 0.37-0.51 ms;
# its forward 0.43-0.47 ms against 0.52-0.68 ms on the SFT block.  The
# draws for a (128, 256, 64) mask would be a 16 MiB temporary whole, and
# the exponentials of an 8 MB head block one of its size.
CHUNK_BYTES = 256 * 2**10

# Query rows per causal tile of attention (a multiple of 8; see
# ``_causal_tiles``).  A tile [lo, hi) computes scores, softmax and GEMMs over
# keys [0, hi) only: at T=256 the 32-row tiles compute 56% of the whole rows'
# scores.  Measured per block of 8 sequences at H=4, T=256, dh=16 in float32
# (2 vCPUs, OpenBLAS, 2 threads), forward plus backward takes about 19.9 ms
# in whole rows, 14.4 ms in 64-row tiles and 12.3 ms in 32-row tiles; 16-row
# tiles gain nothing more.  At T=110 (the bench's SFT batches) 32-row tiles
# are about 9% faster than whole rows, and 64-row tiles 2% slower.
ATTN_TILE = 32

# Where attention runs in tiles: (dtype, head dim) -> the longest key row;
# every other row stays whole.  A tile's GEMMs are smaller than the whole
# rows', and OpenBLAS (0.3.31, SkylakeX kernels) picks its kernel and
# blocking by shape, so only some shapes round a tile's products as the
# whole rows' round them.  Float32 with 16-wide heads (the default model)
# matches at every length up to 256 under 1 to 4 threads, float64 up to 192
# (its scores GEMM differs from 193 keys on).  Head dims of 2-8 and 24 break
# with 8-row tiles, 32 and more with any tile, and float32 ``p @ v`` breaks
# past about 450 keys.  ``tests/test_lora_model.py`` sweeps every length of
# every entry bitwise; an entry added here must pass that sweep.
_TILED = {(np.dtype(np.float32), 16): 256, (np.dtype(np.float64), 16): 192}


def _seq_blocks(batch: int, seq_bytes: int, budget: int | None = None):
    """Slices of whole sequences that cut a batch into blocks of at most
    ``budget`` bytes (``BLOCK_BYTES`` by default), given one sequence's bytes
    of the largest temporary."""
    per_block = max(1, (BLOCK_BYTES if budget is None else budget) // seq_bytes)
    for lo in range(0, batch, per_block):
        yield slice(lo, min(lo + per_block, batch))


# Threads that run the blocks of a layer or of the vocab head side by side
# (``_each``): the calling thread plus one pool thread per other usable core.
# Each block writes its own slices of the whole-batch arrays, and NumPy
# releases the interpreter lock inside its GEMMs and ufunc loops.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# Most blocks of the vocab head that run at once.  The head's blocks cannot
# shrink per worker, since its partition fixes the bits of ``d out_w``, so
# each holds a whole block's logits and its ``d out_w`` part: at 4 workers a
# full-parameter step at B=16, T=256, V=4100 peaked at 42.9 MiB in the head
# (``tracemalloc``), against 30.8 MiB with two blocks at once and 28.7 MiB
# on one worker.
HEAD_WORKERS = 2

# ``openblas_set_num_threads`` as the ``scipy_openblas`` builds that NumPy's
# wheels bundle export it (64-bit and 32-bit integer interfaces).
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")

_blas_pinned: bool | None = None  # decided by the first ``_workers`` call


def _pin_blas() -> bool:
    """Sets the OpenBLAS that NumPy has loaded to one thread, through its
    ``openblas_set_num_threads``; False when no such entry point is found.

    Under one BLAS thread a product's bits do not depend on
    ``OPENBLAS_NUM_THREADS`` or the core count (OpenBLAS splits a product
    by its thread count, and at some shapes the split changes the order of
    a sum: ``dlogits @ out_w``, which contracts over the vocab, is one),
    and the cores are left to ``_each``."""
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:  # only a library that is already loaded
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


def _workers() -> int:
    """How many threads ``_each`` runs: ``WORKERS`` once OpenBLAS is pinned
    to one thread (the first call pins it), else 1: unpinned, each worker's
    products would start OpenBLAS's own threads on the same cores."""
    global _blas_pinned
    if _blas_pinned is None:
        _blas_pinned = _pin_blas()
    return WORKERS if _blas_pinned else 1


@functools.cache
def _pool(workers: int):
    """The ``ThreadPoolExecutor`` of ``_each`` under ``workers`` workers:
    ``workers - 1`` threads, made on first use.  Its threads start as work
    is submitted, so a call that runs n threads starts no more than n - 1.
    Imported here: a process that never trains (the corpus stages) never
    loads it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers - 1, thread_name_prefix="domainforge")


def _each(fn, slices, fold=None, most=None):
    """Runs ``fn(sl)`` for every slice and returns once all have run: on the
    calling thread plus ``_workers() - 1`` pool threads (``most`` threads in
    all at most, when given), each taking the next slice when it finishes
    one.  ``fold``, when given, gets the results one call at a time in slice
    order, each as soon as it and every earlier one is in, so only a result
    that finished ahead of an earlier slice waits.  The first exception that
    a block raises stops the threads from taking more slices; it is raised
    here once every thread is done.  With one thread (one slice, as in a
    decode call, or one worker) the calling thread runs every slice in
    order and the pool is never made or touched."""
    slices = list(slices)
    workers = _workers()
    n = min(workers, len(slices), most or len(slices))
    lock = threading.Lock()
    todo = iter(range(len(slices)))
    done: dict = {}
    errors: list[BaseException] = []
    next_fold = 0

    def work():
        nonlocal next_fold
        try:
            while True:
                with lock:
                    k = None if errors else next(todo, None)
                if k is None:
                    return
                out = fn(slices[k])
                if fold is not None:
                    with lock:
                        done[k] = out
                        while next_fold in done:
                            fold(done.pop(next_fold))
                            next_fold += 1
        except BaseException as exc:  # re-raised by the calling thread below
            with lock:
                errors.append(exc)

    pool = _pool(workers) if n > 1 else None
    futures = [pool.submit(work) for _ in range(n - 1)]
    work()
    for f in futures:
        f.result()  # waits; work() keeps its own exceptions
    if errors:
        raise errors[0]


def _causal_tiles(t, dtype, head_dim):
    """(lo, hi) bounds of the query tiles of causal attention over t
    positions: ``ATTN_TILE`` rows each where ``_TILED`` allows, else one
    tile of whole rows.  Every bound but t is a multiple of 8 (see
    ``_row_sums``), and a lone last row joins the tile before it: a one-row
    product runs BLAS's GEMV, which rounds otherwise than its GEMM."""
    if t > _TILED.get((np.dtype(dtype), head_dim), 0):
        return [(0, t)]
    bounds = list(range(0, t, ATTN_TILE)) + [t]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _row_sums(x, n, lo=0):
    """Sums over the last axis of ``x`` (..., hi), bitwise equal to NumPy's
    sums of the same rows padded with zeros to ``n >= hi`` values.

    NumPy sums a row of n values pairwise: in one pass of 8 running sums
    when n <= 128, else as the sum of its first ``(n//2) - (n//2) % 8``
    values plus the sum of the rest, each split the same way.  Adding a zero
    is exact, so the padded row's sum is that tree over [0, n) with every
    node that starts at or after hi dropped and the one that straddles hi
    cut there.  A cut leaf keeps its running sums only when it ends on a
    multiple of 8 from its start, so hi must be a multiple of 8 or n."""
    hi = x.shape[-1]
    if lo + n <= hi or n <= 128:
        return x[..., lo : min(lo + n, hi)].sum(axis=-1, keepdims=True)
    half = n // 2 - (n // 2) % 8
    left = _row_sums(x, half, lo)
    return left if lo + half >= hi else left + _row_sums(x, n - half, lo + half)


@functools.lru_cache(maxsize=None)
def _future_keys(r):
    """Read-only causal mask of r queries over the r keys at their own
    positions: True where the key (column) follows the query (row)."""
    mask = np.triu(np.ones((r, r), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _attn_tile(qh, kh, head_scale, n):
    """Causal attention probabilities of the queries (batch, heads, r, dh) at
    positions hi - r .. hi - 1 over the keys (batch, heads, hi, dh) at 0 ..
    hi - 1, as rows of an attention over ``n >= hi`` keys whose zeros past
    hi are cut off: bitwise equal to those rows when the bounds follow
    ``_causal_tiles`` (hi = n gives whole rows).  Every step works in place
    on one array and rounds exactly as a temporary per step would."""
    r, hi = qh.shape[2], kh.shape[2]
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= head_scale
    np.copyto(p[..., hi - r :], -np.inf, where=_future_keys(r))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= _row_sums(p, n)
    return p


def _attn_fwd(qh, kh, vh, head_scale, oh):
    """Causal attention of one block of whole sequences, written to ``oh``:
    ``attn @ vh`` for queries (batch, heads, t, dh) at the last t of the tk
    key positions.  Runs in ``_causal_tiles`` when t = tk (no past keys),
    else in whole rows."""
    t, tk = qh.shape[2], kh.shape[2]
    if t < tk:
        oh[...] = _attn_tile(qh, kh, head_scale, tk) @ vh
        return
    for lo, hi in _causal_tiles(tk, qh.dtype, qh.shape[3]):
        attn = _attn_tile(qh[:, :, lo:hi], kh[:, :, :hi], head_scale, tk)
        oh[:, :, lo:hi] = attn @ vh[:, :, :hi]


def _attn_bwd(qh, kh, vh, doh, head_scale, dqh, dkh, dvh):
    """Gradients of causal self-attention ``attn @ vh`` over one block of
    whole sequences, given ``doh``: written to whichever of ``dqh``, ``dkh``
    and ``dvh`` is not None, bitwise equal to the whole-row expressions
    ``dv = attnT do``, ``ds = (do vT - rowsum(do vT * attn)) * attn``,
    ``dq = ds k * scale`` and ``dk = dsT q * scale``.

    The probabilities are recomputed per query tile; ``ds`` and ``dq`` run on
    the tile's keys [0, hi).  Key tile [lo, hi) of ``dv`` and ``dk`` reads only
    the query rows from lo on, above which its probabilities are zero, out
    of one (batch, heads, t, t) buffer whose entries above the diagonal
    tiles are never written (with one tile, that tile's own array).  The
    tiles fill it with their probabilities; ``dv`` reads them; then each
    tile's ``ds``, formed from its own rows of probabilities, overwrites
    those rows, and ``dk`` reads that.  Without ``dv`` the tiles store ``ds``
    straight away."""
    b, H, T, dh = qh.shape
    tiles = _causal_tiles(T, qh.dtype, dh)
    kept = len(tiles) > 1 and (dvh is not None or dkh is not None)
    buf = np.empty((b, H, T, T), qh.dtype) if kept else None
    grad_s = dqh is not None or dkh is not None

    def dscores(lo, hi, attn):
        """The tile's ``ds`` from its probabilities ``attn``, and its dq."""
        ds = doh[:, :, lo:hi] @ vh[:, :, :hi].transpose(0, 1, 3, 2)  # d attn, then d scores
        ds -= _row_sums(ds * attn, T)
        ds *= attn
        if dqh is not None:
            dqh[:, :, lo:hi] = (ds @ kh[:, :, :hi]) * head_scale
        return ds

    for lo, hi in tiles:
        attn = _attn_tile(qh[:, :, lo:hi], kh[:, :, :hi], head_scale, T)
        if dvh is None and grad_s:
            attn = dscores(lo, hi, attn)
        if kept:
            buf[:, :, lo:hi, :hi] = attn
    if not kept:
        buf = attn  # the one tile's array; with several tiles, read no more
    if dvh is not None:
        for lo, hi in tiles:
            dvh[:, :, lo:hi] = buf[:, :, lo:, lo:hi].transpose(0, 1, 3, 2) @ doh[:, :, lo:]
        if grad_s:
            for lo, hi in tiles:
                rows = buf[:, :, lo:hi, :hi]
                rows[...] = dscores(lo, hi, rows)
    if dkh is not None:
        for lo, hi in tiles:
            dkh[:, :, lo:hi] = (
                buf[:, :, lo:, lo:hi].transpose(0, 1, 3, 2) @ qh[:, :, lo:]
            ) * head_scale


def _layer_blocks(cfg, batch, t, tk, itemsize):
    """``_seq_blocks`` for one layer over ``t`` new positions of ``tk`` keys:
    sized by the larger of a sequence's attention scores (heads, t, tk) and
    its feed-forward hidden array (t, d_ff), in a budget of ``BLOCK_BYTES``
    over the square of the worker count, so that the bytes in flight fall
    as workers are added (see ``BLOCK_BYTES``).  The blocks' bits do not
    depend on their size."""
    return _seq_blocks(batch, max(cfg.n_heads * tk, cfg.d_ff) * t * itemsize,
                       BLOCK_BYTES // _workers() ** 2)


def _wants(needs):
    """``name -> whether its gradient is wanted`` for a set of tensor names,
    or for every tensor when ``needs`` is None."""
    return lambda name: needs is None or name in needs


# A layer's backward stages in forward order, three per half of
# ``LAYER_HALVES``: its norm, its projs side by side, its out.
_STAGES = tuple(stage for norm, projs, out in LAYER_HALVES for stage in ((norm,), projs, (out,)))
_STAGE_OF = {part: s for s, stage in enumerate(_STAGES) for part in stage}
_QKV = LAYER_HALVES[0][1]

# The projections that read a layer norm's output, and that norm: backward
# rebuilds their input from the norm's statistics, and their outputs
# (attention's inputs and GELU's input) from that input and their u's.
_NORM_BEFORE = {proj: norm for norm, projs, _ in LAYER_HALVES for proj in projs}


def _stage_names(i: int, stage: tuple[str, ...]) -> list[str]:
    if stage[0].startswith("ln"):
        return [f"layers.{i}.{stage[0]}.gamma", f"layers.{i}.{stage[0]}.beta"]
    return [name for proj in stage for name in _proj_names(i, proj)]


def _first_wanted(cfg: ModelConfig, want) -> tuple[int, int]:
    """(layer, stage) of the first place in forward order where a wanted
    tensor enters: layer -1 for the embeddings, ``cfg.n_layers`` when only
    the final norm (or nothing) is wanted.  A gradient must flow back past
    a point only when this lies before it."""
    if want("tok_emb") or want("pos_emb"):
        return (-1, 0)
    for i in range(cfg.n_layers):
        for s, stage in enumerate(_STAGES):
            if any(map(want, _stage_names(i, stage))):
                return (i, s)
    return (cfg.n_layers, 0)


def _store(whole, sl, part):
    """``whole[sl] = part`` unless ``whole`` is None: a block loop fills a
    whole-batch array only where the batch of it is kept."""
    if whole is not None:
        whole[sl] = part


def _layer_cache(state, i, shape, dtype, first, want, rng):
    """Layer i's backward cache, allocated for ``forward_hidden``'s blocks to
    fill, and the layer's dropout masks (None each when ``rng`` is None).

    Returns (blk, masks).  ``blk`` maps each projection to (x, u, keep),
    each a whole-batch array or None: x only for output and ff_out, when
    their base weight or their adapter's A is wanted; u when the adapter's B
    is wanted or the output is rebuilt; the mask when A is wanted or the
    gradient flows to the input.  ``blk["ln1"]``/``blk["ln2"]`` is a norm's
    (xhat, inv) when the gradient reaches the projections that read its
    output, which keep no x: backward rebuilds it from those statistics,
    bitwise (``_norm_out``).  The masks are drawn whole, one per adapted
    projection in forward order."""
    masks = dict.fromkeys(ADAPTABLE_PROJECTIONS)
    if rng is None and first >= (i + 1, 0):
        # the gradient reaches neither the layer nor any of its tensors (as
        # in every decode call): nothing to keep and no mask to draw
        return dict.fromkeys(ADAPTABLE_PROJECTIONS, (None, None, None)), masks
    cfg = state.config

    def whole(width):
        return np.empty(shape + (width,), dtype)

    blk = {}
    for norm, _, _ in LAYER_HALVES:
        if first <= (i, _STAGE_OF[norm] + 1):
            blk[norm] = (whole(cfg.d_model), whole(1))
    for proj in ADAPTABLE_PROJECTIONS:
        s = _STAGE_OF[proj]
        w_name, _, a_name, b_up_name = _proj_names(i, proj)
        d_in = cfg.projection_dims(proj)[1]
        adapted = proj in cfg.adapted_projections
        if adapted and rng is not None:
            masks[proj] = _dropout_mask(shape + (d_in,), cfg.lora_dropout, rng)
        reads_norm = proj in _NORM_BEFORE
        rebuild = reads_norm and first < (i, s + 1)
        x = u = None
        if not reads_norm and (want(w_name) or (adapted and want(a_name))):
            x = whole(d_in)
        if adapted and (rebuild or want(b_up_name)):
            u = whole(cfg.lora_rank)
        keep = masks[proj] if first < (i, s) or want(a_name) else None
        blk[proj] = (x, u, keep)
    return blk, masks


def forward_hidden(
    state: ModelState,
    ids: np.ndarray,
    rng: np.random.Generator | None = None,
    past: dict | None = None,
    needs: set[str] | None = None,
):
    """Causal forward pass over a (batch, time) id array, up to and including
    the final layer norm.

    Returns (xf, cache); position i's hidden state depends only on ids[:, :i+1].
    Each adapter's input drops out (training mode) exactly when ``rng`` is
    given and ``lora_dropout > 0``; without ``rng`` the pass is eval mode.

    Each layer runs in blocks of whole sequences (``_layer_blocks``, sized
    by ``BLOCK_BYTES``), side by side on the ``_each`` workers: ln1, query,
    key and value, attention, output, ln2, ff_in, GELU and ff_out all run on
    a block before its worker takes the next.  Every step works within a
    sequence, and
    each projection multiplies a (sequences, time, d) array by a matrix,
    which NumPy does one sequence at a time, so the result is bitwise the
    unblocked pass's.  Only three kinds of array span the whole batch: the
    residual stream, which each block updates in place; the backward cache,
    which each block fills; and a layer's dropout masks, drawn whole before
    its blocks (``_layer_cache``), so that the rng stream is consumed as by
    one whole-array draw per adapted projection.  The per-head query, key
    and value, the attention probabilities and output, the ln1 and ln2
    outputs, ff_in's output and the GELU output live one block at a time,
    but for the attention and GELU outputs that the cache keeps as output's
    and ff_out's inputs.  The final layer norm writes xf over the residual
    stream, which dies there.  A decode call (one sequence) is one block,
    run on the calling thread.

    Without ``past``, attention runs in causal query tiles
    (``_causal_tiles``): a tile of queries [lo, hi) computes its scores,
    softmax and ``p @ v`` over keys [0, hi) only, bitwise equal to whole rows.

    ``needs`` names the tensors whose gradients ``backward_batch`` computes
    from this cache (all of them when None).  Each projection caches (x, u,
    keep) as ``_layer_cache`` says, and never a dropped-out copy of x.  Only
    output and ff_out cache x, each its own, when their base weight or
    their adapter's A is among them.  Query, key, value and ff_in read a
    layer norm's output (``_NORM_BEFORE``), which no cache keeps: that norm
    keeps its statistics wherever the gradient reaches those projections
    (``_first_wanted``), and backward rebuilds its output from them as
    ``xhat * gamma + beta`` (``_norm_out``), bitwise, per block to rebuild
    the projections' outputs and whole-batch for a weight's or an A's
    gradient.

    Such a backward cache keeps no per-head query, key or value and no GELU
    derivative either.  Where the gradient reaches the output of query,
    key, value or ``ff_in``, backward rebuilds that output, bitwise, from
    the rebuilt norm output and its adapter's u, which such a projection
    always keeps.  GELU runs value-only, in place on ``ff_in``'s output.
    When training only the default adapters (query and value, with
    dropout), each layer keeps ln1's and ln2's statistics, the two boolean
    masks and u's; no layer keeps its attention output, whose only reader
    would be a frozen weight's gradient.

    A decode cache, built with ``needs=frozenset()`` or on a ``past``,
    keeps each layer's keys and values instead, and nothing for a backward
    pass.  ``past`` is such a cache of an earlier call on the preceding
    positions of the same sequences (the key/value cache of incremental
    decoding); any other cache raises ValueError.  The new ids then sit at
    positions ``T0 .. T0 + time - 1``, where T0 is the length ``past``
    covers, and attend to ``past``'s keys and values as well as their own.
    The returned cache holds the keys and values of all T0 + time positions,
    so it can serve as the next call's ``past``; ``backward_batch`` rejects
    it.
    """
    cfg = state.config
    P = state.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] < 1:
        raise ValueError(f"ids must be (batch, time >= 1), got {ids.shape}")
    B, T = ids.shape
    if past is not None:
        if past["needs"] != frozenset():
            raise ValueError("past must be a decode cache (built with needs=frozenset() or on a past)")
        needs = frozenset()
    T0 = 0 if past is None else past["t0"] + past["ids"].shape[1]
    if T0 + T > cfg.max_seq_len:
        raise ValueError(
            f"sequence length {T0 + T} exceeds max_seq_len {cfg.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of vocabulary range")

    H = cfg.n_heads
    head_scale = 1.0 / math.sqrt(cfg.d_model // H)
    decode = needs is not None and not needs
    want = _wants(needs)
    # a decode step skips _first_wanted's scan of the tensor names (about
    # 30 us at the default config when nothing is wanted)
    first = (cfg.n_layers, 0) if decode else _first_wanted(cfg, want)
    drop_rng = rng if cfg.lora_dropout > 0.0 else None

    x = P["tok_emb"][ids] + P["pos_emb"][T0 : T0 + T]
    cache: dict = {
        "ids": ids, "t0": T0, "blocks": [],
        "needs": None if needs is None else frozenset(needs),
    }
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        blk, masks = _layer_cache(state, i, (B, T), x.dtype, first, want, drop_rng)
        if decode:
            for name in ("kh", "vh"):
                blk[name] = np.empty((B, H, T0 + T, cfg.d_model // H), x.dtype)
                if past is not None:
                    blk[name][:, :, :T0] = past["blocks"][i][name]

        def norm(name, xb, sl):
            y, stats = _layer_norm_fwd(xb, P[f"{pre}.{name}.gamma"], P[f"{pre}.{name}.beta"])
            if name in blk:
                blk[name][0][sl], blk[name][1][sl] = stats
            return y

        def proj(name, xb, sl):
            y, u = _proj_fwd(state, i, name, xb, _part(masks[name], sl))
            _store(blk[name][1], sl, u)
            return y

        def run_block(sl):
            """The layer on the sequences ``sl``; its arrays die on return."""
            xb = x[sl]  # a view: both residual adds land in x
            a = norm("ln1", xb, sl)
            qh, kh, vh = (_split_heads(proj(name, a, sl), H) for name in _QKV)
            if decode:
                blk["kh"][sl, :, T0:], blk["vh"][sl, :, T0:] = kh, vh
                if T0:  # attend to past's keys and values as well
                    kh, vh = blk["kh"][sl], blk["vh"][sl]
            o = np.empty_like(xb) if blk["output"][0] is None else blk["output"][0][sl]
            _attn_fwd(qh, kh, vh, head_scale, _split_heads(o, H))
            del qh, kh, vh
            xb += proj("output", o, sl)
            f = norm("ln2", xb, sl)
            g = _gelu_fwd(proj("ff_in", f, sl))
            _store(blk["ff_out"][0], sl, g)
            xb += proj("ff_out", g, sl)

        _each(run_block, _layer_blocks(cfg, B, T, T0 + T, x.itemsize))
        cache["blocks"].append(blk)
    # the residual stream dies here: xf overwrites it
    xf, cache["ln_f"] = _layer_norm_fwd(x, P["ln_f.gamma"], P["ln_f.beta"], out=x)
    return xf, cache


def forward_batch(state: ModelState, ids: np.ndarray):
    """Eval-mode causal forward pass over a (batch, time) id array.

    Returns (logits, cache); position i's logits depend only on ids[:, :i+1].
    The cache serves as a ``past`` but keeps nothing for a backward pass.
    """
    xf, cache = forward_hidden(state, ids, needs=frozenset())
    return xf @ state.params["out_w"].T, cache


def backward_batch(state: ModelState, cache: dict, dxf: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt the tensors named in the ``needs`` that
    ``forward_hidden`` built ``cache`` for (all tensors when None), given its
    gradient ``dxf`` wrt the final layer norm's output.  ``out_w`` is not
    among them: its gradient comes from ``head_loss``.  A cache built on a
    ``past`` is rejected.  ``dxf`` is consumed too: the final layer norm's
    backward writes its dx into it, and the residual stream's gradient
    accumulates there.

    Both halves of a layer (the rows of ``LAYER_HALVES``, last first) run
    through one routine, ``half``, in blocks of whole sequences side by side
    on the ``_each`` workers, as in the forward (``_layer_blocks``): the
    chain from the residual gradient back through the half's out, inner
    kernel, projs and norm, and into the residual gradient, finishes on a
    block before its worker takes the next, and the next half starts once
    every block is done.  Every step works within a sequence, so each
    block's rows match the unblocked pass bitwise.  A whole-batch array
    exists only for the residual stream's gradient, the cache, and the
    operands of a gradient that sums over rows: the output gradient of a
    projection with a wanted tensor (out's is the residual gradient itself,
    taken before the half's blocks change it) and of a layer norm whose
    gamma or beta is wanted.  The blocks fill those, and each such gradient
    is then one GEMM or sum over the whole batch, as in the unblocked pass;
    a weight's or an A's gradient whose input the cache does not keep
    rebuilds it whole-batch, one projection at a time (``_proj_grads``).
    Everything else (the rebuilt outputs, the inner kernel's temporaries,
    the output gradient of a projection that trains nothing, the norm's
    input gradient) lives one block at a time.

    The cache holds no per-head queries, keys and values and no GELU
    derivative: each block rebuilds them just before it reads them, with
    the forward's own steps (``_proj_out``, then ``_gelu_grad`` in place on
    the rebuilt ``ff_in`` output), from the layer norms' statistics and the
    u's the forward kept for that.  Nor does it hold attention probabilities:
    each block recomputes its own in the forward's causal tiles, bitwise
    equal to the forward's.

    Only what ``needs`` reads is computed: a layer norm's ``dgamma``/``dbeta``
    only when wanted, and no activation gradient below the first wanted
    tensor (``_first_wanted``).  With only the default query and value
    adapters wanted, layer 0 forms neither its key gradient nor its input
    gradient, and skips its ln1 backward.  Every other result is the full
    pass's, bitwise.

    The cache is consumed: each projection's entry is dropped once its
    gradients are taken, and each layer's block once that layer is done.
    A second call on the same cache raises ValueError."""
    if cache["t0"]:
        raise ValueError("cannot differentiate a forward pass built on a past cache")
    if "blocks" not in cache:
        raise ValueError("cache already consumed by an earlier backward_batch")
    blocks = cache.pop("blocks")
    cfg = state.config
    P = state.params
    H = cfg.n_heads
    head_scale = 1.0 / math.sqrt(cfg.d_model // H)
    want = _wants(cache["needs"])
    first = _first_wanted(cfg, want)
    B, T = cache["ids"].shape

    def flows(i, part):
        """Whether the gradient must reach the input of layer i's ``part``."""
        return first < (i, _STAGE_OF[part])

    def whole(width, keep=True):
        """A whole-batch array of ``width`` for the blocks to fill, or None
        unless ``keep``."""
        return np.empty((B, T, width), dxf.dtype) if keep else None

    grads: dict[str, np.ndarray] = {}

    def norm_grads(dy, name, stats):
        """The wanted gradients of layer norm ``name``'s gamma and beta, from
        its whole-batch output gradient ``dy`` and its (xhat, inv)."""
        if want(f"{name}.gamma"):
            grads[f"{name}.gamma"] = _rows(dy * stats[0]).sum(axis=0)
        if want(f"{name}.beta"):
            grads[f"{name}.beta"] = _rows(dy).sum(axis=0)

    def attend(do, ys, dys):
        """Attention's backward: the q/k/v output gradients ``dys`` (None
        each where not needed) from ``do`` and the rebuilt q, k and v."""
        _attn_bwd(*(_split_heads(y, H) for y in ys), _split_heads(do, H), head_scale,
                  *(None if dy is None else _split_heads(dy, H) for dy in dys))

    def gelu(dg, ys, dys):
        """GELU's backward: ff_in's output gradient from the GELU output's
        ``dg`` and the rebuilt ff_in output, whose derivative overwrites it."""
        np.multiply(dg, _gelu_grad(ys[0]), out=dys[0])

    def half(i, blk, norm, projs, out, inner):
        """The backward of layer i's half ``x += out(inner(projs(norm(x))))``
        (a row of ``LAYER_HALVES``, with its ``inner`` kernel), given the
        residual gradient ``dx``: out's gradients, then per block ``dx``
        back through out, inner, projs and norm, and into ``dx``, then the
        gradients of projs and norm.  The projs' output gradients go to
        whole-batch arrays where they train, else to block arrays where the
        gradient flows on.  Returns whether it flows on past norm."""
        keep_out = _proj_grads(state, i, out, dx, blk, grads, want)
        if not flows(i, out):
            return False
        dys_all = {
            p: whole(cfg.projection_dims(p)[0]) for p in projs if any(map(want, _proj_names(i, p)))
        }
        dn_all = whole(cfg.d_model, any(map(want, _stage_names(i, (norm,)))))

        def block(sl):
            dz = _proj_dx(state, i, out, dx[sl], _part(keep_out, sl))
            # projs' outputs as the forward formed them, on norm's output
            # rebuilt from its statistics
            x = _norm_out(state, i, norm, blk[norm], sl)
            ys = [_proj_out(state, i, p, x, _part(blk[p][1], sl)) for p in projs]
            del x
            dys = [
                dys_all[p][sl] if p in dys_all else np.empty_like(y) if flows(i, p) else None
                for p, y in zip(projs, ys)
            ]
            inner(dz, ys, dys)
            del dz, ys
            if flows(i, projs[0]):
                dns = (_proj_dx(state, i, p, dy, _part(blk[p][2], sl)) for p, dy in zip(projs, dys))
                dn = next(dns)
                for d in dns:
                    dn += d
                _store(dn_all, sl, dn)
                if flows(i, norm):
                    dxb = dx[sl]
                    dxb += _layer_norm_bwd(dn, (blk[norm][0][sl], blk[norm][1][sl]),
                                           P[f"layers.{i}.{norm}.gamma"])

        _each(block, slices)
        for p in projs:
            _proj_grads(state, i, p, dys_all.pop(p, None), blk, grads, want)
        norm_grads(dn_all, f"layers.{i}.{norm}", blk.pop(norm, None))
        return flows(i, norm)

    ln_f = cache.pop("ln_f")
    norm_grads(dxf, "ln_f", ln_f)
    dx = _layer_norm_bwd(dxf, ln_f, P["ln_f.gamma"]) if first[0] < cfg.n_layers else None
    del ln_f
    slices = list(_layer_blocks(cfg, B, T, T, dxf.itemsize))
    halves = tuple(zip(LAYER_HALVES, (attend, gelu)))[::-1]  # in backward order
    for i in reversed(range(cfg.n_layers)):
        if first[0] > i:  # no tensor at or below layer i is wanted
            break
        blk = blocks.pop()
        for (norm, projs, out), inner in halves:
            if not half(i, blk, norm, projs, out, inner):
                break

    ids = cache["ids"]
    if want("tok_emb"):
        dtok = np.zeros_like(P["tok_emb"])
        np.add.at(dtok, ids, dx)
        grads["tok_emb"] = dtok
    if want("pos_emb"):
        dpos = np.zeros_like(P["pos_emb"])
        dpos[: ids.shape[1]] = dx.sum(axis=0)
        grads["pos_emb"] = dpos
    return grads


def model_forward(state: ModelState, tokens: Sequence[int]) -> np.ndarray:
    """Eval-mode logits per position for a single token sequence, shape
    (len, vocab)."""
    ids = np.asarray(tokens, dtype=np.int64)[None, :]
    logits, _ = forward_batch(state, ids)
    return logits[0]


# ---------------------------------------------------------------------------
# Losses

def _target_weights(target_mask: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The mask in the logits' dtype and its per-sequence sums."""
    mask = target_mask.astype(dtype)
    n = mask.sum(axis=1)
    if np.any(n < 1):
        raise ValueError("every sequence needs at least one unmasked target")
    return mask, n


def _nll_block(rows, targets, weights):
    """Loss kernel over (..., vocab) logits, each row with its target id and
    its weight in the batch loss (``targets`` and ``weights`` shaped as the
    rows).

    Returns each row's next-token NLL and overwrites ``rows`` with the
    gradient of the weighted sum of those NLLs.  Every reduction runs within
    one row, so a row's results do not depend on which other rows share it.
    """
    rows -= rows.max(axis=-1, keepdims=True)
    rows -= np.log(_sum_exp(rows))  # log-softmax
    at = (*np.indices(targets.shape, sparse=True), targets)
    nll = -rows[at]
    np.exp(rows, out=rows)
    rows[at] -= 1.0
    rows *= weights[..., None]
    return nll


def _sum_exp(rows):
    """``np.exp(rows).sum(axis=-1, keepdims=True)`` through one buffer of
    ``CHUNK_BYTES``, a row chunk at a time: bitwise equal, since each row's
    exponentials and their sum are the same whichever rows share a chunk.
    ``rows`` (..., vocab) is only read, so it may be any view."""
    *lead_shape, n, vocab = rows.shape
    sums = np.empty((*lead_shape, n, 1), rows.dtype)
    per = min(n, max(1, CHUNK_BYTES // (vocab * rows.itemsize)))
    buf = np.empty((per, vocab), rows.dtype)
    for lead in np.ndindex(*lead_shape):
        r, s = rows[lead], sums[lead]
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            e = np.exp(r[lo:hi], out=buf[: hi - lo])
            e.sum(axis=-1, keepdims=True, out=s[lo:hi])
    return sums


def _block_loss(logits, ids, mask, n, batch):
    """Loss of a block of whole sequences of a batch of ``batch``.

    Returns each sequence's masked mean next-token NLL, and overwrites
    ``logits`` with the gradient of the batch loss (the mean of those over
    the whole batch) wrt them.  Only the rows with a non-zero weight in
    ``mask`` go through ``_nll_block``; every other row becomes exactly
    +0.0, so gradients never depend on target ids that carry zero weight,
    nor on those rows' logits.  When every row is weighted (as in
    pretraining), ``_nll_block`` works in place on a view of ``logits``
    instead of a gathered copy, with the same bits.
    """
    weights = mask / n[:, None] / batch
    logits[:, -1] = 0.0
    if mask.all():
        nll = _nll_block(logits[:, :-1], ids[:, 1:], weights)
    else:
        weighted = mask != 0.0
        rows = logits[:, :-1][weighted]
        nll = np.zeros_like(mask)
        nll[weighted] = _nll_block(rows, ids[:, 1:][weighted], weights[weighted])
        logits[:, :-1][~weighted] = 0.0
        logits[:, :-1][weighted] = rows
    return (nll * mask).sum(axis=1) / n


def masked_next_token_loss(
    logits: np.ndarray, ids: np.ndarray, target_mask: np.ndarray
):
    """Mean over sequences of the per-sequence masked next-token NLL.

    ``target_mask[b, j]`` weights the prediction of ``ids[b, j + 1]``.
    Returns (loss, dlogits).
    """
    mask, n = _target_weights(target_mask, logits.dtype)
    dlogits = logits.copy()
    seq_loss = _block_loss(dlogits, ids, mask, n, logits.shape[0])
    return float(seq_loss.mean()), dlogits


def head_loss(
    state: ModelState,
    xf: np.ndarray,
    ids: np.ndarray,
    target_mask: np.ndarray,
    needs: set[str] | None = None,
):
    """Vocab head plus ``masked_next_token_loss``, fused so that the full
    (batch, time, vocab) logits never exist.

    Logits are computed, reduced and dropped one block of whole sequences at
    a time, ``HEAD_WORKERS`` blocks side by side on the ``_each`` workers;
    each sequence's GEMMs and row reductions are the same as on the
    unblocked path, so the loss and ``dxf`` match it bitwise.  ``d out_w``
    (only when ``needs`` wants it) is a sum of per-block GEMMs, bitwise equal
    only when the batch fits in one block; the blocks are ``_seq_blocks`` of
    ``BLOCK_BYTES`` whatever the worker count, and each part is added in
    block order as soon as the parts before it are in, so its bits do not
    depend on the worker count.  Returns (loss, dxf, head_grads).

    ``xf`` is consumed, as ``backward_batch`` consumes ``dxf``: each block
    forms its ``d out_w`` part first, when wanted, and then writes
    ``dlogits @ out_w`` over its own rows of ``xf``, so the returned
    ``dxf`` is ``xf`` itself and no second array of its size exists.

    Both GEMMs run on every row of a block, but the log-softmax, the NLL and
    their gradient run only on the rows whose weight in ``target_mask`` is
    non-zero.  The block's logits buffer becomes its ``dlogits``: the
    weighted rows get their gradient and every other row is set to +0.0.  A
    prompt or padding row therefore costs only its share of the GEMMs and a
    zero fill, and its logits never reach the loss.
    """
    out_w = state.params["out_w"]
    B, T = xf.shape[:2]
    mask, n = _target_weights(target_mask, xf.dtype)
    seq_loss = np.empty(B, dtype=xf.dtype)
    want_out_w = needs is None or "out_w" in needs
    head_grads: dict[str, np.ndarray] = {}

    def block(sl):
        x = xf[sl]  # a view: the block's dxf lands in its own rows of xf
        dlogits = x @ out_w.T
        seq_loss[sl] = _block_loss(dlogits, ids[sl], mask[sl], n[sl], B)
        part = _rows(dlogits).T @ _rows(x) if want_out_w else None
        x[...] = dlogits @ out_w
        return part

    def add(part):
        if "out_w" in head_grads:
            head_grads["out_w"] += part
        else:
            head_grads["out_w"] = part

    _each(block, _seq_blocks(B, T * out_w.shape[0] * xf.itemsize), add if want_out_w else None,
          HEAD_WORKERS)
    return float(seq_loss.mean()), xf, head_grads


def greedy_generate(
    state: ModelState, prompt_ids: Sequence[int], max_new_tokens: int
) -> list[int]:
    """Deterministic greedy continuation; stops at EOS, after
    ``max_new_tokens``, or when the context fills.

    Decodes with a key/value cache: one ``forward_hidden`` call over the
    prompt, then one call per generated token with the previous call's cache
    as ``past``, each followed by the vocab head on its last position only.
    Adapters stay unmerged, as in training.
    """
    ids = np.asarray(prompt_ids, dtype=np.int64)[None, :]
    room = min(max_new_tokens, state.config.max_seq_len - ids.shape[1])
    out: list[int] = []
    cache = None
    while len(out) < room:
        xf, cache = forward_hidden(state, ids, past=cache, needs=frozenset())
        nxt = int(np.argmax(xf[0, -1] @ state.params["out_w"].T))
        out.append(nxt)
        if nxt == EOS_ID:
            break
        ids = np.array([[nxt]], dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# Vocabulary

VOCAB_MAGIC = "DFVOCAB1"
DEFAULT_VOCAB_CAP = 4096


@dataclass(frozen=True)
class Vocab:
    """Token <-> id mapping; ids 0..3 are PAD, BOS, EOS, UNK."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("vocab must start with the special tokens")
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if index.setdefault(tok, i) != i:
                raise ValueError(f"duplicate token {tok!r} in vocab")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        idx = self._index
        return [idx.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]


def build_vocab(
    texts: Iterable[str], tokenizer: Tokenizer, cap: int = DEFAULT_VOCAB_CAP
) -> Vocab:
    """Frequency-capped vocabulary: the specials, then at most ``cap >= 1``
    tokens, most frequent first, ties lexicographic."""
    if cap < 1:
        raise ValueError(f"vocab cap must be >= 1, got {cap}")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenizer.tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return Vocab(tokens=SPECIAL_TOKENS + tuple(tok for tok, _ in ranked))


def detokenize(tokens: Iterable[str]) -> str:
    """Inverse-ish of the default tokenizer: spaces only between Latin runs."""
    out: list[str] = []
    prev_latin = False
    for tok in tokens:
        latin = bool(tok) and not _is_cjk(ord(tok[0]))
        if out and prev_latin and latin:
            out.append(" ")
        out.append(tok)
        prev_latin = latin
    return "".join(out)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    body = [VOCAB_MAGIC] + list(vocab.tokens[len(SPECIAL_TOKENS):])
    write_lines(path, body)


def load_vocab(path: str | Path) -> Vocab:
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines or lines[0] != VOCAB_MAGIC:
        raise MagicMismatchError(path, f"expected magic {VOCAB_MAGIC!r}")
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            raise ValueError(f"{path}:{lineno}: blank vocab token")
    return Vocab(tokens=SPECIAL_TOKENS + tuple(lines[1:]))


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(
    path: str | Path,
    state: ModelState,
    phase: str,
    step: int = 0,
    opt_state: Mapping[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> None:
    """Write phase tag, step and config, one flag byte per ``param_shapes``
    tensor (1: its optimizer moments follow), then every tensor as float32 in
    table order, then the m and v moments of each flagged tensor.  The body
    names no tensor and gives no shape, so a tensor or moment whose shape is
    not the table's raises ``ValueError`` before anything is written."""
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    shapes = param_shapes(state.config)
    opt_state = opt_state or {}
    flagged = [name for name in shapes if name in opt_state]
    if len(flagged) != len(opt_state):
        raise ValueError(f"moments of no tensor: {sorted(opt_state.keys() - shapes.keys())}")
    tensors = [(name, state.params[name]) for name in shapes]
    tensors += [(name, moment) for name in flagged for moment in opt_state[name]]
    for name, arr in tensors:
        if np.shape(arr) != shapes[name]:
            raise ValueError(f"tensor {name!r} has shape {np.shape(arr)}, expected {shapes[name]}")
    body = bytearray(pack_text(phase) + struct.pack("<Q", step))
    body += pack_text(state.config.to_json()) + bytes(name in opt_state for name in shapes)
    for _, arr in tensors:
        body += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    write_artifact(path, CHECKPOINT_MAGIC, body)


def _parse_checkpoint(cursor: Cursor):
    phase = cursor.text()
    if phase not in PHASES:
        raise ValueError(f"unknown phase tag {phase!r}")
    (step,) = cursor.unpack("<Q")
    config = ModelConfig.from_json(cursor.text())
    # take the flag run, one byte per tensor, before building the table, so
    # that a forged n_layers fails on the bytes left, not on memory
    outer, one = (len(param_shapes(replace(config, n_layers=n))) for n in (0, 1))
    flags = bytes(cursor.take(outer + (one - outer) * config.n_layers))
    shapes = param_shapes(config)
    if max(flags) > 1:
        raise ValueError(f"moment flag {max(flags)} is neither 0 nor 1")

    def tensor(shape):
        return np.frombuffer(cursor.take(4 * math.prod(shape)), dtype="<f4").reshape(shape).copy()

    params = {name: tensor(shape) for name, shape in shapes.items()}
    opt_state = {
        name: (tensor(shape), tensor(shape))
        for (name, shape), flag in zip(shapes.items(), flags) if flag
    }
    return ModelState(config=config, params=params), phase, step, opt_state


def load_checkpoint(path: str | Path):
    """Returns (state, phase, step, opt_state); verifies magic, completeness,
    and checksum."""
    return load_artifact(path, CHECKPOINT_MAGIC, _parse_checkpoint)
