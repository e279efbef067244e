"""Gradients and checkpoints do not depend on the BLAS thread count.

OpenBLAS splits a product by its thread count, and at some shapes the split
changes the order of a sum (``dlogits @ out_w``, which contracts over the
vocab, is one).  The model pins OpenBLAS to one thread before its first
block runs, so a run under ``OPENBLAS_NUM_THREADS=2`` gives the bytes of a
run under 1.  Each setting needs its own process: OpenBLAS reads the
variable when it loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from domainforge.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# One default-model training step at V=4100, B=32, T=256 with noisy adapter
# B tensors, then a CLI pretrain run; prints the sha256 of the loss and the
# gradient bytes, then of the checkpoint, each on a line after its label.
CHILD = r"""
import hashlib, sys
import numpy as np
from domainforge import trainer
from domainforge.cli import main
from domainforge.lora_model import ModelConfig, adapter_param_names, init_model

config = ModelConfig(vocab_size=4100)
state = init_model(config, seed=0)
rng = np.random.default_rng(5)
for name in adapter_param_names(config):
    if name.endswith(".b"):
        state.params[name][:] = rng.normal(0.0, 0.02, state.params[name].shape)
B, T = 32, 256
ids = rng.integers(4, config.vocab_size, (B, T))
loss, grads = trainer._batch_grads(
    state, ids, np.ones((B, T - 1)), set(adapter_param_names(config)),
    np.random.default_rng(1),
)
h = hashlib.sha256(repr(loss).encode())
for name in sorted(grads):
    h.update(name.encode() + grads[name].tobytes())
print("grads", h.hexdigest())

store, out = sys.argv[1], sys.argv[2]
assert main(["pretrain", "--store", store, "--output", out,
             "--epochs", "1", "--batch-size", "32"]) == 0
print("checkpoint", hashlib.sha256(open(out, "rb").read()).hexdigest())
"""


def _run_child(threads: int, store: Path, out: Path) -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(store), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    labelled = (line.split() for line in proc.stdout.splitlines())
    return {words[0]: words[1] for words in labelled if words[0] in ("grads", "checkpoint")}


def test_gradients_and_pretrain_checkpoint_do_not_depend_on_blas_threads(tmp_path, capsys):
    # 30 documents of 550 characters drawn from 4,200 CJK codepoints: a full
    # 4,096-token vocab and three steps of 32 sequences
    rng = np.random.default_rng(0)
    chars = np.array([chr(c) for c in range(0x4E00, 0x4E00 + 4200)])
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(
        json.dumps({"source_id": i, "title": "", "body": "".join(rng.choice(chars, 550))},
                   ensure_ascii=False) + "\n"
        for i in range(30)
    ), encoding="utf-8")
    store = tmp_path / "corpus.store"
    assert main(["ingest", "--input", str(raw), "--output", str(store)]) == 0
    capsys.readouterr()
    one = _run_child(1, store, tmp_path / "one.ckpt")
    two = _run_child(2, store, tmp_path / "two.ckpt")
    assert set(one) == set(two) == {"grads", "checkpoint"}
    assert one["grads"] == two["grads"], "gradients differ between 1 and 2 BLAS threads"
    assert one["checkpoint"] == two["checkpoint"], "checkpoints differ between 1 and 2 BLAS threads"
