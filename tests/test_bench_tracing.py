"""The benchmark's tracer wraps package functions by name; every name it
probes must still resolve, or a traced benchmark run crashes on start.  The
same holds for every name the benchmark's input generator and workloads
import from the package, and every counter must fit the call it wraps."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np

from domainforge import evaluator, lora_model, trainer
from domainforge.corpus_store import CjkCharTokenizer, RawRecord, ingest
from domainforge.retrieval import ExpandedQuery, build_index, retrieve_top_n

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_probe_resolves_and_is_restored():
    tracing = _load_tracing()
    targets = [target for _, group, _ in tracing.PROBES for target in group]
    originals = {target: getattr(*tracing._resolve(target)) for target in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for target in targets:
            assert getattr(*tracing._resolve(target)) is not originals[target], target
    finally:
        tracer.restore()
    for target in targets:
        assert getattr(*tracing._resolve(target)) is originals[target], target


def test_scored_postings_counter_runs_on_a_built_index():
    # the counter calls bool() and len() on index.postings values; a
    # postings type without them would crash every traced corpus run
    tracing = _load_tracing()
    records = [RawRecord(f"s{i}", "", text) for i, text in enumerate(["x y x", "y z", "z w"])]
    index = build_index(ingest(records, CjkCharTokenizer(), min_tokens=1))
    query = ExpandedQuery({"x": 2, "z": 1, "absent": 3})
    counts = {}

    def count(name, value):
        counts[name] = counts.get(name, 0) + value

    tracing._count_scored(count, (index, query, 3), {}, retrieve_top_n(index, query, 3))
    assert counts == {"retrieval.query_terms_matched": 2, "retrieval.postings_scored": 3}


def test_benchmark_generator_and_workloads_import(monkeypatch):
    # as bench/run.py starts it: workload.py imports its siblings by their
    # bare names, and gen's dataclasses need their module in sys.modules
    for name in ("tracing", "gen", "workload"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    workload = sys.modules["workload"]
    assert sorted(workload.PASSES) == ["corpus", "pretrain", "tune_eval"]
    # the package attributes the workloads look up only when they run (not
    # metric names such as "evaluator.items")
    used = set(re.findall(r"(?<![\w.\"])(cli|evaluator|lora_model)\.(\w+)",
                          (BENCH / "workload.py").read_text(encoding="utf-8")))
    assert {("lora_model", "load_vocab"), ("evaluator", "greedy_generate")} <= used
    for module, attr in sorted(used):
        assert hasattr(getattr(workload, module), attr), f"{module}.{attr}"


def test_model_probes_count_what_their_calls_did():
    # forward_batch and model_forward are probed by their positional ids;
    # a probe whose hook no longer fits its call would only show in a
    # traced benchmark run
    tracing = _load_tracing()
    config = lora_model.ModelConfig(vocab_size=12, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                    max_seq_len=16, lora_rank=2)
    state = lora_model.init_model(config, seed=0)
    state.params["out_w"][lora_model.EOS_ID] = -1.0  # decode runs to its budget
    ids = np.array([[1, 5, 6, 7, 8], [1, 9, 10, 11, 4]])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        logits, _ = lora_model.forward_batch(state, ids)
        trainer.masked_next_token_loss(logits, ids, np.ones((2, 4)))
        lora_model.model_forward(state, [1, 5, 6])  # counted by its forward_batch
        generated = evaluator.greedy_generate(state, [1, 5, 6, 7], 3)
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics(1)
    assert metrics["lora_model.forward_calls"] == 2
    assert metrics["lora_model.forward_positions"] == ids.size + 3
    assert metrics["lora_model.logits_mb"] == logits.nbytes / 2**20
    assert metrics["trainer.steps"] == 1
    assert metrics["evaluator.prompt_tokens"] == 4
    assert metrics["lora_model.generated_tokens"] == len(generated) == 3
    for span in ("lora_model.forward_s", "lora_model.loss_s", "lora_model.generate_s"):
        assert metrics[span] > 0.0, span
