"""The benchmark's tracer wraps package functions by name; every name it
probes must still resolve, or a traced benchmark run crashes on start."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from domainforge.corpus_store import CjkCharTokenizer, RawRecord, ingest
from domainforge.retrieval import ExpandedQuery, build_index, retrieve_top_n

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
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
