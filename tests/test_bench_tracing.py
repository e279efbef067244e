"""The benchmark's tracer wraps package functions by name; every name it
probes must still resolve, or a traced benchmark run crashes on start."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
