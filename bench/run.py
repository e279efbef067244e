"""Pipeline benchmark launcher.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json): ``corpus`` (ingest, keywords, index,
retrieve on about 20k documents / 8M tokens), ``pretrain`` (default model,
B=128, full 4096 vocab head) and ``tune_eval`` (SFT, then greedy MCQ
decoding of a fixed checkpoint).  Each runs in a fresh process started from
here with BLAS threads pinned.  ``--trace 0`` prints the end-to-end metrics,
the same on every workload; ``--trace 1`` runs the workload untraced and
then traced, and prints every per-layer metric plus the tracing overhead of
each end-to-end metric (traced minus untraced).  A layer the workload does
not run reads 0.  The last stdout line is the result JSON; the line before
it is the full record, with the per-stage figures, also appended to
.bench_results/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
THREADS = 2
DEADLINE_S = 170.0
OVERHEAD_PREFIX = "trace_overhead."
RESULTS = Path(".bench_results")


def _git_sha(root: Path) -> str:
    # git may read only the checkout: no repository above it, no user or
    # system config
    env = dict(
        os.environ, GIT_CEILING_DIRECTORIES=str(root.parent),
        GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
    )
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(root: Path, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _run_child(args, trace: int, root: Path, env: dict, deadline: float) -> dict:
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{trace}"
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--work", str(work),
        "--spans", str(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("workload process timed out") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "domainforge" / "__init__.py").is_file():
        print("error: run from a checkout that has src/domainforge", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    RESULTS.mkdir(exist_ok=True)

    threads = min(THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "MKL_NUM_THREADS": str(threads),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        ),
    })

    runs = [_run_child(args, 0, root, env, deadline)]
    if args.trace:
        runs.append(_run_child(args, 1, root, env, deadline))
    untraced, last = runs[0], runs[-1]
    errors = [e for r in runs for e in r["errors"]]
    if last["digest"] != untraced["digest"]:
        errors.append("traced outputs differ from untraced outputs")

    if args.trace:
        values = {}
        for key in per_layer:
            name = key.removeprefix(OVERHEAD_PREFIX)
            if name != key:
                values[key] = last["metrics"][name] - untraced["metrics"][name]
            else:
                values[key] = last["layers"].get(key, 0)
        units = per_layer
    else:
        values = {k: untraced["metrics"][k] for k in end_to_end}
        units = end_to_end

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **_environment(root, threads),
        "digest": untraced["digest"], "per_pass": [r["per_pass"] for r in runs],
        "errors": errors, "end_to_end": untraced["metrics"],
        "stages": untraced["stages"],
        "traced_end_to_end": last["metrics"] if args.trace else None,
        "layers": last["layers"],
    }
    with open(RESULTS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
