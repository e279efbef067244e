"""One benchmark workload in one fresh process.

Usage (normally started by run.py, with PYTHONPATH pointing at ``src``):

    python3 bench/workload.py --workload corpus --seed 1 --seconds 10 \
        --trace 0 --work .bench_work/x

Set-up writes the seeded inputs several times (timed, median reported; the
copies must be byte-identical).  Then measured passes of the workload's
stages repeat until ``--seconds`` have elapsed (at least one pass).  Stages run through
the real entry points: ``domainforge.cli.main([...])`` in process, and the
public ``evaluate`` API for the exam.  The last stdout line is one JSON
object with the metrics, the checks, and the output digest.

Every workload reports the same end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``pass_s``: the wall time of one pass of its stages).  The
per-stage figures (``build_tokens_per_s``, ``retrieve_s``,
``pretrain_tokens_per_s``, ``sft_examples_per_s``, ``eval_item_p50_s``,
``eval_item_p90_s``) apply to one workload each and go under ``stages``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import gen
from tracing import Tracer

from domainforge import cli, evaluator, lora_model
from domainforge.corpus_store import DEFAULT_TOKENIZER_ID, get_tokenizer, load_store
from domainforge.evaluator import ABSTAIN, empty_responder, make_gold_responder

# set-up repeats at least SETUP_MIN times and until SETUP_MIN_S have passed
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 3, 100, 2.0
PRETRAIN_EPOCHS = 1
PRETRAIN_STEPS = PRETRAIN_EPOCHS * 2  # two default batches of 128 per epoch
VOCAB_CAP = 4096
SFT_EPOCHS = 1


class Pass:
    """Counters and outputs of one measured pass."""

    def __init__(self):
        self.pass_s = 0.0  # wall time of the stages, checks excluded
        self.stages: dict[str, float] = {}  # per-stage figures
        self.layers: dict[str, float] = {}  # output checks reported per layer
        self.latencies: list[float] = []  # per exam item
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def command(self, *argv: str) -> str:
        """Run one CLI command in process; returns its stdout."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{argv[0]} exited {rc}")
        return out.getvalue()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def losses(self, path: Path) -> list[float]:
        """Read a loss TSV; each step is one attempted operation."""
        data = path.read_bytes()
        self.digest.update(data)
        values = [float(line.split("\t")[2]) for line in data.decode().splitlines()]
        bad = sum(1 for v in values if not math.isfinite(v))
        self.attempted += len(values)
        self.failed += bad
        self.check(bad == 0, f"{bad} non-finite losses in {path.name}")
        return values


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads: each is setup(seed, dir) -> inputs, and run(inputs, dir) -> Pass

def corpus_pass(inp: gen.CorpusInputs, work: Path) -> Pass:
    p = Pass()
    store, kw, idx = work / "corpus.store", work / "kw.tsv", work / "corpus.idx"
    sel, prov = work / "selected.store", work / "selected.prov"
    t0 = time.perf_counter()
    p.command("ingest", "--input", str(inp.raw), "--output", str(store))
    p.command("keywords", "--samples", str(inp.samples), "--lexicon", str(inp.lexicon),
              "--output", str(kw))
    p.command("index", "--store", str(store), "--output", str(idx))
    t1 = time.perf_counter()
    out = p.command("retrieve", "--index", str(idx), "--store", str(store),
                    "--keywords", str(kw), "--budget", str(inp.budget),
                    "--output", str(sel), "--provenance", str(prov))
    t2 = time.perf_counter()
    p.pass_s = t2 - t0
    p.stages["build_tokens_per_s"] = inp.raw_tokens / (t1 - t0)
    p.stages["retrieve_s"] = t2 - t1

    if p.failed == 0:
        selection = load_store(sel)
        used = selection.total_tokens
        p.check(f"tokens={used}" in out, "retrieve output disagrees with the store")
        p.check(used <= inp.budget, f"selected {used} tokens > budget {inp.budget}")
        hits = sum(d.title.startswith(gen.IN_DOMAIN_TAG) for d in selection)
        precision = hits / len(selection)
        p.layers["retrieval.in_domain_precision"] = precision
        p.check(
            precision > inp.in_domain_share,
            f"in-domain precision {precision:.3f} <= corpus share "
            f"{inp.in_domain_share:.3f}",
        )
        p.digest.update(sel.read_bytes())
        p.digest.update(prov.read_bytes())
    return p


def pretrain_pass(inp: gen.PretrainInputs, work: Path) -> Pass:
    p = Pass()
    ckpt = work / "pretrain.ckpt"
    t0 = time.perf_counter()
    p.command("pretrain", "--store", str(inp.store), "--output", str(ckpt),
              "--epochs", str(PRETRAIN_EPOCHS), "--vocab-cap", str(VOCAB_CAP))
    t1 = time.perf_counter()
    positions = inp.target_positions_per_epoch * PRETRAIN_EPOCHS
    p.pass_s = t1 - t0
    p.stages["pretrain_tokens_per_s"] = positions / (t1 - t0)
    if p.failed == 0:
        losses = p.losses(Path(f"{ckpt}.loss.tsv"))
        p.check(len(losses) == PRETRAIN_STEPS,
                f"{len(losses)} steps, expected {PRETRAIN_STEPS}")
        vocab = Path(f"{ckpt}.vocab").read_text(encoding="utf-8").splitlines()
        p.check(len(vocab) - 1 == VOCAB_CAP,
                f"vocab has {len(vocab) - 1} tokens, cap {VOCAB_CAP} not reached")
    return p


def tune_eval_pass(inp: gen.TuneEvalInputs, work: Path) -> Pass:
    p = Pass()
    tuned = work / "tuned.ckpt"
    t0 = time.perf_counter()
    p.command("sft", "--checkpoint", str(inp.checkpoint), "--data", str(inp.pairs),
              "--output", str(tuned), "--epochs", str(SFT_EPOCHS))
    t1 = time.perf_counter()
    p.stages["sft_examples_per_s"] = inp.n_pairs * SFT_EPOCHS / (t1 - t0)

    # the exam decodes the set-up checkpoint, not the SFT output
    state, _, _, _ = lora_model.load_checkpoint(inp.checkpoint)
    vocab = lora_model.load_vocab(f"{inp.checkpoint}.vocab")
    items = evaluator.load_exam(inp.exam)
    model = evaluator.make_model_responder(
        state, vocab, get_tokenizer(DEFAULT_TOKENIZER_ID)
    )

    def timed(prompt: str) -> str:
        start = time.perf_counter()
        response = model(prompt)
        p.latencies.append(time.perf_counter() - start)
        return response

    # The digest covers the generated ids themselves, traced or not: the
    # tokenizer lowercases Latin, so the vocab cannot spell an option letter
    # and every prediction is ABSTAIN; the ids are what shows a decode change.
    generated = 0
    generate = evaluator.greedy_generate

    def counted(*args, **kwargs):
        nonlocal generated
        ids = generate(*args, **kwargs)
        generated += len(ids)
        p.digest.update(json.dumps(ids).encode())
        return ids

    evaluator.greedy_generate = counted
    try:
        report = evaluator.evaluate(timed, items)
    finally:
        evaluator.greedy_generate = generate
    p.pass_s = time.perf_counter() - t0
    if p.failed == 0:
        p.losses(Path(f"{tuned}.loss.tsv"))
    p.attempted += len(items)
    invalid = sum(
        1 for r, item in zip(report.results, items)
        if r.predicted != ABSTAIN and r.predicted not in item.labels
    )
    p.failed += invalid
    p.check(invalid == 0, f"{invalid} items gave neither a label nor ABSTAIN")
    p.layers["evaluator.items"] = len(items)
    p.layers["evaluator.abstain_ratio"] = report.abstain_count / len(items)
    p.digest.update(
        json.dumps([generated, [r.predicted for r in report.results]]).encode()
    )
    return p


def exam_bounds(inp: gen.TuneEvalInputs) -> list[str]:
    """The exam's accuracy ceiling and floor: gold scores 1.0, and the empty
    responder scores 0.0 with every item abstaining."""
    items = evaluator.load_exam(inp.exam)
    errors = []
    gold = evaluator.evaluate(make_gold_responder(items), items)
    if gold.accuracy != 1.0:
        errors.append(f"gold responder scored {gold.accuracy}")
    empty = evaluator.evaluate(empty_responder, items)
    if empty.accuracy != 0.0 or empty.abstain_count != len(items):
        errors.append(
            f"empty responder scored {empty.accuracy}, abstained "
            f"{empty.abstain_count}/{len(items)}"
        )
    return errors


PASSES = {
    "corpus": corpus_pass,
    "pretrain": pretrain_pass,
    "tune_eval": tune_eval_pass,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    inputs_dir = args.work / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    write = gen.WRITERS[args.workload]
    setup_times, setup_digests = [], set()
    while len(setup_times) < SETUP_MIN or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX
    ):
        t0 = time.perf_counter()
        inputs = write(args.seed, inputs_dir)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.add(_digest_files(sorted(inputs_dir.iterdir())))

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    passes: list[Pass] = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds:
            if tracer:
                tracer.run = len(passes)
            passes.append(PASSES[args.workload](inputs, args.work))
            if len(passes) == 1:
                # peak after set-up and one pass, as one CLI run would see it;
                # later passes only add allocator noise
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.restore()

    errors = [e for p in passes for e in p.errors]
    if args.workload == "tune_eval":
        errors += exam_bounds(inputs)
    if len(setup_digests) != 1:
        errors.append("set-up is not deterministic: inputs differ between repeats")
    digests = {p.digest.hexdigest() for p in passes}
    if len(digests) != 1:
        errors.append("outputs differ between passes")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "pass_s": statistics.median(p.pass_s for p in passes),
    }
    stages = {
        name: statistics.median(p.stages[name] for p in passes)
        for name in passes[0].stages
    }
    extra = {
        name: statistics.median(p.layers[name] for p in passes if name in p.layers)
        for name in {name for p in passes for name in p.layers}
    }
    latencies = [v for p in passes for v in p.latencies]
    if latencies:
        stages["eval_item_p50_s"] = statistics.median(latencies)
        stages["eval_item_p90_s"] = statistics.quantiles(
            latencies, n=10, method="inclusive"
        )[8]
        stages["eval_items_timed"] = len(latencies)
    if tracer:
        extra.update(tracer.layer_metrics(len(passes)))
        if args.spans:
            tracer.dump(args.spans)

    print(json.dumps({
        "correct": not errors,
        "errors": errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
        "per_pass": [{"pass_s": p.pass_s, **p.stages} for p in passes],
        "digest": sorted(digests)[0][:16],
        "metrics": metrics,
        "stages": stages,
        "layers": extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
