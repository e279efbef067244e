"""Span tracing from outside the program.

The tracer replaces public functions at the attributes their callers look
up (``domainforge.cli.build_index``, ``domainforge.trainer.forward_batch``,
``CjkCharTokenizer.tokenize`` ...) with wrappers that record a span, and
puts the originals back on ``restore``.  Spans are kept in memory as
(name, start, end, parent, run) and written out at the end.  A span's self
time is its duration minus the time its child spans cover; layer metrics
are sums of self time and counts per run (one run = one measured pass).
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _size(path) -> int:
    return os.path.getsize(path)


# Each probe: span name, the attributes to wrap, and an optional counter hook
# called as hook(count, args, kwargs, result) after the wrapped call returns.
def _count_tokens(count, args, kwargs, result):
    count("corpus_store.tokenize_calls", 1)
    count("corpus_store.tokens", len(result))


def _count_clean(count, args, kwargs, result):
    count("corpus_store.clean_text_calls", 1)


def _count_load_store(count, args, kwargs, result):
    count("corpus_store.store_bytes", _size(args[0]))


def _count_textrank(count, args, kwargs, result):
    count("keyword_extract.textrank_iterations", result[1])


def _count_save_index(count, args, kwargs, result):
    count("retrieval.index_bytes", _size(args[1]))


def _count_query(count, args, kwargs, result):
    count("retrieval.query_terms", len(result.counts))


def _count_scored(count, args, kwargs, result):
    index, query = args[0], args[1]
    plists = [index.postings[t] for t in query.counts if index.postings.get(t)]
    count("retrieval.query_terms_matched", len(plists))
    count("retrieval.postings_scored", sum(len(p) for p in plists))


def _count_selection(count, args, kwargs, result):
    count("retrieval.selected_docs", len(result.store))
    budget = args[3] if len(args) > 3 else kwargs["token_budget"]
    count("retrieval.budget_used_ratio", result.selected_tokens / budget)


def _count_forward(count, args, kwargs, result):
    count("lora_model.forward_calls", 1)
    count("lora_model.forward_positions", int(args[1].size))
    count("lora_model.logits_mb", result[0].nbytes / 2**20, reduce=max)


def _count_step(count, args, kwargs, result):
    count("trainer.steps", 1)


def _count_generate(count, args, kwargs, result):
    count("evaluator.prompt_tokens", len(args[1]))
    count("lora_model.generated_tokens", len(result))


def _count_save_ckpt(count, args, kwargs, result):
    count("lora_model.checkpoint_bytes", _size(args[0]))


# Every span name feeds a self-time metric in SELF_TIMES.  Small helpers
# (keyword, vocab and loss-history files, init_model, provenance) are not
# wrapped, so their time stays in the self time of the span that calls them.
PROBES: tuple[tuple[str, tuple[str, ...], Callable | None], ...] = (
    ("cli", ("domainforge.cli:main",), None),
    ("corpus_store.load_raw_records", ("domainforge.cli:load_raw_records",), None),
    ("corpus_store.ingest", ("domainforge.cli:ingest",), None),
    ("corpus_store.clean_text", ("domainforge.corpus_store:clean_text",), _count_clean),
    ("corpus_store.tokenize",
     ("domainforge.corpus_store:CjkCharTokenizer.tokenize",), _count_tokens),
    ("corpus_store.save_store", ("domainforge.cli:save_store",), None),
    ("corpus_store.load_store", ("domainforge.cli:load_store",), _count_load_store),
    ("keyword_extract.extract",
     ("domainforge.cli:extract_task_keywords", "domainforge.cli:fuse"), None),
    ("keyword_extract.extract",
     ("domainforge.keyword_extract:textrank_iterations",), _count_textrank),
    ("retrieval.build_index", ("domainforge.cli:build_index",), None),
    ("retrieval.save_index", ("domainforge.cli:save_index",), _count_save_index),
    ("retrieval.load_index", ("domainforge.cli:load_index",), None),
    ("retrieval.expand_query", ("domainforge.cli:expand_query",), _count_query),
    ("retrieval.retrieve_top_n",
     ("domainforge.retrieval:retrieve_top_n",), _count_scored),
    ("retrieval.select_corpus", ("domainforge.cli:select_corpus",), _count_selection),
    ("lora_model.build_vocab", ("domainforge.cli:build_vocab",), None),
    ("lora_model.forward",
     ("domainforge.trainer:forward_batch", "domainforge.lora_model:forward_batch"),
     _count_forward),
    ("lora_model.forward", ("domainforge.lora_model:model_forward",), None),
    ("lora_model.loss", ("domainforge.trainer:masked_next_token_loss",), _count_step),
    ("lora_model.backward", ("domainforge.trainer:backward_batch",), None),
    ("lora_model.generate",
     ("domainforge.evaluator:greedy_generate",), _count_generate),
    ("lora_model.save_checkpoint",
     ("domainforge.cli:save_checkpoint",), _count_save_ckpt),
    ("lora_model.load_checkpoint",
     ("domainforge.cli:load_checkpoint", "domainforge.lora_model:load_checkpoint"),
     None),
    ("trainer", ("domainforge.cli:pretrain", "domainforge.cli:finetune"), None),
    ("trainer.chunk", ("domainforge.trainer:chunk_token_stream",), None),
    ("evaluator", ("domainforge.evaluator:evaluate",), None),
)

# reported self-time metric -> span name
SELF_TIMES = {
    "cli.self_s": "cli",
    "corpus_store.load_raw_records_s": "corpus_store.load_raw_records",
    "corpus_store.clean_text_s": "corpus_store.clean_text",
    "corpus_store.ingest_s": "corpus_store.ingest",
    "corpus_store.save_store_s": "corpus_store.save_store",
    "corpus_store.tokenize_s": "corpus_store.tokenize",
    "corpus_store.load_store_s": "corpus_store.load_store",
    "keyword_extract.extract_s": "keyword_extract.extract",
    "retrieval.build_index_s": "retrieval.build_index",
    "retrieval.save_index_s": "retrieval.save_index",
    "retrieval.load_index_s": "retrieval.load_index",
    "retrieval.expand_query_s": "retrieval.expand_query",
    "retrieval.retrieve_top_n_s": "retrieval.retrieve_top_n",
    "retrieval.select_corpus_s": "retrieval.select_corpus",
    "lora_model.build_vocab_s": "lora_model.build_vocab",
    "trainer.chunk_s": "trainer.chunk",
    "lora_model.forward_s": "lora_model.forward",
    "lora_model.loss_s": "lora_model.loss",
    "lora_model.backward_s": "lora_model.backward",
    "trainer.self_s": "trainer",
    "lora_model.generate_s": "lora_model.generate",
    "evaluator.self_s": "evaluator",
    "lora_model.save_checkpoint_s": "lora_model.save_checkpoint",
    "lora_model.load_checkpoint_s": "lora_model.load_checkpoint",
}


def _resolve(target: str):
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run]
        self.counts: dict[tuple[int, str], float] = {}
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float, reduce=None) -> None:
        slot = (self.run, key)
        old = self.counts.get(slot)
        if old is None:
            self.counts[slot] = value
        else:
            self.counts[slot] = reduce(old, value) if reduce else old + value

    def _wrap(self, name: str, original, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self.count, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, targets, hook in PROBES:
            for target in targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[tuple[int, str], float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[int, str], float] = defaultdict(float)
        for (name, start, end, _, run), inner in zip(self.spans, child):
            out[(run, name)] += end - start - inner
        return out

    def layer_metrics(self, runs: int) -> dict[str, float]:
        """Median over runs of each self time and count the trace observed."""
        selfs = self.self_times()
        spans = {name for _, name in selfs}
        metrics = {
            metric: statistics.median(selfs.get((r, span), 0.0) for r in range(runs))
            for metric, span in SELF_TIMES.items()
            if span in spans
        }
        for key in sorted({key for _, key in self.counts}):
            metrics[key] = statistics.median(
                self.counts.get((r, key), 0) for r in range(runs)
            )
        return metrics

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, run]) + "\n")
