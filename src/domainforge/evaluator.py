"""Multiple-choice evaluation for diagnosis questions.

Items carry labeled options and a gold label; a responder is any callable
mapping prompt text to response text.  Option extraction scans the response
for answer-announcement patterns and takes the last valid one, so models may
reason at length before committing.  Responses with no extractable option
count as ABSTAIN and score as incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .artifact import write_lines
from .corpus_store import Tokenizer, as_str, read_jsonl
from .lora_model import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    ModelState,
    Vocab,
    detokenize,
    greedy_generate,
)

ABSTAIN = "ABSTAIN"
OPTION_LABELS = "ABCDE"
MIN_OPTIONS = 2
MAX_OPTIONS = 5
DEFAULT_MAX_NEW_TOKENS = 256
MODEL_RESPONDER_MIN_ROOM = 32

Responder = Callable[[str], str]


@dataclass(frozen=True)
class McqItem:
    stem: str
    options: tuple[tuple[str, str], ...]  # (label, text) pairs
    gold: str

    def __post_init__(self):
        if not MIN_OPTIONS <= len(self.options) <= MAX_OPTIONS:
            raise ValueError(
                f"need {MIN_OPTIONS}..{MAX_OPTIONS} options, got {len(self.options)}"
            )
        labels = tuple(label for label, _ in self.options)
        expected = tuple(OPTION_LABELS[: len(self.options)])
        if labels != expected:
            raise ValueError(f"labels must be {expected}, got {labels}")
        if self.gold not in labels:
            raise ValueError(f"gold {self.gold!r} not among labels {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.options)


def build_diagnosis_mcq(
    patient_info: str,
    gold_answer: str,
    distractor_pool: Sequence[str],
    seed: int,
) -> McqItem:
    """Five-option item: the gold answer plus four sampled distractors,
    shuffled deterministically by seed."""
    pool = sorted({d for d in distractor_pool if d and d != gold_answer})
    if len(pool) < 4:
        raise ValueError(
            f"need at least 4 distinct distractors besides the answer, "
            f"got {len(pool)}"
        )
    rng = random.Random(seed)
    texts = rng.sample(pool, 4) + [gold_answer]
    rng.shuffle(texts)
    options = tuple(
        (OPTION_LABELS[i], text) for i, text in enumerate(texts)
    )
    gold_label = OPTION_LABELS[texts.index(gold_answer)]
    return McqItem(stem=patient_info, options=options, gold=gold_label)


def format_prompt(item: McqItem) -> str:
    listing = "; ".join(f"{label}. {text}" for label, text in item.options)
    return f"{item.stem}\n回答选项：{listing}\n请分析并给出正确选项。"


_ANSWER_RE = re.compile(
    r"正确选项是\s*([A-Z])"
    r"|选\s*([A-Z])"
    r"|(?<![A-Za-z0-9])([A-Z])[.、]"
)


def extract_option(response: str, labels: Sequence[str]) -> str:
    """The last announced option whose letter is a valid label, else ABSTAIN.

    Total: any string maps to a label or ABSTAIN, never an exception.
    """
    valid = set(labels)
    found = ABSTAIN
    for match in _ANSWER_RE.finditer(response):
        letter = next(g for g in match.groups() if g is not None)
        if letter in valid:
            found = letter
    return found


@dataclass(frozen=True)
class EvalItemResult:
    index: int
    gold: str
    predicted: str
    correct: bool


@dataclass(frozen=True)
class EvalReport:
    results: tuple[EvalItemResult, ...]
    accuracy: float
    abstain_count: int

    def __len__(self) -> int:
        return len(self.results)


def evaluate(responder: Responder, items: Sequence[McqItem]) -> EvalReport:
    if not items:
        raise ValueError("no items to evaluate")
    results = []
    for i, item in enumerate(items):
        response = responder(format_prompt(item))
        predicted = extract_option(response, item.labels)
        results.append(
            EvalItemResult(
                index=i,
                gold=item.gold,
                predicted=predicted,
                correct=predicted == item.gold,
            )
        )
    correct = sum(1 for r in results if r.correct)
    abstain = sum(1 for r in results if r.predicted == ABSTAIN)
    return EvalReport(
        results=tuple(results),
        accuracy=correct / len(results),
        abstain_count=abstain,
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"{r.index}\t{r.gold}\t{r.predicted}\t{int(r.correct)}"
        for r in report.results
    ]
    lines.append(
        f"accuracy={report.accuracy:.4f} n={len(report)} "
        f"abstain={report.abstain_count}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Responders

def make_model_responder(
    state: ModelState,
    vocab: Vocab,
    tokenizer: Tokenizer,
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
) -> Responder:
    """Greedy decoding; the prompt is left-truncated so some room to answer
    always remains in the context window."""
    specials = {PAD_ID, BOS_ID, EOS_ID, UNK_ID}
    window = max(1, state.config.max_seq_len - 1 - MODEL_RESPONDER_MIN_ROOM)

    def respond(prompt: str) -> str:
        ids = vocab.encode(tokenizer.tokenize(prompt))
        if len(ids) > window:
            ids = ids[len(ids) - window :]
        new_ids = greedy_generate(state, [BOS_ID] + ids, max_new_tokens)
        return detokenize(vocab.decode([i for i in new_ids if i not in specials]))

    return respond


def make_gold_responder(items: Iterable[McqItem]) -> Responder:
    """Answers every known prompt with its gold option; an accuracy ceiling."""
    table = {format_prompt(item): f"正确选项是{item.gold}。" for item in items}

    def respond(prompt: str) -> str:
        return table.get(prompt, "")

    return respond


def empty_responder(prompt: str) -> str:
    """Always silent; pins the abstain floor."""
    return ""


# ---------------------------------------------------------------------------
# Exam files

def save_exam(items: Iterable[McqItem], path: str | Path) -> None:
    lines = []
    for item in items:
        lines.append(
            json.dumps(
                {
                    "stem": item.stem,
                    "options": [text for _, text in item.options],
                    "gold": item.gold,
                },
                ensure_ascii=False,
            )
        )
    write_lines(path, lines)


def _parse_item(obj: dict) -> McqItem:
    options = obj["options"]
    if not isinstance(options, list):
        raise TypeError(f"options must be a list of strings, got {type(options).__name__}")
    texts = [as_str("option", text) for text in options]
    if len(texts) > len(OPTION_LABELS):
        raise ValueError(f"need {MIN_OPTIONS}..{MAX_OPTIONS} options, got {len(texts)}")
    return McqItem(
        stem=as_str("stem", obj["stem"]),
        options=tuple(zip(OPTION_LABELS, texts)),
        gold=as_str("gold", obj["gold"]),
    )


def load_exam(path: str | Path) -> list[McqItem]:
    return read_jsonl(path, _parse_item)
