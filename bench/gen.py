"""Seeded input generator for the pipeline benchmark.

Everything the benchmarked program reads is written here from one integer
seed, and the same seed writes byte-identical files.  The text is drawn from
a wide ideograph alphabet (6000 codepoints, Zipf-ranked) so that the default
4096-entry vocabulary fills and the vocab head has its full width.  Four
themes share the background distribution; each adds its own topic
characters, and documents of theme 0 (the in-domain theme) carry the
``indomain`` tag in their title.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from domainforge.corpus_store import (
    DEFAULT_TOKENIZER_ID,
    CorpusStore,
    Document,
    save_store,
)
from domainforge.evaluator import OPTION_LABELS, build_diagnosis_mcq, save_exam
from domainforge.lora_model import (
    SPECIAL_TOKENS,
    ModelConfig,
    Vocab,
    init_model,
    save_checkpoint,
    save_vocab,
)

ALPHABET_SIZE = 6000
ZIPF_EXPONENT = 1.0
N_THEMES = 4
IN_DOMAIN_THEME = 0
IN_DOMAIN_TAG = "indomain"
TOPIC_SIZE = 150
TOPIC_RANKS = (300, 300 + N_THEMES * TOPIC_SIZE)  # mid-frequency band
TOPIC_SHARE = 0.25  # chance a token is drawn from the theme's topic set

# corpus workload: about 20k documents and 8M tokens
CORPUS_DOCS = 20_000
CORPUS_DOC_LEN = (200, 600)
IN_DOMAIN_SHARE = 0.10
N_SAMPLES = 8
SAMPLE_LEN = 60
LEXICON_SIZE = 20
BUDGET_SHARE = 0.05

# pretrain workload: two full default batches (B=128, T=256) per epoch
PRETRAIN_SEQUENCES = 256
PRETRAIN_CHUNK = 255
PRETRAIN_DOC_LEN = 407  # 160 documents of 407 tokens + EOS fill the chunks

# tune_eval workload
SFT_PAIRS = 256
SFT_PROMPT_LEN = (30, 90)
SFT_RESPONSE_LEN = (4, 16)
EXAM_ITEMS = 50
EXAM_STEM_LEN = 200
EXAM_OPTION_LEN = 4
ADAPTER_B_NOISE = 0.05
PROMPT_TEMPLATE_CHARS = "回答选项请分析并给出正确是"
OPTION_LETTERS = "abcde"  # the tokenizer lowercases Latin


@dataclass(frozen=True)
class Alphabet:
    chars: np.ndarray  # '<U1', Zipf rank order
    background_p: np.ndarray
    topics: np.ndarray  # (N_THEMES, TOPIC_SIZE) alphabet indices

    def text(self, rng: np.random.Generator, n: int, theme) -> str:
        """n tokens; ``theme`` is one theme id or an array of n of them."""
        idx = rng.choice(ALPHABET_SIZE, size=n, p=self.background_p)
        topical = rng.random(n) < TOPIC_SHARE
        pick = rng.integers(0, TOPIC_SIZE, n)
        themes = np.broadcast_to(np.asarray(theme), (n,))
        idx[topical] = self.topics[themes[topical], pick[topical]]
        return _join(self.chars[idx])


def _join(chars: np.ndarray) -> str:
    return np.ascontiguousarray(chars, dtype="<U1").tobytes().decode("utf-32-le")


def make_alphabet(seed: int) -> Alphabet:
    rng = np.random.default_rng([seed, 1])
    # CJK unified ideographs U+4E00..U+9FA5, a seeded choice of ALPHABET_SIZE
    cps = rng.choice(np.arange(0x4E00, 0x9FA6), size=ALPHABET_SIZE, replace=False)
    chars = np.array([chr(c) for c in cps], dtype="<U1")
    ranks = np.arange(1, ALPHABET_SIZE + 1, dtype=np.float64)
    p = ranks ** -ZIPF_EXPONENT
    # theme t owns every N_THEMES-th rank of a mid-frequency band
    topics = np.arange(*TOPIC_RANKS).reshape(TOPIC_SIZE, N_THEMES).T
    return Alphabet(chars=chars, background_p=p / p.sum(), topics=topics)


# ---------------------------------------------------------------------------
# corpus workload

_NOISE = (
    "<p>{}</p>",
    "{} {{{{cite web}}}}",
    "{} http://example.org/page?id=1",
    "　{}\x07",
    "<div class=\"x\">{}</div>\n\n",
)


def _noisy(text: str, k: int) -> str:
    """Wrap in removable markup and put full-width commas between clauses;
    the cleaner strips all of it, so the token count is the ideograph count."""
    clauses = [text[i : i + 23] for i in range(0, len(text), 23)]
    return _NOISE[k % len(_NOISE)].format("，".join(clauses))


@dataclass(frozen=True)
class CorpusInputs:
    raw: Path
    samples: Path
    lexicon: Path
    budget: int
    raw_tokens: int
    in_domain_share: float


def write_corpus(seed: int, out: Path) -> CorpusInputs:
    alpha = make_alphabet(seed)
    rng = np.random.default_rng([seed, 2])
    lengths = rng.integers(CORPUS_DOC_LEN[0], CORPUS_DOC_LEN[1] + 1, CORPUS_DOCS)
    in_domain = rng.random(CORPUS_DOCS) < IN_DOMAIN_SHARE
    other = rng.integers(1, N_THEMES, CORPUS_DOCS)
    themes = np.where(in_domain, IN_DOMAIN_THEME, other)
    # one vectorized draw for the whole corpus, then slice per document
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    text = alpha.text(rng, int(offsets[-1]), np.repeat(themes, lengths))
    lines = []
    for i in range(CORPUS_DOCS):
        theme = int(themes[i])
        tag = IN_DOMAIN_TAG if theme == IN_DOMAIN_THEME else f"theme{theme}"
        body = _noisy(text[offsets[i] : offsets[i + 1]], i)
        record = {"source_id": f"doc-{i:06d}", "title": f"{tag} {i}", "body": body}
        lines.append(json.dumps(record, ensure_ascii=False))
    raw = out / "raw.jsonl"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")

    samples = out / "samples.txt"
    samples.write_text(
        "\n".join(
            "，".join(
                alpha.text(rng, SAMPLE_LEN // 3, IN_DOMAIN_THEME) for _ in range(3)
            )
            for _ in range(N_SAMPLES)
        )
        + "\n",
        encoding="utf-8",
    )
    topic = alpha.topics[IN_DOMAIN_THEME]
    picks = rng.choice(topic, size=(LEXICON_SIZE, 2), replace=True)
    lexicon = out / "lexicon.txt"
    lexicon.write_text(
        "\n".join(_join(alpha.chars[row]) for row in picks) + "\n", encoding="utf-8"
    )
    raw_tokens = int(lengths.sum())
    return CorpusInputs(
        raw=raw,
        samples=samples,
        lexicon=lexicon,
        budget=int(raw_tokens * BUDGET_SHARE),
        raw_tokens=raw_tokens,
        in_domain_share=float(in_domain.mean()),
    )


# ---------------------------------------------------------------------------
# pretrain workload

@dataclass(frozen=True)
class PretrainInputs:
    store: Path
    target_positions_per_epoch: int


def write_pretrain(seed: int, out: Path) -> PretrainInputs:
    """A selected store (in-domain documents) whose token stream, EOS
    included, fills exactly PRETRAIN_SEQUENCES chunks of PRETRAIN_CHUNK."""
    alpha = make_alphabet(seed)
    rng = np.random.default_rng([seed, 3])
    stream = PRETRAIN_SEQUENCES * PRETRAIN_CHUNK
    n_docs = stream // (PRETRAIN_DOC_LEN + 1)
    assert n_docs * (PRETRAIN_DOC_LEN + 1) == stream
    docs = tuple(
        Document(
            doc_id=i,
            title=f"{IN_DOMAIN_TAG} {i}",
            text=alpha.text(rng, PRETRAIN_DOC_LEN, IN_DOMAIN_THEME),
            token_count=PRETRAIN_DOC_LEN,
        )
        for i in range(n_docs)
    )
    store = out / "selected.store"
    save_store(CorpusStore(documents=docs, tokenizer_id=DEFAULT_TOKENIZER_ID), store)
    return PretrainInputs(store=store, target_positions_per_epoch=stream)


# ---------------------------------------------------------------------------
# tune_eval workload

@dataclass(frozen=True)
class TuneEvalInputs:
    checkpoint: Path
    pairs: Path
    exam: Path
    n_pairs: int


def _setup_vocab(alpha: Alphabet, cap: int) -> Vocab:
    """The exam template's characters and option letters, then the alphabet
    in rank order, up to ``cap`` entries with the specials."""
    tokens = dict.fromkeys(PROMPT_TEMPLATE_CHARS + OPTION_LETTERS)
    tokens.update(dict.fromkeys(map(str, alpha.chars)))
    return Vocab(tokens=SPECIAL_TOKENS + tuple(tokens)[: cap - len(SPECIAL_TOKENS)])


def write_tune_eval(seed: int, out: Path) -> TuneEvalInputs:
    """SFT pairs, an MCQ exam, and a default-config checkpoint whose adapter
    B tensors carry seeded noise so the adapter path is live."""
    alpha = make_alphabet(seed)
    rng = np.random.default_rng([seed, 4])
    config = ModelConfig(vocab_size=4096)
    vocab = _setup_vocab(alpha, config.vocab_size)
    state = init_model(config, seed=seed)
    for name, arr in state.params.items():
        if ".lora." in name and name.endswith(".b"):
            state.params[name] = rng.normal(0.0, ADAPTER_B_NOISE, arr.shape).astype(
                arr.dtype
            )
    checkpoint = out / "setup.ckpt"
    save_checkpoint(checkpoint, state, "pretrain")
    save_vocab(vocab, f"{checkpoint}.vocab")

    pairs = []
    for _ in range(SFT_PAIRS):
        p_len = int(rng.integers(SFT_PROMPT_LEN[0], SFT_PROMPT_LEN[1] + 1))
        r_len = int(rng.integers(SFT_RESPONSE_LEN[0], SFT_RESPONSE_LEN[1] + 1))
        prompt = alpha.text(rng, p_len, IN_DOMAIN_THEME)
        answer = OPTION_LABELS[int(rng.integers(0, len(OPTION_LABELS)))]
        response = alpha.text(rng, r_len, IN_DOMAIN_THEME) + f"，正确选项是{answer}。"
        pair = {"prompt": prompt, "response": response}
        pairs.append(json.dumps(pair, ensure_ascii=False))
    pairs_path = out / "pairs.jsonl"
    pairs_path.write_text("\n".join(pairs) + "\n", encoding="utf-8")

    pool = sorted(
        {alpha.text(rng, EXAM_OPTION_LEN, IN_DOMAIN_THEME) for _ in range(40)}
    )
    items = [
        build_diagnosis_mcq(
            alpha.text(rng, EXAM_STEM_LEN, IN_DOMAIN_THEME),
            pool[int(rng.integers(0, len(pool)))],
            pool,
            seed=seed * 1000 + i,
        )
        for i in range(EXAM_ITEMS)
    ]
    exam = out / "exam.jsonl"
    save_exam(items, exam)
    return TuneEvalInputs(
        checkpoint=checkpoint,
        pairs=pairs_path,
        exam=exam,
        n_pairs=SFT_PAIRS,
    )


WRITERS = {
    "corpus": write_corpus,
    "pretrain": write_pretrain,
    "tune_eval": write_tune_eval,
}
