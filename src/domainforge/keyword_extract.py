"""Graph-ranked keyword extraction with occurrence weights and lexicon fusion.

Task keywords come from a damped fixed-point iteration over a windowed
co-occurrence graph, one graph per sample.  A keyword appearing in the top-k
of ``n`` samples gets weight ``1 + ln(n)``; lexicon words absent from the
task samples join the fused set at weight 1.0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .artifact import NO_FILE_DIGEST, read_text, read_text_digest, write_lines
from .corpus_store import Tokenizer

DEFAULT_DAMPING = 0.85
DEFAULT_WINDOW = 5
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100
DEFAULT_TOP_K = 5

# Small default stopword list for candidate filtering; callers may extend or
# replace it.  Mostly Chinese function words plus a few English ones.
DEFAULT_STOPWORDS = frozenset(
    "的 了 是 在 和 与 或 及 等 之 其 此 该 为 于 以 被 把 将 就 都 而 且 也 又 如 若 因 故 "
    "这 那 哪 何 谁 我 你 他 她 它 们 个 只 不 没 很 更 最 可 能 会 要 有 无 上 下 中 "
    "the a an of to in and or is are was were for with".split()
)


@dataclass
class CooccurrenceGraph:
    """Undirected token graph; edge weights count windowed co-occurrences.

    Adjacency preserves insertion order so that iteration over a relabeled
    graph replays the same float operations, keeping ranking scores exactly
    permutation-equivariant.
    """

    adjacency: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def nodes(self) -> list[str]:
        return list(self.adjacency)

    def edge_weight(self, a: str, b: str) -> int:
        return self.adjacency.get(a, {}).get(b, 0)

    def _add_node(self, token: str) -> None:
        self.adjacency.setdefault(token, {})

    def _add_edge(self, a: str, b: str) -> None:
        self.adjacency[a][b] = self.adjacency[a].get(b, 0) + 1
        self.adjacency[b][a] = self.adjacency[b].get(a, 0) + 1


def build_graph(
    tokens: Sequence[str],
    window: int,
    stopwords: Iterable[str] | None = None,
) -> CooccurrenceGraph:
    """Build the co-occurrence graph over ``tokens`` with the given window.

    Two distinct tokens are joined iff they appear within ``window`` positions
    of each other; the edge weight counts such co-occurrences.  Self-edges are
    never created.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    stop = frozenset(stopwords) if stopwords is not None else frozenset()
    filtered = [t for t in tokens if t not in stop]
    graph = CooccurrenceGraph()
    for tok in filtered:
        graph._add_node(tok)
    for i, a in enumerate(filtered):
        for j in range(i + 1, min(i + window, len(filtered))):
            b = filtered[j]
            if a != b:
                graph._add_edge(a, b)
    return graph


def textrank_iterations(
    graph: CooccurrenceGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[dict[str, float], int]:
    """Run the damped fixed-point iteration; returns (scores, iterations used).

    Update rule per node v:
        score(v) = (1 - d) + d * sum_u  w(u,v) / strength(u) * score(u)
    over neighbors u, where strength(u) is u's total incident edge weight.
    Starts from all-ones and stops when the max per-node change drops below
    ``tol`` or after ``max_iter`` sweeps.  Isolated nodes score exactly 1 - d.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    # not ``tol <= 0``: NaN compares false both ways, and ``delta < nan``
    # would never stop the sweeps
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    adj = graph.adjacency
    strength = {v: float(sum(nbrs.values())) for v, nbrs in adj.items()}
    scores = {v: 1.0 for v in adj}
    for iterations in range(1, max_iter + 1):
        new: dict[str, float] = {}
        for v, nbrs in adj.items():
            acc = 0.0
            for u, w in nbrs.items():
                acc += w / strength[u] * scores[u]
            new[v] = (1.0 - damping) + damping * acc
        delta = max((abs(new[v] - scores[v]) for v in adj), default=0.0)
        scores = new
        if delta < tol:
            break
    return scores, iterations


def textrank(
    graph: CooccurrenceGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    """Node importance scores (see :func:`textrank_iterations`)."""
    scores, _ = textrank_iterations(graph, damping, tol, max_iter)
    return scores


def top_k_keywords(scores: Mapping[str, float], k: int = DEFAULT_TOP_K) -> list[str]:
    """The k highest-scoring keywords, score-descending, ties lexicographic."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [kw for kw, _ in ranked[:k]]


def keyword_weight(count: int) -> float:
    """Occurrence-count weight 1 + ln(count); counts must be >= 1."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return 1.0 + math.log(count)


PROVENANCE_TASK = "task"
PROVENANCE_LEXICON = "lexicon"
PROVENANCE_BOTH = "both"
PROVENANCES = (PROVENANCE_TASK, PROVENANCE_LEXICON, PROVENANCE_BOTH)


@dataclass(frozen=True)
class WeightedKeyword:
    """A keyword with its sample-occurrence count, weight, and provenance."""

    keyword: str
    count: int
    weight: float
    provenance: str


@dataclass(frozen=True)
class DomainKeywordSet:
    """Fused keyword set; entries sorted by weight descending, keyword ascending.
    ``digest``, which equality ignores, is the file's that ``load_keywords`` read."""

    entries: tuple[WeightedKeyword, ...]
    digest: bytes = field(default=NO_FILE_DIGEST, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    def keywords(self) -> set[str]:
        return {e.keyword for e in self.entries}

    def get(self, keyword: str) -> WeightedKeyword | None:
        for e in self.entries:
            if e.keyword == keyword:
                return e
        return None


def _sorted_entries(entries: Iterable[WeightedKeyword]) -> tuple[WeightedKeyword, ...]:
    return tuple(sorted(entries, key=lambda e: (-e.weight, e.keyword)))


def _is_single_latin(token: str) -> bool:
    return len(token) == 1 and token.isascii() and token.isalpha()


def filter_candidates(
    tokens: Sequence[str], stopwords: Iterable[str] = DEFAULT_STOPWORDS
) -> list[str]:
    """Drop stopwords and single-character Latin tokens before graph building."""
    stop = frozenset(stopwords)
    return [t for t in tokens if t not in stop and not _is_single_latin(t)]


def extract_task_keywords(
    samples: Sequence[str],
    tokenizer: Tokenizer,
    window: int = DEFAULT_WINDOW,
    k: int = DEFAULT_TOP_K,
    stopwords: Iterable[str] = DEFAULT_STOPWORDS,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, WeightedKeyword]:
    """Per-sample ranked extraction; counts tally samples whose top-k hit a keyword.

    Returns the task keyword set as a mapping keyword -> WeightedKeyword with
    provenance ``task`` and weight ``1 + ln(count)``.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    counts: Counter[str] = Counter()
    for sample in samples:
        candidates = filter_candidates(tokenizer.tokenize(sample), stopwords)
        graph = build_graph(candidates, window)
        scores = textrank(graph, damping, tol, max_iter)
        counts.update(top_k_keywords(scores, k))
    return {
        kw: WeightedKeyword(kw, n, keyword_weight(n), PROVENANCE_TASK)
        for kw, n in counts.items()
    }


def fuse(
    task_keywords: Mapping[str, WeightedKeyword],
    lexicon: Iterable[str],
) -> DomainKeywordSet:
    """Union the task set with the lexicon word list.

    Keywords present in both keep the task-derived count and weight with
    provenance ``both``; lexicon-only entries get count 0 and weight 1.0.
    """
    lexicon_words = list(dict.fromkeys(lexicon))
    entries: dict[str, WeightedKeyword] = {}
    for kw, entry in task_keywords.items():
        entries[kw] = entry
    for word in lexicon_words:
        if word in entries:
            prev = entries[word]
            entries[word] = WeightedKeyword(
                word, prev.count, prev.weight, PROVENANCE_BOTH
            )
        else:
            entries[word] = WeightedKeyword(word, 0, 1.0, PROVENANCE_LEXICON)
    return DomainKeywordSet(entries=_sorted_entries(entries.values()))


# ---------------------------------------------------------------------------
# Persistence

def save_keywords(kset: DomainKeywordSet, path: str | Path) -> None:
    """Write keyword<TAB>count<TAB>weight<TAB>provenance lines, sorted."""
    lines = [
        f"{e.keyword}\t{e.count}\t{e.weight!r}\t{e.provenance}"
        for e in kset.entries
    ]
    write_lines(path, lines)


def load_keywords(path: str | Path) -> DomainKeywordSet:
    """Read the lines ``save_keywords`` writes; a malformed line, a negative
    count, a non-finite weight or an unknown provenance raises
    ``ValueError`` naming the file and line."""
    entries = []
    text, digest = read_text_digest(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 4:
                raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
            kw, count, weight, prov = fields
            count, weight = int(count), float(weight)
            if count < 0:
                raise ValueError(f"count must be >= 0, got {count}")
            if not math.isfinite(weight):
                raise ValueError(f"weight must be finite, got {weight!r}")
            if prov not in PROVENANCES:
                raise ValueError(f"provenance must be one of {PROVENANCES}, got {prov!r}")
            entries.append(WeightedKeyword(kw, count, weight, prov))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return DomainKeywordSet(entries=_sorted_entries(entries), digest=digest)


def load_lexicon(path: str | Path) -> list[str]:
    """Read a lexicon file: one word per line, blanks skipped."""
    words = []
    for line in read_text(path).splitlines():
        word = line.strip()
        if word:
            words.append(word)
    return words
