"""Inverted index, BM25 scoring against the weight-expanded query, and
budgeted corpus selection.

In memory each term's postings are two ``uint32`` NumPy columns (see
``Postings``), so building, saving, loading and scoring the index touch no
Python object per posting.  ``build_index`` takes every token of the store as
the tokenizer's integer term code (``Tokenizer.term_codes``) and sorts one
(term code, doc id) key per token, so it touches no Python object per token
either; it names a term only once, for its postings.  The index file is an
artifact envelope (see ``artifact.py``) under magic ``DFIDX2`` whose
little-endian body holds the document count, ``avgdl``, ``k1`` and ``b``
(``<Qddd``), the 8-byte digest of the store file it indexes (whose tokenizer
it uses), each document's length (``<Q``), then the term count and a
length-prefixed term dictionary with each term's postings as ``<II`` (doc id
delta, tf) pairs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .artifact import NO_FILE_DIGEST, Cursor, load_artifact, pack_text, write_artifact, write_lines
from .corpus_store import CorpusStore, get_tokenizer
from .errors import EmptyCorpusError, NoPositiveScoreError, SelectionBudgetError
from .keyword_extract import DomainKeywordSet

INDEX_MAGIC = b"DFIDX2"
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
MAX_QUERY_REPETITIONS = 3


@dataclass(frozen=True, eq=False)
class Postings:
    """One term's postings: strictly ascending ``doc_ids`` and their term
    frequencies ``tfs``, as two ``uint32`` columns of equal length."""

    doc_ids: np.ndarray
    tfs: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Postings):
            return NotImplemented
        return np.array_equal(self.doc_ids, other.doc_ids) and np.array_equal(
            self.tfs, other.tfs
        )


@dataclass
class InvertedIndex:
    """Postings, document lengths, and the BM25 parameters.

    Postings map term -> ``Postings`` columns sorted by doc_id;
    ``doc_lengths[doc_id]`` is that document's token count, and
    ``store_digest`` is the ``CorpusStore.digest`` of the store it indexes.
    """

    postings: dict[str, Postings]
    doc_lengths: list[int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    store_digest: bytes = NO_FILE_DIGEST

    @property
    def num_docs(self) -> int:
        return len(self.doc_lengths)

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: int) -> int:
        plist = self.postings.get(term)
        if not plist:
            return 0
        pos = int(np.searchsorted(plist.doc_ids, doc_id))
        if pos < len(plist) and plist.doc_ids[pos] == doc_id:
            return int(plist.tfs[pos])
        return 0


@dataclass(frozen=True)
class ExpandedQuery:
    """Query term multiset; each keyword is repeated per its capped weight."""

    counts: Mapping[str, int]

    def __len__(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: int
    score: float


def _run_starts(col: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``col`` starts."""
    start = np.ones(len(col), dtype=bool)
    np.not_equal(col[1:], col[:-1], out=start[1:])
    return np.flatnonzero(start)


def _check_bm25(k1: float, b: float) -> None:
    if not 0.0 < k1 < math.inf:
        raise ValueError(f"k1 must be positive and finite, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")


def build_index(
    store: CorpusStore, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Build the complete inverted index over a non-empty store."""
    if len(store) == 0:
        raise EmptyCorpusError("cannot index an empty corpus (avgdl undefined)")
    _check_bm25(k1, b)
    tokenizer = get_tokenizer(store.tokenizer_id)
    codes, lengths, term = tokenizer.term_codes(store.documents.texts)
    # one (term code, doc id) key per token: sorted, the keys group by term
    # and each term's by ascending doc id, and a run of equal keys is one
    # posting
    keys = codes.astype(np.uint64)
    del codes
    keys <<= np.uint64(32)
    keys |= np.repeat(np.arange(len(store), dtype=np.uint64), lengths)
    keys.sort()
    starts = _run_starts(keys)
    tf_col = np.diff(starts, append=len(keys)).astype(np.uint32)
    keys = keys[starts]
    doc_col = keys.astype(np.uint32)
    # each posting's term code: a run of equal codes is one term's postings
    keys >>= np.uint64(32)
    firsts = _run_starts(keys)
    postings = {
        term(code): Postings(doc_col[start:end], tf_col[start:end])
        for code, start, end in zip(
            keys[firsts].tolist(), firsts.tolist(), (*firsts[1:].tolist(), len(keys))
        )
    }
    doc_lengths = lengths.tolist()
    avgdl = sum(doc_lengths) / len(doc_lengths)
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        k1=k1,
        b=b,
        store_digest=store.digest,
    )


def idf(index: InvertedIndex, term: str) -> float:
    """Nonnegative IDF: ln(1 + (N - n + 0.5) / (n + 0.5))."""
    n = index.doc_frequency(term)
    return math.log(1.0 + (index.num_docs - n + 0.5) / (n + 0.5))


def _tf_component(index: InvertedIndex, tf, doc_len):
    """BM25's saturated term frequency; ``tf`` and ``doc_len`` are numbers or
    equal-length arrays."""
    norm = 1.0 - index.b + index.b * doc_len / index.avgdl
    return tf * (index.k1 + 1.0) / (tf + index.k1 * norm)


def bm25_score(index: InvertedIndex, doc_id: int, query: ExpandedQuery) -> float:
    """Relevance of one document: sum over query terms with multiplicity.

    Terms absent from the index contribute exactly 0.  Terms are accumulated
    in sorted order so single-document scoring, ranked retrieval, and any
    brute-force re-scorer all add the same floats in the same order.
    """
    if not 0 <= doc_id < index.num_docs:
        raise ValueError(f"doc_id {doc_id} out of range [0, {index.num_docs})")
    doc_len = index.doc_lengths[doc_id]
    score = 0.0
    # count stays the outer factor: repeating a term c times then scales its
    # one-occurrence contribution by exactly c
    for term in sorted(query.counts):
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            continue
        unit = idf(index, term) * _tf_component(index, tf, doc_len)
        score += query.counts[term] * unit
    return score


def expand_query(kset: DomainKeywordSet, tokenizer_id: str) -> ExpandedQuery:
    """Repeat each keyword max(1, min(floor(weight), 3)) times.

    Keywords are tokenized with the store's tokenizer; a multi-token keyword
    contributes every one of its tokens at the keyword's multiplicity.
    """
    tokenizer = get_tokenizer(tokenizer_id)
    counts: dict[str, int] = {}
    for entry in kset.entries:
        reps = max(1, min(math.floor(entry.weight), MAX_QUERY_REPETITIONS))
        for token in tokenizer.tokenize(entry.keyword):
            counts[token] = counts.get(token, 0) + reps
    return ExpandedQuery(counts=counts)


def retrieve_top_n(index: InvertedIndex, query: ExpandedQuery, n: int) -> list[ScoredDoc]:
    """The n highest positive-scoring documents, score-descending, id-ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scores = np.zeros(index.num_docs)
    doc_lens = np.array(index.doc_lengths, dtype=np.float64)
    for term in sorted(query.counts):
        plist = index.postings.get(term)
        if not plist:
            continue
        # same association as bm25_score, elementwise over the term's
        # postings, so both add identical floats
        unit = idf(index, term) * _tf_component(index, plist.tfs, doc_lens[plist.doc_ids])
        scores[plist.doc_ids] += query.counts[term] * unit
    positive = np.flatnonzero(scores > 0.0)
    # score-descending, then id-ascending
    ranked = positive[np.lexsort((positive, -scores[positive]))][:n]
    return [ScoredDoc(d, s) for d, s in zip(ranked.tolist(), scores[ranked].tolist())]


@dataclass(frozen=True)
class CorpusSelection:
    """A budgeted selection: the new store plus its provenance mapping.

    ``provenance[new_doc_id] = (original_doc_id, score)``.
    """

    store: CorpusStore
    provenance: tuple[tuple[int, float], ...]

    @property
    def selected_tokens(self) -> int:
        return self.store.total_tokens


def select_corpus(
    index: InvertedIndex,
    store: CorpusStore,
    query: ExpandedQuery,
    token_budget: int,
) -> CorpusSelection:
    """Greedily take ranked documents until the next one would exceed the budget.

    All selected documents have positive score; doc_ids are re-densified in
    the output store and the provenance mapping records the original ids.
    """
    if token_budget < 1:
        raise ValueError(f"token_budget must be >= 1, got {token_budget}")
    if index.num_docs != len(store):
        raise ValueError(f"index covers {index.num_docs} documents but the store has {len(store)}")
    # each document holds at least the store's fewest tokens, m, so at most
    # budget // m documents fit and the ranking past one more is never read
    counts = store.documents.token_counts
    budget = min(token_budget, store.total_tokens)
    fewest = int(counts.min()) if len(counts) else 0
    n = index.num_docs if fewest == 0 else min(index.num_docs, budget // fewest + 1)
    ranked = retrieve_top_n(index, query, n=max(1, n))
    if not ranked:
        raise NoPositiveScoreError(
            "no positive-score documents for the expanded query "
            f"({len(query)} query terms over {index.num_docs} documents)"
        )
    # the greedy walk down the ranking stops at the first document whose
    # tokens would pass the budget: the longest prefix within it
    ids = [sd.doc_id for sd in ranked]
    used = np.cumsum(counts[ids])
    # every prefix sum is at most the store's total, so clamping the budget
    # there changes no comparison and keeps it within uint64
    taken = int(np.searchsorted(used, budget, side="right"))
    if not taken:
        raise SelectionBudgetError(
            f"token budget {token_budget} is smaller than the top-ranked "
            f"document (doc_id {ids[0]}, {used[0]} tokens)"
        )
    new_store = CorpusStore(
        documents=store.documents.take(ids[:taken]), tokenizer_id=store.tokenizer_id
    )
    provenance = tuple((sd.doc_id, sd.score) for sd in ranked[:taken])
    return CorpusSelection(store=new_store, provenance=provenance)


# ---------------------------------------------------------------------------
# Persistence

def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the versioned binary index; saves are byte-deterministic."""
    terms = sorted(index.postings)
    plists = [index.postings[term] for term in terms]
    lengths = np.fromiter(map(len, plists), dtype=np.int64, count=len(plists))
    ends = np.cumsum(lengths)
    # every term's (doc id delta, tf) pairs in one array: one diff over the
    # concatenated doc ids, reset at each term's first posting
    pairs = np.empty((int(lengths.sum()), 2), dtype="<u4")
    if plists:
        np.concatenate([p.doc_ids for p in plists], out=pairs[:, 0])
        np.concatenate([p.tfs for p in plists], out=pairs[:, 1])
    firsts = (ends - lengths)[lengths > 0]
    first_ids = pairs[firsts, 0]
    pairs[1:, 0] -= pairs[:-1, 0]
    pairs[firsts, 0] = first_ids
    raw = memoryview(pairs).cast("B")
    parts = [
        struct.pack("<Q", index.num_docs),
        struct.pack("<ddd8s", index.avgdl, index.k1, index.b, index.store_digest),
        struct.pack(f"<{index.num_docs}Q", *index.doc_lengths),
        struct.pack("<Q", len(terms)),
    ]
    for term, n, end in zip(terms, lengths.tolist(), ends.tolist()):
        parts += (pack_text(term) + struct.pack("<Q", n), raw[8 * (end - n) : 8 * end])
    write_artifact(path, INDEX_MAGIC, b"".join(parts))


def _parse_index(cursor: Cursor) -> InvertedIndex:
    (num_docs,) = cursor.unpack("<Q")
    avgdl, k1, b, store_digest = cursor.unpack("<ddd8s")
    doc_lengths = list(cursor.unpack(f"<{num_docs}Q"))
    if avgdl != sum(doc_lengths) / num_docs:
        raise ValueError(f"avgdl {avgdl!r} is not the mean document length")
    _check_bm25(k1, b)
    (num_terms,) = cursor.unpack("<Q")
    postings: dict[str, Postings] = {}
    for _ in range(num_terms):
        term = cursor.text()
        if term in postings:
            raise ValueError(f"term {term!r} is listed twice")
        (plen,) = cursor.unpack("<Q")
        pairs = np.frombuffer(cursor.take(8 * plen), dtype="<u4").reshape(plen, 2)
        # int64, so that forged deltas cannot wrap around 2**32
        doc_ids = np.cumsum(pairs[:, 0], dtype=np.int64)
        if plen and not (
            doc_ids[-1] < num_docs and pairs[1:, 0].all() and pairs[:, 1].all()
        ):
            raise ValueError(
                f"postings of term {term!r} are not strictly ascending doc ids "
                f"below {num_docs} with nonzero term frequencies"
            )
        postings[term] = Postings(doc_ids.astype(np.uint32), pairs[:, 1].astype(np.uint32))
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        k1=k1,
        b=b,
        store_digest=store_digest,
    )


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index file, verifying magic, completeness, and checksum."""
    return load_artifact(path, INDEX_MAGIC, _parse_index)


def save_provenance(selection: CorpusSelection, path: str | Path) -> None:
    """Write new_doc_id<TAB>original_doc_id<TAB>score lines."""
    lines = [
        f"{new_id}\t{orig_id}\t{score!r}"
        for new_id, (orig_id, score) in enumerate(selection.provenance)
    ]
    write_lines(path, lines)
