"""Inverted index, BM25 scoring against the weight-expanded query, and
budgeted corpus selection.

In memory each term's postings are two ``uint32`` NumPy columns (see
``Postings``), so building, saving, loading and scoring the index touch no
Python object per posting.  ``build_index`` takes every token of the store as
the tokenizer's integer term code (``Tokenizer.term_codes``) and sorts one
(term code, doc id) key per token, so it touches no Python object per token
either; it names a term only once, for its postings.  The index file is an
artifact envelope (see ``artifact.py``) under magic ``DFIDX4`` whose
little-endian body is columnar like the store's: the document count, avgdl,
k1, b, the digest of the store file it indexes and the term count
(``<Qddd8sQ``); ``<u8`` columns of each document's length, each sorted term's
end offset in the term blob and each term's postings end; the term blob; a
``<u1`` width code per term for its doc ids, then one for its tfs; then the
doc ids and the tfs, each as a ``<u1``, a ``<u2`` and a ``<u4`` column.  A
term's doc ids are stored as its first id and then each id's gap to the one
before; its width code is the fewest bytes, 1, 2 or 4, that hold the largest
of those, or of its tfs, and the column of that width holds them, with the
other terms of that width in term order.  Every column's length follows from
the postings ends and the codes.  A selected store names the digests of its
index and keyword files, and the first line of its provenance TSV names the
store's digest.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .artifact import NO_FILE_DIGEST, Cursor, load_artifact, write_artifact, write_lines
from .corpus_store import (
    CorpusStore, StringColumn, _pack_blob, _read_blob, _read_column, get_tokenizer,
)
from .errors import EmptyCorpusError, NoPositiveScoreError, SelectionBudgetError
from .keyword_extract import DomainKeywordSet

INDEX_MAGIC = b"DFIDX4"
# the byte widths of the narrow postings columns; each is its own width code
WIDTHS = (1, 2, 4)
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
    ``doc_lengths[doc_id]`` is that document's token count;
    ``store_digest`` is the ``CorpusStore.digest`` of the store it indexes,
    and ``digest`` that of the index's own file; only ``load_index`` sets it,
    so an index built in memory or by ``dataclasses.replace`` names
    ``NO_FILE_DIGEST``.  Equality ignores it.
    """

    postings: dict[str, Postings]
    doc_lengths: list[int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    store_digest: bytes = NO_FILE_DIGEST
    digest: bytes = field(default=NO_FILE_DIGEST, init=False, compare=False, repr=False)

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


def _postings(
    terms: Iterable[str], ends: np.ndarray, doc_ids: np.ndarray, tfs: np.ndarray
) -> dict[str, Postings]:
    """Each term's ``Postings``: the ``i``-th term's are the entries of
    ``doc_ids`` and ``tfs`` from ``ends[i - 1]`` (0 for the first) to
    ``ends[i]``, as views of those columns."""
    bounds = [0, *ends.tolist()]
    return {
        term: Postings(doc_ids[start:end], tfs[start:end])
        for term, start, end in zip(terms, bounds, bounds[1:])
    }


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
    ends = np.append(firsts[1:], len(keys))
    postings = _postings(map(term, keys[firsts].tolist()), ends, doc_col, tf_col)
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
    sources: tuple[bytes, ...] = (),
) -> CorpusSelection:
    """Greedily take ranked documents until the next one would exceed the budget.

    All selected documents have positive score; doc_ids are re-densified in
    the output store, which names ``sources``, and the provenance mapping
    records the original ids.
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
    new_store = CorpusStore(store.documents.take(ids[:taken]), store.tokenizer_id, sources)
    provenance = tuple((sd.doc_id, sd.score) for sd in ranked[:taken])
    return CorpusSelection(store=new_store, provenance=provenance)


# ---------------------------------------------------------------------------
# Persistence

def _width_codes(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each term's width code: the fewest bytes of ``WIDTHS`` that hold the
    largest of its ``values``, which run from its entry of ``starts`` to the
    next one."""
    top = np.maximum.reduceat(values, starts)
    codes = np.ones(len(top), dtype=np.uint8)
    codes[top > 0xFF] = 2
    codes[top > 0xFFFF] = 4
    return codes


def _by_width(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each term's width code, and the ``values`` of each width's terms, in
    term order, as one ``<u1``, one ``<u2`` and one ``<u4`` column; the
    ``i``-th term's ``counts[i]`` values start at ``starts[i]``."""
    codes = _width_codes(values, starts)
    of_posting = np.repeat(codes, counts)
    return codes, [values[of_posting == w].astype(f"<u{w}", copy=False) for w in WIDTHS]


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the versioned binary index; saves are byte-deterministic."""
    names = sorted(index.postings)
    plists = list(map(index.postings.__getitem__, names))
    counts = np.array(list(map(len, plists)), dtype=np.int64)
    if not counts.all():
        raise ValueError("every term of an index file has a posting")
    ends = np.cumsum(counts)
    starts = ends - counts
    doc_ids, tfs = (
        np.concatenate([np.empty(0, np.uint32), *map(attrgetter(column), plists)],
                       dtype=np.uint32)
        for column in ("doc_ids", "tfs")
    )
    # a term's first doc id stays absolute, and each later one becomes its
    # gap to the one before
    deltas = np.empty_like(doc_ids)
    np.subtract(doc_ids[1:], doc_ids[:-1], out=deltas[1:])
    deltas[starts] = doc_ids[starts]
    del doc_ids
    id_codes, delta_columns = _by_width(deltas, starts, counts)
    tf_codes, tf_columns = _by_width(tfs, starts, counts)
    terms = StringColumn.of(names)
    write_artifact(path, INDEX_MAGIC, b"".join([
        struct.pack("<Qddd8sQ", index.num_docs, index.avgdl, index.k1, index.b,
                    index.store_digest, len(names)),
        np.asarray(index.doc_lengths, dtype="<u8").tobytes(),
        terms.ends.astype("<u8").tobytes(),
        ends.astype("<u8").tobytes(),
        _pack_blob(terms),
        id_codes,
        tf_codes,
        *delta_columns,
        *tf_columns,
    ]))


def _read_widened(
    cursor: Cursor, codes: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The three columns that ``_by_width`` wrote under ``codes``, read back
    as one ``uint32`` column in term order; ``counts`` is ``uint64``."""
    if not np.isin(codes, WIDTHS).all():
        raise ValueError(f"a width code is not one of {WIDTHS}")
    # the body holds the columns, read as views of it, before a column per
    # posting is made
    columns = [
        np.frombuffer(cursor.take(w * int(counts[codes == w].sum())), f"<u{w}") for w in WIDTHS
    ]
    of_posting = np.repeat(codes, counts.astype(np.int64))
    values = np.empty(len(of_posting), dtype=np.uint32)
    for width, column in zip(WIDTHS, columns):
        values[of_posting == width] = column
    if np.any(_width_codes(values, starts) != codes):
        raise ValueError("a width code is wider than its term's values need")
    return values


def _parse_index(cursor: Cursor) -> InvertedIndex:
    num_docs, avgdl, k1, b, store_digest, num_terms = cursor.unpack("<Qddd8sQ")
    doc_lengths = _read_column(cursor, num_docs).tolist()
    if avgdl != sum(doc_lengths) / num_docs:
        raise ValueError(f"avgdl {avgdl!r} is not the mean document length")
    _check_bm25(k1, b)
    term_ends, ends = _read_column(cursor, num_terms), _read_column(cursor, num_terms)
    terms = list(_read_blob(cursor, term_ends, "term"))
    if sorted(set(terms)) != terms:
        raise ValueError("terms are not sorted and unique")
    bounds = np.append(np.uint64(0), ends)
    if np.any(bounds[1:] <= bounds[:-1]):
        raise ValueError("postings ends do not rise strictly: a term has no posting")
    id_codes = _read_column(cursor, num_terms, np.uint8)
    tf_codes = _read_column(cursor, num_terms, np.uint8)
    counts, starts = np.diff(bounds), bounds[:-1].astype(np.int64)
    doc_ids = _read_widened(cursor, id_codes, starts, counts)
    tfs = _read_widened(cursor, tf_codes, starts, counts)
    # one running sum over all terms decodes every term once the previous
    # term's last id is taken off each term's first delta.  A zero delta, or
    # an id that wraps past 2**32, fails the strict rise, so a term's last id
    # is its largest
    lasts = np.add.reduceat(doc_ids, starts, dtype=np.uint32)
    doc_ids[starts[1:]] -= lasts[:-1]
    np.cumsum(doc_ids, dtype=np.uint32, out=doc_ids)
    # a term's first doc id need not pass the previous term's last
    rises = doc_ids[1:] > doc_ids[:-1]
    rises[starts[1:] - 1] = True
    if not (rises.all() and np.all(lasts < num_docs)):
        raise ValueError(f"doc ids do not rise strictly within each term below {num_docs}")
    if not tfs.all():
        raise ValueError("a term frequency is 0")
    index = InvertedIndex(
        postings=_postings(terms, ends, doc_ids, tfs),
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        k1=k1,
        b=b,
        store_digest=store_digest,
    )
    index.digest = cursor.digest
    return index


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index file, verifying magic, completeness, and checksum."""
    return load_artifact(path, INDEX_MAGIC, _parse_index)


def save_provenance(selection: CorpusSelection, path: str | Path, store_digest: bytes) -> None:
    """Write a ``store<TAB>digest`` line naming the digest (in hex) of the
    saved selected store, then new_doc_id<TAB>original_doc_id<TAB>score lines."""
    lines = [
        f"{new_id}\t{orig_id}\t{score!r}"
        for new_id, (orig_id, score) in enumerate(selection.provenance)
    ]
    write_lines(path, [f"store\t{store_digest.hex()}", *lines])
