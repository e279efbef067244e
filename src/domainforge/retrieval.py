"""Inverted index, BM25 scoring against the weight-expanded query, and
budgeted corpus selection.

The index file is an artifact envelope (see ``artifact.py``) under magic
``DFIDX1`` whose little-endian body holds the corpus stats, per-document
lengths, and a length-prefixed term dictionary with delta-encoded postings.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Mapping

from .artifact import Cursor, load_artifact, pack_text, write_artifact
from .corpus_store import CorpusStore, Document, get_tokenizer
from .errors import EmptyCorpusError, NoPositiveScoreError, SelectionBudgetError
from .keyword_extract import DomainKeywordSet

INDEX_MAGIC = b"DFIDX1"
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
MAX_QUERY_REPETITIONS = 3


@dataclass
class InvertedIndex:
    """Postings, document lengths, and the BM25 parameters.

    Postings map term -> [(doc_id, term_frequency), ...] sorted by doc_id;
    ``doc_lengths[doc_id]`` is that document's token count.
    """

    postings: dict[str, list[tuple[int, int]]]
    doc_lengths: list[int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    tokenizer_id: str = ""

    @property
    def num_docs(self) -> int:
        return len(self.doc_lengths)

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: int) -> int:
        plist = self.postings.get(term)
        if not plist:
            return 0
        pos = bisect_left(plist, (doc_id,))
        if pos < len(plist) and plist[pos][0] == doc_id:
            return plist[pos][1]
        return 0


@dataclass(frozen=True)
class ExpandedQuery:
    """Query term multiset; each keyword is repeated per its capped weight."""

    counts: Mapping[str, int]

    def terms_with_multiplicity(self) -> Iterator[str]:
        for term, count in self.counts.items():
            for _ in range(count):
                yield term

    def __len__(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: int
    score: float


def build_index(
    store: CorpusStore, k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> InvertedIndex:
    """Build the complete inverted index over a non-empty store."""
    if len(store) == 0:
        raise EmptyCorpusError("cannot index an empty corpus (avgdl undefined)")
    if k1 <= 0.0:
        raise ValueError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must be in [0, 1], got {b}")
    tokenizer = get_tokenizer(store.tokenizer_id)
    postings: dict[str, list[tuple[int, int]]] = {}
    doc_lengths: list[int] = []
    for doc in store:
        tokens = tokenizer.tokenize(doc.text)
        doc_lengths.append(len(tokens))
        freqs: dict[str, int] = {}
        for tok in tokens:
            freqs[tok] = freqs.get(tok, 0) + 1
        for term, tf in freqs.items():
            postings.setdefault(term, []).append((doc.doc_id, tf))
    avgdl = sum(doc_lengths) / len(doc_lengths)
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        k1=k1,
        b=b,
        tokenizer_id=store.tokenizer_id,
    )


def idf(index: InvertedIndex, term: str) -> float:
    """Nonnegative IDF: ln(1 + (N - n + 0.5) / (n + 0.5))."""
    n = index.doc_frequency(term)
    return math.log(1.0 + (index.num_docs - n + 0.5) / (n + 0.5))


def _tf_component(index: InvertedIndex, tf: int, doc_len: int) -> float:
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

    Keywords are tokenized with the index tokenizer; a multi-token keyword
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
    scores: dict[int, float] = {}
    for term in sorted(query.counts):
        plist = index.postings.get(term)
        if not plist:
            continue
        count = query.counts[term]
        idf_val = idf(index, term)
        for doc_id, tf in plist:
            # same association as bm25_score so both add identical floats
            unit = idf_val * _tf_component(index, tf, index.doc_lengths[doc_id])
            scores[doc_id] = scores.get(doc_id, 0.0) + count * unit
    ranked = sorted(
        (ScoredDoc(d, s) for d, s in scores.items() if s > 0.0),
        key=lambda sd: (-sd.score, sd.doc_id),
    )
    return ranked[:n]


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
    ranked = retrieve_top_n(index, query, n=max(1, index.num_docs))
    if not ranked:
        raise NoPositiveScoreError(
            "no positive-score documents for the expanded query "
            f"({len(query)} query terms over {index.num_docs} documents)"
        )
    docs: list[Document] = []
    provenance: list[tuple[int, float]] = []
    used = 0
    for sd in ranked:
        doc = store.documents[sd.doc_id]
        if used + doc.token_count > token_budget:
            break
        docs.append(
            Document(
                doc_id=len(docs),
                title=doc.title,
                text=doc.text,
                token_count=doc.token_count,
            )
        )
        provenance.append((sd.doc_id, sd.score))
        used += doc.token_count
    if not docs:
        top = store.documents[ranked[0].doc_id]
        raise SelectionBudgetError(
            f"token budget {token_budget} is smaller than the top-ranked "
            f"document (doc_id {top.doc_id}, {top.token_count} tokens)"
        )
    new_store = CorpusStore(documents=tuple(docs), tokenizer_id=store.tokenizer_id)
    return CorpusSelection(store=new_store, provenance=tuple(provenance))


# ---------------------------------------------------------------------------
# Persistence

def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the versioned binary index; saves are byte-deterministic."""
    body = bytearray()
    body += struct.pack("<Q", index.num_docs)
    body += struct.pack("<ddd", index.avgdl, index.k1, index.b)
    body += pack_text(index.tokenizer_id)
    body += struct.pack(f"<{index.num_docs}Q", *index.doc_lengths)
    body += struct.pack("<Q", len(index.postings))
    for term in sorted(index.postings):
        plist = index.postings[term]
        body += pack_text(term)
        body += struct.pack("<Q", len(plist))
        prev = 0
        for doc_id, tf in plist:
            body += struct.pack("<II", doc_id - prev, tf)
            prev = doc_id
    write_artifact(path, INDEX_MAGIC, body)


def _parse_index(cursor: Cursor) -> InvertedIndex:
    (num_docs,) = cursor.unpack("<Q")
    avgdl, k1, b = cursor.unpack("<ddd")
    tokenizer_id = cursor.text()
    doc_lengths = list(cursor.unpack(f"<{num_docs}Q"))
    (num_terms,) = cursor.unpack("<Q")
    postings: dict[str, list[tuple[int, int]]] = {}
    for _ in range(num_terms):
        term = cursor.text()
        (plen,) = cursor.unpack("<Q")
        pairs = cursor.unpack(f"<{2 * plen}I")
        postings[term] = list(zip(accumulate(pairs[0::2]), pairs[1::2]))
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        avgdl=avgdl,
        k1=k1,
        b=b,
        tokenizer_id=tokenizer_id,
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
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
