"""Corpus ingestion: text cleaning, tokenization, and the store format.

In memory and on disk a store is columnar (see ``DocumentColumns``): each
document's token count in one integer column, and its title and text as
slices of one joined string per field, so loading, indexing and selecting
make no Python object per document.  A ``Document`` is made only for a
document that is read.  The tokenizer counts and codes a whole column in one
pass over its codepoints (``_scan_column``), so neither ``ingest`` nor
``build_index`` runs a regex per document unless the document holds a
non-CJK token.

A store file is an artifact envelope (see ``artifact.py``) under magic
``DFSTORE3`` whose little-endian body holds the document count, the total
token count, the tokenizer id (length-prefixed UTF-8) and the digests of the
files the store was built from (``sources``: a ``<B`` count, then 8 bytes
each), then three
``<u8`` columns of one entry per document: the token counts, the title end
offsets and the text end offsets.  Last come the title blob and the text
blob, each as a ``<Q`` byte length and the UTF-8 of every document's title
(text) joined in doc id order.  An offset counts code points of the decoded
blob; document ``i``'s title is the blob's code points from the previous
title's end offset (0 for document 0) to its own.  Doc ids are positions.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import struct
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Protocol, TypeVar

import numpy as np

from .artifact import NO_FILE_DIGEST, Cursor, load_artifact, pack_text, read_text, write_artifact
from .errors import DuplicateSourceIdError

STORE_MAGIC = b"DFSTORE3"
DEFAULT_MIN_TOKENS = 10

T = TypeVar("T")

# ---------------------------------------------------------------------------
# Cleaning

# Full-width ASCII variants (U+FF01..U+FF5E) fold onto U+21..U+7E; a few CJK
# punctuation marks get explicit half-width equivalents.
_PUNCT_TABLE = {cp: cp - 0xFF01 + 0x21 for cp in range(0xFF01, 0xFF5F)}
_PUNCT_TABLE.update(
    {
        0x3000: ord(" "),   # ideographic space
        0x3001: ord(","),   # 、
        0x3002: ord("."),   # 。
        0xFF61: ord("."),
        0xFF62: ord("["),
        0xFF63: ord("]"),
        0xFF64: ord(","),
        0x2018: ord("'"),
        0x2019: ord("'"),
        0x201C: ord('"'),
        0x201D: ord('"'),
    }
)

# The table's keys as one character class, and as strings with their
# replacements.  Every key is non-ASCII and every value ASCII, so replacing
# one key can never produce another: ``_fold_punct`` is ``translate`` with
# the table, done as one ``str.replace`` per distinct key present.
_PUNCT_RE = re.compile("[" + re.escape("".join(map(chr, sorted(_PUNCT_TABLE)))) + "]")
_PUNCT_PAIRS = {chr(k): chr(v) for k, v in _PUNCT_TABLE.items()}

_TAG_RE = re.compile(r"<[^<>]*>")
_BRACE_RE = re.compile(r"\{\{[^{}]*\}\}")
# A URL run ends at whitespace, markup delimiters, or the first ideographic
# character (prose is often glued straight onto a link, with no space).
_URL_RE = re.compile(
    r"(?:https?://|www\.)"
    r"[^\s<>{}　-鿿豈-﫿\U00020000-\U0003134F]+",
    re.IGNORECASE,
)
# Control characters other than \t, \n, \r (those collapse as whitespace below).
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")


def _may_hold_url(text: str) -> bool:
    """False only when ``_URL_RE`` cannot match: its scheme branch needs a
    literal ``://``, and each character its case-insensitive ``www.`` accepts
    lower-cases to ``w`` or ``.``."""
    return "://" in text or "www." in text.lower()


def _fold_punct(text: str) -> str:
    """``text.translate(_PUNCT_TABLE)``, without a lookup per codepoint."""
    for ch in set(_PUNCT_RE.findall(text)):
        text = text.replace(ch, _PUNCT_PAIRS[ch])
    return text


def clean_text(raw: str) -> str:
    """Strip markup spans, template braces, URLs, and control characters.

    Full-width punctuation is folded to half-width, whitespace runs collapse
    to a single space, and the result is trimmed.  Idempotent: the removal
    rules run to a fixpoint, so cleaning cleaned text is a no-op.
    """
    text = _fold_punct(raw)
    text = _CONTROL_RE.sub("", text)
    prev = None
    while prev != text:
        prev = text
        if _may_hold_url(text):
            text = _URL_RE.sub(" ", text)
        text = _BRACE_RE.sub(" ", text)
        text = _TAG_RE.sub(" ", text)
    # str.split() splits at runs of the codepoints regex \s matches
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Tokenization

# The CJK blocks as inclusive codepoint bounds: unified ideographs,
# extension A, compatibility ideographs, and extensions B and beyond.
_CJK_BLOCKS = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF), (0x20000, 0x3134F))


def _is_cjk(cp: int) -> bool:
    return any(lo <= cp <= hi for lo, hi in _CJK_BLOCKS)


# A token is one CJK codepoint or a maximal run of other alphanumerics: in
# ``re``, [^\W_] is exactly str.isalnum.  The scan matches maximal runs of
# either kind, so a CJK run is split afterwards.
_CJK_RANGES = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_BLOCKS)
_RUN_RE = re.compile(f"([{_CJK_RANGES}]+)|([^\\W_{_CJK_RANGES}]+)")


def _token_runs(text: str) -> list[tuple[str, str]]:
    """The token runs of lowercased ``text``, in order, as (CJK run, other run)
    pairs with exactly one of the two non-empty."""
    return _RUN_RE.findall(text.lower())


# Per codepoint, 0 until first seen, then 1 + whether ``chr(cp).lower()``
# holds an alphanumeric: a text with no such codepoint has no token but its
# CJK codepoints.  A memo of a pure function, so callers may share it.
_LOWERS_TO_ALNUM = np.zeros(0x110000, dtype=np.int8)


def _lowers_to_alnum(cps: np.ndarray) -> np.ndarray:
    """The mask of ``cps`` whose lowercase holds an alphanumeric, testing
    each codepoint once per process."""
    fresh = np.unique(cps[_LOWERS_TO_ALNUM[cps] == 0]).tolist()
    _LOWERS_TO_ALNUM[fresh] = [1 + any(map(str.isalnum, chr(cp).lower())) for cp in fresh]
    return _LOWERS_TO_ALNUM[cps] == 2


def _scan_column(
    column: StringColumn,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Iterator[tuple[int, list[str]]]]:
    """One pass over every codepoint of ``column``: the codepoints as a
    ``uint32`` array, the mask of the CJK ones, each string's CJK token count
    (``int64``), and the other (non-CJK) runs of each string that may hold
    one, as ``(index, runs)`` pairs in index order, made as they are read.

    Lowercasing makes and unmakes no CJK codepoint, so a string's CJK tokens
    are its own CJK codepoints.  Only a string holding a codepoint that
    ``_lowers_to_alnum`` can hold another token, and only those strings go
    through ``_token_runs``.
    """
    cps = np.frombuffer(column.joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    cjk = np.zeros(len(cps), dtype=bool)
    inside = np.empty_like(cjk)
    below = np.empty_like(cjk)
    for lo, hi in _CJK_BLOCKS:
        np.greater_equal(cps, lo, out=inside)
        np.less_equal(cps, hi, out=below)
        inside &= below
        cjk |= inside
    del below
    other = np.flatnonzero(np.logical_not(cjk, out=inside))
    del inside
    # the string each non-CJK codepoint falls in
    owner = np.searchsorted(column.ends, other, side="right")
    lengths = np.diff(column.ends, prepend=0)
    cjk_counts = lengths - np.bincount(owner, minlength=len(lengths))
    ids = np.unique(owner[_lowers_to_alnum(cps[other])]).tolist()
    del other, owner
    runs = ((i, [run for _, run in _token_runs(column[i]) if run]) for i in ids)
    return cps, cjk, cjk_counts, runs


def _column(texts: Iterable[str]) -> StringColumn:
    return texts if isinstance(texts, StringColumn) else StringColumn.of(list(texts))


DEFAULT_TOKENIZER_ID = "cjk-char-v1"

# A CJK token's code is its codepoint; the k-th distinct other run's code is
# _RUN_CODE_BASE + k, past every codepoint.
_RUN_CODE_BASE = 0x110000

# (codes, lengths, term): see Tokenizer.term_codes
TermCodes = tuple[np.ndarray, np.ndarray, Callable[[int], str]]


class Tokenizer(Protocol):
    """Deterministic text -> token-list mapping, keyed by ``tokenizer_id``."""

    tokenizer_id: str

    def tokenize(self, text: str) -> list[str]: ...

    def counts(self, texts: Iterable[str]) -> np.ndarray:
        """Each text's ``len(self.tokenize(text))``, as an ``int64`` column."""
        ...

    def term_codes(self, texts: Iterable[str]) -> TermCodes:
        """Every token of ``texts`` as an integer code, without a string per
        token: a ``uint32`` column of codes grouped by text (in no set order
        within a text), each text's token count as an ``int64`` column, and
        ``term(code)``, the token a code stands for."""
        ...


@dataclass(frozen=True)
class CjkCharTokenizer:
    """Default tokenizer: one token per CJK codepoint, non-CJK runs split on
    whitespace/punctuation with Latin lowercased."""

    tokenizer_id: str = DEFAULT_TOKENIZER_ID

    def tokenize(self, text: str) -> list[str]:
        tokens: list[str] = []
        for cjk, other in _token_runs(text):
            if cjk:
                tokens.extend(cjk)
            else:
                tokens.append(other)
        return tokens

    # counts and term_codes scan the texts as one StringColumn (one is used
    # as it is): see _scan_column
    def counts(self, texts: Iterable[str]) -> np.ndarray:
        _, _, counts, runs = _scan_column(_column(texts))
        for i, others in runs:
            counts[i] += len(others)
        return counts

    def term_codes(self, texts: Iterable[str]) -> TermCodes:
        cps, cjk, cjk_counts, runs = _scan_column(_column(texts))
        cjk_codes = cps[cjk]
        del cps, cjk
        run_codes: defaultdict[str, int] = defaultdict(itertools.count(_RUN_CODE_BASE).__next__)
        other_counts = np.zeros(len(cjk_counts), dtype=np.int64)
        other_codes: list[int] = []
        for i, others in runs:
            other_counts[i] = len(others)
            other_codes.extend(map(run_codes.__getitem__, others))
        # each text's CJK codes, then the codes of its other runs
        at = np.repeat(np.cumsum(cjk_counts), other_counts)
        codes = np.insert(cjk_codes, at, other_codes)
        runs_by_code = list(run_codes)

        def term(code: int) -> str:
            return chr(code) if code < _RUN_CODE_BASE else runs_by_code[code - _RUN_CODE_BASE]

        return codes, cjk_counts + other_counts, term


def get_tokenizer(tokenizer_id: str) -> Tokenizer:
    """The tokenizer a store names; ``DEFAULT_TOKENIZER_ID`` is the only one."""
    if tokenizer_id != DEFAULT_TOKENIZER_ID:
        raise ValueError(f"unknown tokenizer_id: {tokenizer_id!r}")
    return CjkCharTokenizer()


# ---------------------------------------------------------------------------
# Store

@dataclass(frozen=True)
class RawRecord:
    """One raw input record prior to cleaning."""

    source_id: str
    title: str
    body: str


@dataclass(frozen=True)
class Document:
    """One cleaned document with a dense id and its token count."""

    doc_id: int
    title: str
    text: str
    token_count: int


class StringColumn:
    """A column of strings held as one joined string and each string's end
    offset in code points (an ``int64`` array), so the column costs one
    Python object however many strings it holds."""

    __slots__ = ("joined", "ends")

    def __init__(self, joined: str, ends: np.ndarray):
        self.joined = joined
        self.ends = ends

    @classmethod
    def of(cls, strings: Sequence[str]) -> StringColumn:
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
        return cls("".join(strings), np.cumsum(lengths))

    def __getitem__(self, i: int) -> str:
        """The ``i``-th string; ``0 <= i < len(self)``."""
        return self.joined[int(self.ends[i - 1]) if i else 0 : int(self.ends[i])]

    def __iter__(self) -> Iterator[str]:
        start = 0
        for end in self.ends.tolist():
            yield self.joined[start:end]
            start = end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringColumn):
            return NotImplemented
        return self.joined == other.joined and np.array_equal(self.ends, other.ends)


class DocumentColumns(Sequence[Document]):
    """A store's documents as a title column, a text column and a ``uint64``
    token-count column; document ``i`` has doc id ``i``.  Indexing or
    iterating makes each ``Document`` as it is read."""

    __slots__ = ("titles", "texts", "token_counts", "total_tokens")

    def __init__(self, titles: StringColumn, texts: StringColumn, token_counts: np.ndarray):
        self.titles = titles
        self.texts = texts
        self.token_counts = token_counts
        self.total_tokens = sum(token_counts.tolist())

    @classmethod
    def from_lists(
        cls, titles: Sequence[str], texts: Sequence[str], token_counts: Sequence[int]
    ) -> DocumentColumns:
        return cls(
            StringColumn.of(titles),
            StringColumn.of(texts),
            np.array(token_counts, dtype=np.uint64),
        )

    @classmethod
    def of(cls, documents: Iterable[Document]) -> DocumentColumns:
        """The columns of ``documents``, whose doc ids must be their positions."""
        docs = tuple(documents)
        for i, doc in enumerate(docs):
            if doc.doc_id != i:
                raise ValueError(f"document at position {i} has doc_id {doc.doc_id}")
        return cls.from_lists(
            [d.title for d in docs], [d.text for d in docs], [d.token_count for d in docs]
        )

    def take(self, ids: Sequence[int]) -> DocumentColumns:
        """The documents at ``ids``, in that order and renumbered densely."""
        return DocumentColumns.from_lists(
            [self.titles[i] for i in ids],
            [self.texts[i] for i in ids],
            self.token_counts[np.asarray(ids, dtype=np.intp)],
        )

    def __len__(self) -> int:
        return len(self.token_counts)

    def __getitem__(self, i: int) -> Document:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"document {i} out of range [0, {len(self)})")
        return Document(i, self.titles[i], self.texts[i], int(self.token_counts[i]))

    def __iter__(self) -> Iterator[Document]:
        return map(
            Document, itertools.count(), self.titles, self.texts, self.token_counts.tolist()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DocumentColumns):
            return NotImplemented
        return (
            self.titles == other.titles
            and self.texts == other.texts
            and np.array_equal(self.token_counts, other.token_counts)
        )


@dataclass(frozen=True)
class CorpusStore:
    """Immutable ordered document collection; iteration follows doc_id order.

    ``documents`` may be given as any sequence of ``Document``s whose doc ids
    are their positions; the store holds it as ``DocumentColumns``.
    ``sources`` are the digests of the files it was built from (see
    ``select_corpus``), none for an ingested store.  ``digest`` is the
    envelope digest of the file the store was loaded from; only ``load_store``
    sets it, so a store built in memory or by ``dataclasses.replace`` names
    ``NO_FILE_DIGEST``.  Equality ignores it.
    """

    documents: DocumentColumns
    tokenizer_id: str
    sources: tuple[bytes, ...] = ()
    digest: bytes = field(default=NO_FILE_DIGEST, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.documents, DocumentColumns):
            object.__setattr__(self, "documents", DocumentColumns.of(self.documents))
        if any(len(source) != len(NO_FILE_DIGEST) for source in self.sources):
            raise ValueError(f"each source must be an 8-byte digest, got {self.sources!r}")

    @property
    def total_tokens(self) -> int:
        return self.documents.total_tokens

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def ingest(
    records: Sequence[RawRecord],
    tokenizer: Tokenizer,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> CorpusStore:
    """Clean records, drop the too-short ones, and assign dense doc_ids.

    Records whose cleaned body is empty or shorter than ``min_tokens`` tokens
    are dropped; survivors keep their input order.  Duplicate source ids
    reject the whole run.
    """
    seen: dict[str, int] = {}
    offenders: set[str] = set()
    for rec in records:
        seen[rec.source_id] = seen.get(rec.source_id, 0) + 1
        if seen[rec.source_id] > 1:
            offenders.add(rec.source_id)
    if offenders:
        raise DuplicateSourceIdError(sorted(offenders))

    texts = [clean_text(rec.body) for rec in records]
    counts = tokenizer.counts(texts)
    keep = [i for i, (text, n) in enumerate(zip(texts, counts.tolist()))
            if text and n >= min_tokens]
    return CorpusStore(
        documents=DocumentColumns.from_lists(
            [clean_text(records[i].title) for i in keep],
            [texts[i] for i in keep],
            counts[keep],
        ),
        tokenizer_id=tokenizer.tokenizer_id,
    )


# ---------------------------------------------------------------------------
# Persistence

def _pack_blob(column: StringColumn) -> bytes:
    raw = column.joined.encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw


def save_store(store: CorpusStore, path: str | Path) -> bytes:
    """Write a store file, returning its digest; equal stores give equal bytes."""
    docs = store.documents
    body = b"".join((
        struct.pack("<QQ", len(docs), store.total_tokens),
        pack_text(store.tokenizer_id),
        struct.pack("<B" + "8s" * len(store.sources), len(store.sources), *store.sources),
        docs.token_counts.astype("<u8").tobytes(),
        docs.titles.ends.astype("<u8").tobytes(),
        docs.texts.ends.astype("<u8").tobytes(),
        _pack_blob(docs.titles),
        _pack_blob(docs.texts),
    ))
    return write_artifact(path, STORE_MAGIC, body)


def _read_column(cursor: Cursor, count: int) -> np.ndarray:
    """``count`` ``<u8`` values, copied out of the file's buffer."""
    return np.frombuffer(cursor.take(8 * count), dtype="<u8").astype(np.uint64)


def _read_blob(cursor: Cursor, ends: np.ndarray, field: str) -> StringColumn:
    """The next blob as a column split at ``ends``, which must not decrease
    and must end at the blob's length in code points."""
    (size,) = cursor.unpack("<Q")
    joined = str(cursor.take(size), "utf-8")
    last = int(ends[-1]) if len(ends) else 0
    if last != len(joined) or np.any(ends[1:] < ends[:-1]):
        raise ValueError(
            f"{field} offsets must not decrease and must end at the "
            f"{len(joined)} code points of the {field} blob"
        )
    return StringColumn(joined, ends.astype(np.int64))


def _parse_store(cursor: Cursor) -> CorpusStore:
    count, total = cursor.unpack("<QQ")
    tokenizer_id, (n_sources,) = cursor.text(), cursor.unpack("<B")
    sources = cursor.unpack("<" + "8s" * n_sources)
    token_counts = _read_column(cursor, count)
    title_ends = _read_column(cursor, count)
    text_ends = _read_column(cursor, count)
    documents = DocumentColumns(
        _read_blob(cursor, title_ends, "title"),
        _read_blob(cursor, text_ends, "text"),
        token_counts,
    )
    if documents.total_tokens != total:
        raise ValueError(f"declares {total} tokens, found {documents.total_tokens}")
    store = CorpusStore(documents=documents, tokenizer_id=tokenizer_id, sources=sources)
    object.__setattr__(store, "digest", cursor.digest)
    return store


def load_store(path: str | Path) -> CorpusStore:
    """Read a store file, verifying magic, completeness, checksum, and that
    every column and blob is well-formed; no ``Document`` is made."""
    return load_artifact(path, STORE_MAGIC, _parse_store)


def read_jsonl(path: str | Path, parse: Callable[[dict[str, Any]], T]) -> list[T]:
    """Apply ``parse`` to each object line of a JSON-lines file, skipping
    blank lines.  Bad JSON, a non-object line, a missing field, or a value
    ``parse`` rejects raises ``ValueError`` naming the file and line; a byte
    that is not UTF-8 raises ``read_text``'s ``UnicodeDecodeError``."""
    out: list[T] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                    out.append(parse(obj))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
                except (ValueError, TypeError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError:
        # the stream decodes in chunks, so re-read the file to name the line
        read_text(path)
        raise
    return out


def as_str(name: str, value: Any) -> str:
    """``value``, which a JSON-lines parser requires to be a string; anything
    else raises a ``TypeError`` naming the field."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _parse_raw_record(obj: dict[str, Any]) -> RawRecord:
    source_id, body, title = obj["source_id"], obj["body"], obj.get("title", "")
    if isinstance(source_id, bool) or not isinstance(source_id, (str, int)):
        raise TypeError(
            f"source_id must be a string or an integer, got {type(source_id).__name__}"
        )
    return RawRecord(source_id=str(source_id), title=as_str("title", title),
                     body=as_str("body", body))


def load_raw_records(path: str | Path) -> list[RawRecord]:
    """Read raw records from a JSON-lines file with source_id/title/body fields.

    ``body`` and, when present, ``title`` must be strings; ``source_id`` a
    string or an integer (read as its decimal string).
    """
    return read_jsonl(path, _parse_raw_record)
