"""Corpus ingestion: text cleaning, tokenization, and the store format.

A store file is an artifact envelope (see ``artifact.py``) under magic
``DFSTORE1`` whose body holds the document count, the total token count, and
the tokenizer id, then each document as doc id, token count, title, and text
(the strings length-prefixed UTF-8).
"""

from __future__ import annotations

import itertools
import json
import re
import struct
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence, TypeVar

import numpy as np

from .artifact import Cursor, load_artifact, pack_text, read_text, write_artifact
from .errors import DuplicateSourceIdError

STORE_MAGIC = b"DFSTORE1"
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
_WS_RE = re.compile(r"\s+")


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
    return _WS_RE.sub(" ", text).strip()


# ---------------------------------------------------------------------------
# Tokenization

def _is_cjk(cp: int) -> bool:
    return (
        0x4E00 <= cp <= 0x9FFF      # unified ideographs
        or 0x3400 <= cp <= 0x4DBF   # extension A
        or 0xF900 <= cp <= 0xFAFF   # compatibility ideographs
        or 0x20000 <= cp <= 0x3134F # extensions B and beyond
    )


# The same ranges as _is_cjk.  A token is one CJK codepoint or a maximal run
# of other alphanumerics: in ``re``, [^\W_] is exactly str.isalnum.  The scan
# matches maximal runs of either kind, so a CJK run is split afterwards.
_CJK_RANGES = "\u4e00-\u9fff\u3400-\u4dbf\uf900-\ufaff\U00020000-\U0003134f"
_RUN_RE = re.compile(f"([{_CJK_RANGES}]+)|([^\\W_{_CJK_RANGES}]+)")


def _token_runs(text: str) -> list[tuple[str, str]]:
    """The token runs of lowercased ``text``, in order, as (CJK run, other run)
    pairs with exactly one of the two non-empty."""
    return _RUN_RE.findall(text.lower())


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

    def count(self, text: str) -> int:
        """``len(self.tokenize(text))``."""
        ...

    def term_codes(self, texts: Iterable[str]) -> TermCodes:
        """Every token of ``texts`` as an integer code, without a string per
        token: a ``uint32`` column of codes grouped by text (in no set order
        within a text), each text's ``count`` as an ``int64`` column, and
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

    def count(self, text: str) -> int:
        return sum(len(cjk) or 1 for cjk, _ in _token_runs(text))

    def term_codes(self, texts: Iterable[str]) -> TermCodes:
        # each text's CJK tokens first, then its other runs; the CJK codes
        # come from one encode of all CJK runs, not a string per token
        cjk_parts: list[str] = []
        run_codes: defaultdict[str, int] = defaultdict(itertools.count(_RUN_CODE_BASE).__next__)
        other_codes: list[int] = []
        kind_lens: list[tuple[int, int]] = []
        for text in texts:
            runs = _token_runs(text)
            cjk = "".join(map(itemgetter(0), runs))
            others = list(filter(None, map(itemgetter(1), runs)))
            cjk_parts.append(cjk)
            other_codes.extend(map(run_codes.__getitem__, others))
            kind_lens.append((len(cjk), len(others)))
        joined = "".join(cjk_parts)
        del cjk_parts
        cjk_codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        del joined
        per_kind = np.array(kind_lens, dtype=np.int64).reshape(-1, 2)
        is_cjk = np.repeat(np.tile([True, False], len(per_kind)), per_kind.ravel())
        codes = np.empty(len(is_cjk), dtype=np.uint32)
        codes[is_cjk] = cjk_codes
        codes[~is_cjk] = other_codes
        runs_by_code = list(run_codes)

        def term(code: int) -> str:
            return chr(code) if code < _RUN_CODE_BASE else runs_by_code[code - _RUN_CODE_BASE]

        return codes, per_kind.sum(axis=1), term


def get_tokenizer(tokenizer_id: str) -> Tokenizer:
    """The tokenizer a store or index names; ``DEFAULT_TOKENIZER_ID`` is the
    only one."""
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


@dataclass(frozen=True)
class CorpusStore:
    """Immutable ordered document collection; iteration follows doc_id order."""

    documents: tuple[Document, ...]
    tokenizer_id: str

    @property
    def total_tokens(self) -> int:
        return sum(d.token_count for d in self.documents)

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

    docs: list[Document] = []
    for rec in records:
        text = clean_text(rec.body)
        if not text:
            continue
        token_count = tokenizer.count(text)
        if token_count < min_tokens:
            continue
        docs.append(
            Document(
                doc_id=len(docs),
                title=clean_text(rec.title),
                text=text,
                token_count=token_count,
            )
        )
    return CorpusStore(documents=tuple(docs), tokenizer_id=tokenizer.tokenizer_id)


# ---------------------------------------------------------------------------
# Persistence

def save_store(store: CorpusStore, path: str | Path) -> None:
    """Write a store file; identical stores produce byte-identical files."""
    body = bytearray(struct.pack("<QQ", len(store.documents), store.total_tokens))
    body += pack_text(store.tokenizer_id)
    for doc in store.documents:
        body += struct.pack("<QQ", doc.doc_id, doc.token_count)
        body += pack_text(doc.title)
        body += pack_text(doc.text)
    write_artifact(path, STORE_MAGIC, body)


def _parse_store(cursor: Cursor) -> CorpusStore:
    count, total = cursor.unpack("<QQ")
    tokenizer_id = cursor.text()
    docs: list[Document] = []
    for i in range(count):
        doc_id, token_count = cursor.unpack("<QQ")
        if doc_id != i:
            raise ValueError(f"doc_id gap at position {i}")
        docs.append(
            Document(
                doc_id=doc_id,
                title=cursor.text(),
                text=cursor.text(),
                token_count=token_count,
            )
        )
    store = CorpusStore(documents=tuple(docs), tokenizer_id=tokenizer_id)
    if store.total_tokens != total:
        raise ValueError(f"declares {total} tokens, found {store.total_tokens}")
    return store


def load_store(path: str | Path) -> CorpusStore:
    """Read a store file, verifying magic, completeness, and checksum."""
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
