"""The on-disk envelope shared by the store, index, and checkpoint files.

An artifact is ``magic | body length (<Q) | body | BLAKE2b-64 digest``, the
digest covering every byte before it.  A reader checks the magic, then that
the file holds the declared length (``TruncatedArtifactError``), then the
digest (``ChecksumMismatchError``), and only then parses the body; a body
that passes the digest but does not parse is a ``TruncatedArtifactError``
too.  The ``Cursor`` it parses from carries the file's digest, so a loaded
artifact can name the exact bytes it came from without hashing them again.
A write goes to a sibling temp file, unique to the writer, that
replaces the target only once it is complete, so an interrupted write leaves
the old file in place and two writers of one path never mix their bytes.

The plain-text outputs (keywords, provenance, vocab, loss history, exam, and
the eval report) are written the same way by ``write_lines``, and text
inputs are read by ``read_text``, whose decode errors name the file.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .errors import ChecksumMismatchError, MagicMismatchError, TruncatedArtifactError

_DIGEST_SIZE = 8
# The digest named by an artifact built in memory, which no file holds
NO_FILE_DIGEST = bytes(_DIGEST_SIZE)
_LENGTH = struct.Struct("<Q")
# What a parser can raise on a body that passed the checksum but was not
# written by the matching saver (e.g. a config JSON with n_heads = 0).
_PARSE_ERRORS = (ValueError, KeyError, TypeError, ArithmeticError, struct.error)

T = TypeVar("T")


def _umask() -> int:
    """The process umask, which can only be read by setting it."""
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _replace_file(path: str | Path, *chunks: bytes | bytearray) -> None:
    """Write ``chunks`` to a sibling temp file of this writer's own, then move
    it over ``path``.  The file gets the mode a plain ``open`` would give it:
    ``mkstemp`` creates it readable by its owner alone."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, "wb") as fh:
            os.chmod(tmp, 0o666 & ~_umask())
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def write_artifact(path: str | Path, magic: bytes, body: bytes | bytearray) -> None:
    """Frame ``body`` under ``magic`` and replace ``path`` with the result."""
    head = magic + _LENGTH.pack(len(body))
    digest = hashlib.blake2b(head, digest_size=_DIGEST_SIZE)
    digest.update(body)
    _replace_file(path, head, body, digest.digest())


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines`` in UTF-8, each ended by a newline."""
    _replace_file(path, "".join(f"{line}\n" for line in lines).encode("utf-8"))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``.  A byte that is not UTF-8 raises
    ``UnicodeDecodeError`` whose reason names the file and the line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise UnicodeDecodeError(
            exc.encoding, raw, exc.start, exc.end, f"{exc.reason} in {path}:{line}"
        ) from None


def read_artifact(path: str | Path, magic: bytes) -> Cursor:
    """Verify magic, declared length, and checksum; return a cursor over the
    body that carries the file's digest."""
    path = Path(path)
    data = memoryview(path.read_bytes())
    if data[: len(magic)] != magic[: len(data)]:
        raise MagicMismatchError(path, f"expected magic {magic!r}")
    head_len = len(magic) + _LENGTH.size
    if len(data) < head_len:
        raise TruncatedArtifactError(path, f"file ends at byte {len(data)}, inside the header")
    (length,) = _LENGTH.unpack_from(data, len(magic))
    end = head_len + length
    if len(data) < end + _DIGEST_SIZE:
        raise TruncatedArtifactError(
            path, f"header declares a {length}-byte body but the file holds {len(data)} bytes"
        )
    # a trailing surplus also lands here: the "digest" is then longer than 8 bytes
    if hashlib.blake2b(data[:end], digest_size=_DIGEST_SIZE).digest() != data[end:]:
        raise ChecksumMismatchError(path, "checksum mismatch")
    return Cursor(data[head_len:end], bytes(data[end:]))


def pack_text(text: str) -> bytes:
    """A length-prefixed UTF-8 string, as :meth:`Cursor.text` reads it."""
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class Cursor:
    """Sequential reader over an artifact body; a short or malformed read
    raises ``ValueError`` (or ``struct.error``), which :func:`load_artifact`
    reports as a ``TruncatedArtifactError``.  ``digest`` is the envelope
    digest of the file the body was read from."""

    def __init__(self, body: memoryview, digest: bytes):
        self.body = body
        self.digest = digest
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if not 0 <= n <= len(self.body) - self.pos:
            raise ValueError(f"needed {n} bytes at body offset {self.pos}, body ends early")
        chunk = self.body[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<I")
        return str(self.take(n), "utf-8")

    def done(self) -> None:
        if self.pos != len(self.body):
            raise ValueError(f"{len(self.body) - self.pos} trailing bytes after the body")


def load_artifact(path: str | Path, magic: bytes, parse: Callable[[Cursor], T]) -> T:
    """Read and verify an artifact, then parse its whole body with ``parse``."""
    cursor = read_artifact(path, magic)
    try:
        result = parse(cursor)
        cursor.done()
    except _PARSE_ERRORS as exc:
        raise TruncatedArtifactError(path, f"malformed body: {exc}") from exc
    return result
