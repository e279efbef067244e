"""Shared error types for on-disk artifacts and pipeline failures."""

from __future__ import annotations


class DomainforgeError(Exception):
    """Base class for all errors raised by this package."""


class ArtifactError(DomainforgeError):
    """Base class for errors while reading a persisted artifact."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class MagicMismatchError(ArtifactError):
    """File does not start with the expected format magic / version."""


class TruncatedArtifactError(ArtifactError):
    """File ended before the declared content was complete, or its
    checksum-valid body does not parse as the declared format."""


class ChecksumMismatchError(ArtifactError):
    """Stored checksum does not match the recomputed one."""


class DuplicateSourceIdError(DomainforgeError):
    """An ingest run contained repeated source ids."""

    def __init__(self, offenders: list[str]):
        super().__init__(f"duplicate source_id values: {', '.join(sorted(offenders))}")
        self.offenders = list(offenders)


class EmptyCorpusError(DomainforgeError):
    """An operation that needs at least one document got an empty corpus."""


class NoPositiveScoreError(DomainforgeError):
    """Retrieval found no positive-score documents for the query."""


class SelectionBudgetError(DomainforgeError):
    """The token budget is too small to admit even the top-ranked document."""


class NonFiniteLossError(DomainforgeError):
    """Training produced a NaN or infinite loss."""


class ConfigError(DomainforgeError):
    """Pipeline configuration file is malformed or has unknown keys."""
