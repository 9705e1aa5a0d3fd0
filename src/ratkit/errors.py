"""Exception types shared across the toolkit."""

from __future__ import annotations


class RatkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(RatkitError):
    """Input data violates a documented invariant."""


class CorpusFormatError(ValidationError):
    """A corpus or index file could not be parsed. Carries the offending line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class ConfigurationError(RatkitError):
    """A scenario or experiment configuration cannot be satisfied."""


class TranslatorError(RatkitError):
    """An external translator process failed or produced misaligned output."""
