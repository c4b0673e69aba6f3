"""Exception types shared across the package.

The split matters for the CLI: malformed input (validation / parse /
domain errors) exits with status 2, anything else is an internal error
and exits with status 1.
"""

from __future__ import annotations

__all__ = [
    "CovarError",
    "ValidationError",
    "ParseError",
    "DomainError",
    "InfiniteCrossEntropyError",
]


class CovarError(ValueError):
    """Base class for all errors raised by this package."""


class ValidationError(CovarError):
    """A probability batch or label vector failed structural validation;
    an error about one batch row carries its 0-based index as ``row`` and
    the message without the ``row i:`` prefix as ``reason``."""

    def __init__(self, reason: str, row: int | None = None) -> None:
        super().__init__(reason if row is None else f"row {row}: {reason}")
        self.reason, self.row = reason, row


class ParseError(CovarError):
    """An input file could not be decoded (bad magic, truncation, bad CSV)."""


class DomainError(CovarError):
    """An operation was called outside its mathematical domain."""


class InfiniteCrossEntropyError(DomainError):
    """Cross-entropy is +inf: the target places mass where p has an exact zero."""
