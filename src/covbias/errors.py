"""Exception types shared across the toolkit.

Everything raised on bad input data derives from DataError so the CLI can
map the whole family to one exit code. Programming errors (bad argument
values for library callers) raise plain ValueError instead.
"""

from __future__ import annotations


class CovbiasError(Exception):
    """Base class for all toolkit errors."""


class DataError(CovbiasError):
    """Invalid or inconsistent input data (CLI exit code 2).

    line_no is the 1-based input line the error is about, or None when it
    concerns no single line.
    """

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class LineCountMismatch(DataError):
    """Parallel files (or aligned annotation files) differ in line count."""


class EmptyLine(DataError):
    """A corpus file contains a blank or whitespace-only line."""

    def __init__(self, path: str, line_no: int):
        super().__init__(f"{path}: line {line_no} is empty", line_no)
        self.path = path


class PosAlignmentError(DataError):
    """A POS annotation does not have one tag per token."""


class EmptyCorpus(DataError):
    """An operation that needs at least one sentence got none."""


class DegenerateVocabulary(DataError):
    """After frequency masking fewer than two token types remain."""


class FormatError(DataError):
    """A binary model file is malformed, truncated, or from an unknown version."""


class SingleClassInput(DataError):
    """Offset tuning needs both gold classes present."""


class EmptyInput(DataError):
    """A selection or evaluation got an empty record sequence."""


class LengthMismatch(DataError):
    """Two aligned sequences differ in length."""


class MissingPosAnnotations(DataError):
    """A class-filtered operation hit an example without POS tags."""


class EmptySelection(DataError):
    """A distribution was requested over a selection with zero tokens."""


class InvalidFraction(DataError):
    """A split fraction was outside the open interval (0, 1)."""


class TagCollision(DataError):
    """A corpus already contains the token a tagging step would prepend."""
