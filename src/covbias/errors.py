"""Exception types shared across the toolkit.

Every fault in input data raises DataError, whose message names the fault
and, where there is one, the file and line; the CLI maps it to exit code 2.
A malformed model file raises its subclass FormatError. Programming errors
(bad argument values for library callers) raise plain ValueError instead.
"""

from __future__ import annotations


class DataError(Exception):
    """Invalid or inconsistent input data (CLI exit code 2); its message names any file and line."""


class FormatError(DataError):
    """A binary model file is malformed, truncated, or from an unknown version."""
