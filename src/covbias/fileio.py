"""Small file and report helpers: atomic writes, TSV, section config files."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager
from operator import itemgetter
from typing import IO, TypeVar

from .errors import DataError

_Row = TypeVar("_Row")


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trips float64)."""
    return format(x, ".17g")


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# Mode of every file written here, as open() would create it: mkstemp makes
# its temp files 0600, which os.replace would otherwise carry to the output.
_FILE_MODE = 0o666 & ~_current_umask()


@contextmanager
def _atomic(path: str, mode: str, **open_kwargs: str) -> Iterator[IO]:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, mode, **open_kwargs) as handle:
            yield handle
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: str) -> AbstractContextManager[IO[str]]:
    """Write a text file via a temp file in the same directory + os.replace.

    The final path either keeps its previous content or receives the complete
    new content; an interrupted run never leaves a partial file there. The
    file gets mode 0o666 minus the process umask, like a file from open().
    """
    return _atomic(path, "w", encoding="utf-8", newline="\n")


def atomic_write_bytes(path: str) -> AbstractContextManager[IO[bytes]]:
    """Binary twin of atomic_write."""
    return _atomic(path, "wb")


def format_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The lines of a TSV report: the header row, then one line per row.

    Fields are tab-joined and every line ends in a newline. Each row is
    formatted as it is read, so a report streams from its rows.
    """
    yield "\t".join(header) + "\n"
    for row in rows:
        yield "\t".join(row) + "\n"


def line_fault(path: str, line_no: int, problem: str) -> DataError:
    """The DataError for a fault on one line of a file, naming the file and the line."""
    return DataError(f"{path}: line {line_no}: {problem}")


def read_tsv(
    path: str, columns: Sequence[str], parse_row: Callable[..., _Row], optional: Sequence[str] = ()
) -> list[_Row]:
    """parse_row(*cells) per row of a headered TSV report, read in one pass.

    The cells are those of columns, then of optional (None for one the header
    lacks). A header fault is a DataError naming the file; a row of the wrong
    width, or a ValueError or DataError from parse_row, names the line too.
    """
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise DataError(f"{path}: empty TSV, expected a header row")
        header = header_line.rstrip("\n").split("\t")
        for index, col in enumerate(header):
            if col in header[:index]:
                raise DataError(f"{path}: the header names column {col!r} twice")
        missing = [col for col in columns if col not in header]
        if missing:
            raise DataError(f"{path}: missing required column(s) {', '.join(missing)}")
        width = len(header)
        picks = [header.index(col) if col in header else width for col in (*columns, *optional)]
        cells = itemgetter(*picks) if len(picks) > 1 else itemgetter(slice(picks[0], picks[0] + 1))
        rows = []
        for line_no, line in enumerate(handle, 2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != width:
                raise line_fault(path, line_no, f"{len(fields)} fields where the header has {width}")
            fields.append(None)  # the cell of each optional column the header lacks
            try:
                rows.append(parse_row(*cells(fields)))
            except (ValueError, DataError) as exc:
                raise line_fault(path, line_no, str(exc)) from None
    return rows


def read_section_file(path: str) -> dict[str, list[str]]:
    """Parse a section config file: [name] headers, one token per line.

    Blank lines and lines starting with # are ignored. A DataError names the
    file and the line of a token with whitespace, a token before any section
    header, an empty or duplicate section name or one with whitespace, and a
    section that lists no tokens; a file without sections is refused too.
    """
    sections: dict[str, list[str]] = {}
    header_lines: dict[str, int] = {}
    current: str | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if not name:
                    raise line_fault(path, line_no, "empty section name")
                if len(name.split()) != 1:
                    raise line_fault(path, line_no, "whitespace in section name")
                if name in sections:
                    raise line_fault(path, line_no, f"duplicate section [{name}]")
                sections[name] = []
                header_lines[name] = line_no
                current = name
                continue
            if current is None:
                raise line_fault(path, line_no, "token before any [section] header")
            if len(line.split()) != 1:
                raise line_fault(path, line_no, "expected one token per line")
            sections[current].append(line)
    if not sections:
        raise DataError(f"{path}: no [section] headers")
    for name, tokens in sections.items():
        if not tokens:
            raise line_fault(path, header_lines[name], f"section [{name}] lists no tokens")
    return sections
