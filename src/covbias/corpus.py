"""Reading, validating, and writing whitespace-tokenized corpora.

Corpus files are UTF-8 text, one sentence per line, tokens separated by
whitespace. POS annotation files have the same shape with one tag per token.
Line numbers are 1-based everywhere. Readers are generators, so memory use is
bounded by the longest line, not the file size. Writers refuse any sentence
that would not read back as the same tokens: one that is empty or has a token
that is empty or contains whitespace (the characters str.isspace() accepts).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import NoReturn

from .errors import DataError, EmptyLine, LineCountMismatch, PosAlignmentError
from .fileio import atomic_write

Sentence = tuple[str, ...]
PosAnnotation = tuple[str, ...]


class OriginLabel(Enum):
    """Which side of a parallel pair was written first."""

    SOURCE_ORIGINAL = "S"
    TARGET_ORIGINAL = "T"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "OriginLabel":
        try:
            return cls(code)
        except ValueError:
            raise DataError(f"unknown origin label {code!r}, expected S or T") from None


@dataclass(frozen=True, slots=True)
class ParallelExample:
    """One aligned sentence pair, with optional annotations."""

    source: Sentence
    target: Sentence
    source_pos: PosAnnotation | None = None
    target_pos: PosAnnotation | None = None

    def __post_init__(self) -> None:
        if self.source_pos is not None and len(self.source_pos) != len(self.source):
            raise PosAlignmentError(
                f"source has {len(self.source)} tokens but {len(self.source_pos)} tags"
            )
        if self.target_pos is not None and len(self.target_pos) != len(self.target):
            raise PosAlignmentError(
                f"target has {len(self.target)} tokens but {len(self.target_pos)} tags"
            )


def _empty_line(path: str, line_no: int) -> NoReturn:
    raise EmptyLine(path, line_no)


def read_mono(path: str) -> Iterator[Sentence]:
    """Stream one Sentence per line. Blank lines are data errors, not skips."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            yield tuple(raw.split()) or _empty_line(path, line_no)


def _read_tags(
    raw: str, path: str, line_no: int, tokens: Sentence, side: str
) -> PosAnnotation:
    tags = tuple(raw.split()) or _empty_line(path, line_no)
    if len(tags) != len(tokens):
        raise PosAlignmentError(
            f"{path}: line {line_no} has {len(tags)} tags "
            f"for {len(tokens)} {side} tokens",
            line_no=line_no,
        )
    return tags


_END = object()


def read_parallel(
    source_path: str,
    target_path: str,
    source_pos_path: str | None = None,
    target_pos_path: str | None = None,
) -> Iterator[ParallelExample]:
    """Stream aligned ParallelExamples from two (or four) files.

    All provided files must have the same line count; the first file, in
    argument order, to run out is named in the LineCountMismatch. POS lines
    must carry exactly one tag per token of the corresponding side.
    """
    paths = [source_path, target_path, source_pos_path, target_pos_path]
    paths = [p for p in paths if p is not None]
    with ExitStack() as stack:
        handles = [stack.enter_context(open(p, "r", encoding="utf-8")) for p in paths]
        for line_no, raws in enumerate(zip_longest(*handles, fillvalue=_END), 1):
            if _END in raws:
                raise LineCountMismatch(
                    f"{paths[raws.index(_END)]} ended at line {line_no} "
                    "but other input(s) continue",
                    line_no=line_no,
                )
            source = tuple(raws[0].split()) or _empty_line(source_path, line_no)
            target = tuple(raws[1].split()) or _empty_line(target_path, line_no)
            source_pos = target_pos = None
            if source_pos_path is not None:
                source_pos = _read_tags(
                    raws[2], source_pos_path, line_no, source, "source"
                )
            if target_pos_path is not None:
                target_pos = _read_tags(
                    raws[-1], target_pos_path, line_no, target, "target"
                )
            yield ParallelExample(source, target, source_pos, target_pos)


def _check_writable(sentence: Sentence, line_no: int) -> str:
    """The sentence as one space-joined line, or DataError naming the bad token.

    str.split() splits on exactly the characters str.isspace() accepts, so the
    line splits back into the sentence iff no token is empty or has whitespace.
    """
    if not sentence:
        raise DataError(f"line {line_no}: refusing to write an empty sentence")
    line = " ".join(sentence)
    if tuple(line.split()) != tuple(sentence):
        token = next(t for t in sentence if not t or any(ch.isspace() for ch in t))
        raise DataError(
            f"line {line_no}: token {token!r} is empty or contains whitespace"
        )
    return line


def write_mono(sentences: Iterable[Sentence], path: str) -> int:
    """Write one space-joined line per sentence (atomically); returns line count."""
    count = 0
    with atomic_write(path) as handle:
        for line_no, sentence in enumerate(sentences, 1):
            handle.write(_check_writable(sentence, line_no) + "\n")
            count += 1
    return count


def write_parallel(
    examples: Iterable[ParallelExample], source_path: str, target_path: str
) -> int:
    """Write both sides of a parallel corpus atomically; returns line count.

    Reading the written files back reproduces each example's token content
    exactly (the round-trip law), which is why tokens with whitespace are
    rejected rather than silently corrupted.
    """
    count = 0
    with atomic_write(source_path) as src, atomic_write(target_path) as tgt:
        for line_no, ex in enumerate(examples, 1):
            src.write(_check_writable(ex.source, line_no) + "\n")
            tgt.write(_check_writable(ex.target, line_no) + "\n")
            count += 1
    return count
