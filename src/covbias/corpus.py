"""Reading, validating, and writing whitespace-tokenized corpora.

Corpus files are UTF-8 text, one sentence per line, tokens separated by
whitespace. POS annotation files have the same shape with one tag per token.
Line numbers are 1-based everywhere. Readers are generators, so memory use is
bounded by the longest line, not the file size. Writers refuse any sentence
that would not read back as the same tokens: one that is empty or has a token
that is empty or contains whitespace (the characters str.isspace() accepts).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from enum import Enum
from itertools import zip_longest
from typing import NoReturn

from .errors import DataError
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


class ParallelExample(namedtuple("ParallelExample", "source target source_pos target_pos")):
    """One aligned sentence pair, with optional annotations."""

    __slots__ = ()

    def __new__(
        cls,
        source: Sentence,
        target: Sentence,
        source_pos: PosAnnotation | None = None,
        target_pos: PosAnnotation | None = None,
    ) -> ParallelExample:
        if source_pos is not None and len(source_pos) != len(source):
            raise DataError(f"source has {len(source)} tokens but {len(source_pos)} tags")
        if target_pos is not None and len(target_pos) != len(target):
            raise DataError(f"target has {len(target)} tokens but {len(target_pos)} tags")
        return tuple.__new__(cls, (source, target, source_pos, target_pos))

    @classmethod
    def _make(cls, iterable: Iterable) -> ParallelExample:
        # namedtuple's _make, and _replace through it, would skip __new__'s checks
        return cls(*iterable)


def _empty_line(path: str, line_no: int) -> NoReturn:
    raise DataError(f"{path}: line {line_no} is empty")


def read_mono(path: str) -> Iterator[Sentence]:
    """Stream one Sentence per line. Blank lines are data errors, not skips."""
    for line_no, (raw,) in _read_lines([path]):
        yield tuple(raw.split()) or _empty_line(path, line_no)


def _read_tags(raw: str, tokens: Sentence, path: str, line_no: int) -> PosAnnotation:
    tags = tuple(raw.split()) or _empty_line(path, line_no)
    if len(tags) != len(tokens):
        raise DataError(f"{path}: line {line_no} has {len(tags)} tags for {len(tokens)} tokens")
    return tags


_END = object()


def _read_lines(paths: list[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Walk files in lock-step, yielding (line_no, one raw line per file).

    Lines end at "\n" only, as the writers end them, so a lone "\r" is
    whitespace inside a line and "\r\n" ends one. The first file, in
    argument order, to run out raises DataError naming that file and the
    first line it lacks.
    """
    with ExitStack() as stack:
        handles = [stack.enter_context(open(p, encoding="utf-8", newline="\n")) for p in paths]
        for line_no, raws in enumerate(zip_longest(*handles, fillvalue=_END), 1):
            if _END in raws:
                raise DataError(
                    f"{paths[raws.index(_END)]} ended at line {line_no} but other input(s) continue"
                )
            yield line_no, raws


def read_parallel(
    source_path: str,
    target_path: str,
    source_pos_path: str | None = None,
    target_pos_path: str | None = None,
) -> Iterator[ParallelExample]:
    """Stream aligned ParallelExamples from two (or four) files read in lock-step.

    The first file to run out is named with the first line it lacks; each POS
    line must carry exactly one tag per token of its side.
    """
    paths = [source_path, target_path, source_pos_path, target_pos_path]
    for line_no, raws in _read_lines([p for p in paths if p is not None]):
        source = tuple(raws[0].split()) or _empty_line(source_path, line_no)
        target = tuple(raws[1].split()) or _empty_line(target_path, line_no)
        source_pos = target_pos = None
        if source_pos_path is not None:
            source_pos = _read_tags(raws[2], source, source_pos_path, line_no)
        if target_pos_path is not None:
            target_pos = _read_tags(raws[-1], target, target_pos_path, line_no)
        yield ParallelExample(source, target, source_pos, target_pos)


def read_tagged(
    input_path: str, pos_path: str
) -> Iterator[tuple[Sentence, PosAnnotation]]:
    """Stream (sentence, tags) pairs from a corpus and its POS file in lock-step.

    Errors name the file and line: the first line a shorter file lacks, or a
    POS line without exactly one tag per token.
    """
    for line_no, (raw, raw_tags) in _read_lines([input_path, pos_path]):
        sentence = tuple(raw.split()) or _empty_line(input_path, line_no)
        yield sentence, _read_tags(raw_tags, sentence, pos_path, line_no)


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
        raise DataError(f"line {line_no}: token {token!r} is empty or contains whitespace")
    return line


def write_mono(sentences: Iterable[Sentence], path: str) -> int:
    """Write one space-joined line per sentence (atomically); returns line count."""
    line_no = 0
    with atomic_write(path) as handle:
        for line_no, sentence in enumerate(sentences, 1):
            handle.write(_check_writable(sentence, line_no) + "\n")
    return line_no


def write_parallel(
    examples: Iterable[ParallelExample], source_path: str, target_path: str
) -> int:
    """Write both sides of a parallel corpus atomically; returns line count.

    Reading the written files back reproduces each example's token content
    exactly (the round-trip law), which is why tokens with whitespace are
    rejected rather than silently corrupted.
    """
    line_no = 0
    with atomic_write(source_path) as src, atomic_write(target_path) as tgt:
        for line_no, ex in enumerate(examples, 1):
            src.write(_check_writable(ex.source, line_no) + "\n")
            tgt.write(_check_writable(ex.target, line_no) + "\n")
    return line_no
