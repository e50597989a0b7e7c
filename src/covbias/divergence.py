"""Vocabulary distributions and their Jensen-Shannon divergence.

Distributions are unsmoothed relative frequencies over one side of a corpus,
optionally restricted to content words (by POS tag) or function words (the
complement). Divergences are in natural log units, so js() is bounded by
ln 2; the jsdiv report (DivergenceReport.to_tsv) also gives each value
multiplied by JS_SCALE = 1e5, convenient for comparing very close
distributions. Summation uses math.fsum over a sorted token order, which
makes js exactly symmetric and exactly zero on identical inputs.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .corpus import ParallelExample
from .errors import (
    DataError,
    EmptySelection,
    InvalidFraction,
    MissingPosAnnotations,
)
from .fileio import fmt_float, format_tsv, read_section_file

JS_SCALE = 1e5
WORD_CLASSES = ("all", "content", "function")


@dataclass(frozen=True, slots=True)
class WordClassMap:
    """Which POS tags count as content words; everything else is function."""

    content_tags: frozenset[str]

    def __post_init__(self) -> None:
        if not self.content_tags:
            raise ValueError("content tag set must not be empty")

    @classmethod
    def default(cls) -> "WordClassMap":
        return cls(frozenset({"NOUN", "VERB", "ADJ"}))

    @classmethod
    def from_file(cls, path: str) -> "WordClassMap":
        sections = read_section_file(path)
        if "content" not in sections:
            raise DataError(f"{path}: missing [content] section")
        unknown = set(sections) - {"content"}
        if unknown:
            raise DataError(
                f"{path}: unexpected section(s) {', '.join(sorted(unknown))}"
            )
        return cls(frozenset(sections["content"]))

    def is_content(self, tag: str) -> bool:
        return tag in self.content_tags


@dataclass(frozen=True, slots=True)
class VocabDistribution:
    """Relative token frequencies; counts hold only positive entries."""

    counts: Mapping[str, int]
    total: int

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "VocabDistribution":
        positive = {t: c for t, c in counts.items() if c > 0}
        if any(c < 0 for c in counts.values()):
            raise ValueError("negative token count")
        if not positive:
            raise EmptySelection("distribution over zero tokens")
        return cls(positive, sum(positive.values()))


def _side_tokens(
    example: ParallelExample, side: str, line_no: int, need_pos: bool
) -> tuple[tuple[str, ...], tuple[str, ...] | None]:
    if side == "source":
        tokens, pos = example.source, example.source_pos
    elif side == "target":
        tokens, pos = example.target, example.target_pos
    else:
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    if need_pos and pos is None:
        raise MissingPosAnnotations(
            f"line {line_no}: {side} side has no POS annotations", line_no=line_no
        )
    return tokens, pos


def _count_words(
    counts: Mapping[str, dict[str, int]],
    tokens: Sequence[str],
    pos: Sequence[str] | None,
    classes: WordClassMap,
) -> None:
    """Add one side's tokens to counts["all"] and, when it is tagged, each
    token to counts["content"] or counts["function"] by its tag."""
    all_counts = counts["all"]
    if pos is None:
        for token in tokens:
            all_counts[token] = all_counts.get(token, 0) + 1
        return
    content_counts, function_counts = counts["content"], counts["function"]
    for token, tag in zip(tokens, pos):
        all_counts[token] = all_counts.get(token, 0) + 1
        bucket = content_counts if classes.is_content(tag) else function_counts
        bucket[token] = bucket.get(token, 0) + 1


def build_distribution(
    examples: Iterable[ParallelExample],
    side: str,
    word_class: str = "all",
    classes: WordClassMap | None = None,
) -> VocabDistribution:
    """Token distribution over one side, filtered by word class.

    word_class is "all", "content", or "function"; the last two need POS
    annotations on the chosen side and raise MissingPosAnnotations at the
    first example without them.
    """
    if word_class not in WORD_CLASSES:
        raise ValueError(f"word_class must be one of {WORD_CLASSES}, got {word_class!r}")
    classes = classes or WordClassMap.default()
    counts: dict[str, dict[str, int]] = {name: {} for name in WORD_CLASSES}
    need_pos = word_class != "all"
    for line_no, example in enumerate(examples, 1):
        tokens, pos = _side_tokens(example, side, line_no, need_pos)
        _count_words(counts, tokens, pos if need_pos else None, classes)
    if not counts[word_class]:
        raise EmptySelection(f"no {word_class} tokens in the {side}-side selection")
    return VocabDistribution.from_counts(counts[word_class])


def js(p: VocabDistribution, q: VocabDistribution) -> float:
    """Jensen-Shannon divergence in nats: always finite, in [0, ln 2]."""
    tokens = sorted(set(p.counts) | set(q.counts))
    terms_p = []
    terms_q = []
    for token in tokens:
        pi = p.counts.get(token, 0) / p.total
        qi = q.counts.get(token, 0) / q.total
        mi = 0.5 * (pi + qi)
        if pi:
            terms_p.append(pi * math.log(pi / mi))
        if qi:
            terms_q.append(qi * math.log(qi / mi))
    return 0.5 * (math.fsum(terms_p) + math.fsum(terms_q))


@dataclass(frozen=True, slots=True)
class DivergenceReport:
    """Per-word-class JS divergence between two line partitions."""

    js_all: float
    js_content: float
    js_function: float

    def to_tsv(self) -> str:
        rows = []
        for word_class in WORD_CLASSES:
            nats = getattr(self, f"js_{word_class}")
            rows.append((word_class, fmt_float(nats), fmt_float(nats * JS_SCALE)))
        return format_tsv(("class", "js_nats", "js_x1e5"), rows)


def divergence_report(
    examples: Iterable[ParallelExample],
    partition_a: set[int],
    partition_b: set[int],
    side: str,
    classes: WordClassMap | None = None,
) -> DivergenceReport:
    """JS between the two partitions' token distributions on one side.

    Partitions are sets of 1-based line numbers into the example stream; they
    must be disjoint and must all occur in the stream. Lines in neither set
    are ignored.
    """
    overlap = partition_a & partition_b
    if overlap:
        raise DataError(
            f"partitions overlap on {len(overlap)} line(s), e.g. {min(overlap)}"
        )
    classes = classes or WordClassMap.default()
    sides = {"a": partition_a, "b": partition_b}
    counts = {group: {name: {} for name in WORD_CLASSES} for group in sides}
    seen = {"a": 0, "b": 0}
    last_line = 0
    for line_no, example in enumerate(examples, 1):
        last_line = line_no
        if line_no in partition_a:
            group = "a"
        elif line_no in partition_b:
            group = "b"
        else:
            continue
        seen[group] += 1
        tokens, pos = _side_tokens(example, side, line_no, need_pos=True)
        _count_words(counts[group], tokens, pos, classes)
    for group, wanted in sides.items():
        if seen[group] != len(wanted):
            raise DataError(
                f"partition {group} names {len(wanted)} lines but only "
                f"{seen[group]} were found in the {last_line}-line stream"
            )
    values = {}
    for word_class in WORD_CLASSES:
        dist_a = VocabDistribution.from_counts(counts["a"][word_class])
        dist_b = VocabDistribution.from_counts(counts["b"][word_class])
        values[word_class] = js(dist_a, dist_b)
    return DivergenceReport(
        js_all=values["all"], js_content=values["content"], js_function=values["function"]
    )


def random_split(
    n_lines: int, fraction: float, seed: int
) -> tuple[set[int], set[int]]:
    """Deterministically split 1..n_lines into two disjoint covering sets.

    The first set gets floor(fraction * n_lines) lines, sampled by shuffling
    with the given seed.
    """
    if not 0 < fraction < 1:
        raise InvalidFraction(f"fraction must be in (0, 1), got {fraction}")
    if n_lines < 1:
        raise EmptySelection("cannot split zero lines")
    k = math.floor(fraction * n_lines)
    line_numbers = list(range(1, n_lines + 1))
    random.Random(seed).shuffle(line_numbers)
    return set(line_numbers[:k]), set(line_numbers[k:])
