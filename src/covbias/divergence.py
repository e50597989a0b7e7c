"""Vocabulary distributions and their Jensen-Shannon divergence.

A distribution is a {token: count} map over one side of a corpus, read as
unsmoothed relative frequencies, optionally restricted to content words (by
POS tag) or function words (the complement). Divergences are in natural log
units, so js() is bounded by ln 2; the jsdiv report also gives each value
multiplied by JS_SCALE = 1e5, convenient for comparing very close
distributions. Summation uses math.fsum over a sorted token order, which
makes js exactly symmetric and exactly zero on identical inputs.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, NamedTuple

from .corpus import ParallelExample
from .errors import DataError
from .fileio import read_section_file

if TYPE_CHECKING:
    from fractions import Fraction

JS_SCALE = 1e5
WORD_CLASSES = ("all", "content", "function")
# POS tags that count as content words unless given others; the rest are function words
DEFAULT_CONTENT_TAGS = frozenset({"NOUN", "VERB", "ADJ"})


def read_word_classes(path: str) -> frozenset[str]:
    """The content tags of a word-class file: one [content] section, nothing else."""
    sections = read_section_file(path)
    if "content" not in sections:
        raise DataError(f"{path}: missing [content] section")
    unknown = set(sections) - {"content"}
    if unknown:
        raise DataError(
            f"{path}: unexpected section(s) {', '.join(sorted(unknown))}"
        )
    return frozenset(sections["content"])


def _total(counts: Mapping[str, int]) -> int:
    if any(c < 0 for c in counts.values()):
        raise ValueError("negative token count")
    total = sum(counts.values())
    if not total:
        raise DataError("distribution over zero tokens")
    return total


def js(p: Mapping[str, int], q: Mapping[str, int]) -> float:
    """Jensen-Shannon divergence in nats between two {token: count} maps.

    Always finite, in [0, ln 2]. Zero counts are as if absent; a negative
    count is a ValueError, and a map with no positive count a DataError.
    """
    total_p, total_q = _total(p), _total(q)
    tokens = sorted(set(p) | set(q))
    terms_p = []
    terms_q = []
    for token in tokens:
        pi = p.get(token, 0) / total_p
        qi = q.get(token, 0) / total_q
        mi = 0.5 * (pi + qi)
        if pi:
            terms_p.append(pi * math.log(pi / mi))
        if qi:
            terms_q.append(qi * math.log(qi / mi))
    return 0.5 * (math.fsum(terms_p) + math.fsum(terms_q))


class DivergenceReport(NamedTuple):
    """Per-word-class JS divergence between two line partitions."""

    js_all: float
    js_content: float
    js_function: float


def divergence_report(
    examples: Iterable[ParallelExample],
    partition_a: set[int],
    partition_b: set[int],
    side: str,
    content_tags: frozenset[str] = DEFAULT_CONTENT_TAGS,
) -> DivergenceReport:
    """JS between the two partitions' token distributions on one side.

    Partitions are sets of 1-based line numbers into the example stream; they
    must be disjoint and must all occur in the stream. Lines in neither set
    are ignored. Each partition line needs POS tags on that side; a token is a
    content word when its tag is in content_tags, else a function word.
    """
    if side not in ("source", "target"):
        raise ValueError(f"side must be 'source' or 'target', got {side!r}")
    overlap = partition_a & partition_b
    if overlap:
        raise DataError(
            f"partitions overlap on {len(overlap)} line(s), e.g. {min(overlap)}"
        )
    pos_field = f"{side}_pos"
    sides = {"a": partition_a, "b": partition_b}
    # per group, one {token: count} map per word class, in WORD_CLASSES order
    counts = {group: ({}, {}, {}) for group in sides}
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
        pos = getattr(example, pos_field)
        if pos is None:
            raise DataError(
                f"line {line_no}: {side} side has no POS annotations", line_no=line_no
            )
        all_counts, content_counts, function_counts = counts[group]
        for token, tag in zip(getattr(example, side), pos):
            all_counts[token] = all_counts.get(token, 0) + 1
            bucket = content_counts if tag in content_tags else function_counts
            bucket[token] = bucket.get(token, 0) + 1
    for group, wanted in sides.items():
        if seen[group] != len(wanted):
            raise DataError(
                f"partition {group} names {len(wanted)} lines but only "
                f"{seen[group]} were found in the {last_line}-line stream"
            )
    return DivergenceReport(*map(js, counts["a"], counts["b"]))


def random_split(
    n_lines: int, fraction: float | Fraction, seed: int
) -> tuple[set[int], set[int]]:
    """Deterministically split 1..n_lines into two disjoint covering sets.

    The first set gets floor(fraction * n_lines) lines (exact for an int,
    float or Fraction fraction), sampled by shuffling with the given seed.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if n_lines < 1:
        raise ValueError("cannot split zero lines")
    num, den = fraction.as_integer_ratio()
    k = num * n_lines // den
    line_numbers = list(range(1, n_lines + 1))
    random.Random(seed).shuffle(line_numbers)
    return set(line_numbers[:k]), set(line_numbers[k:])
