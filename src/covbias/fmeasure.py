"""Bag-of-words F-measure over POS buckets, for adequacy comparison.

Per line, a hypothesis token type matches min(hypothesis count, reference
count) times (clipped matching). Token types belong to buckets by the
majority POS tag they carry across the whole reference; a type whose majority
is tied between tags joins only the lexicographically smallest bucket that
contains one of the tied tags. Hypothesis types never seen in the reference
belong to no bucket and are ignored.

word_fmeasure reads its three inputs once, in lock-step, and holds counts per
token type, never a line: its memory grows with the vocabulary, not the corpus.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, zip_longest
from typing import NamedTuple

from .corpus import PosAnnotation, Sentence
from .errors import DataError
from .fileio import fmt_float, format_tsv

DEFAULT_BUCKETS: dict[str, frozenset[str]] = {
    "noun": frozenset({"NOUN"}),
    "verb": frozenset({"VERB"}),
    "adj": frozenset({"ADJ"}),
}


class BucketStats(NamedTuple):
    precision: float
    recall: float
    f1: float
    matched: int
    sys_count: int
    ref_count: int


class AdequacyReport(NamedTuple):
    buckets: Mapping[str, BucketStats]

    def to_tsv(self) -> str:
        return "".join(format_tsv(
            ("bucket", "precision", "recall", "f1", "matched", "sys_count", "ref_count"),
            (
                (
                    name,
                    fmt_float(s.precision),
                    fmt_float(s.recall),
                    fmt_float(s.f1),
                    str(s.matched),
                    str(s.sys_count),
                    str(s.ref_count),
                )
                for name, s in sorted(self.buckets.items())
            ),
        ))


def _type_buckets(
    tagged: Counter[tuple[str, str]], buckets: Mapping[str, frozenset[str]]
) -> dict[str, tuple[str, ...]]:
    """Assign each reference token type to its buckets by majority tag.

    tagged counts each (token, tag) pair of the reference.
    """
    profiles: dict[str, dict[str, int]] = {}
    for (token, tag), count in tagged.items():
        profiles.setdefault(token, {})[tag] = count
    ordered_buckets = sorted(buckets)
    assignment: dict[str, tuple[str, ...]] = {}
    for token, profile in profiles.items():
        top = max(profile.values())
        majority = {tag for tag, count in profile.items() if count == top}
        qualifying = [
            name for name in ordered_buckets if buckets[name] & majority
        ]
        if not qualifying:
            continue
        if len(majority) == 1:
            assignment[token] = tuple(qualifying)
        else:
            assignment[token] = (qualifying[0],)
    return assignment


_END = object()


def _length_fault(line_no: int, row: tuple, rest: Iterator[tuple]) -> DataError:
    """The DataError for inputs of unequal length; row is the first short one."""
    sizes = [line_no - 1] * 3
    for later in chain([row], rest):
        for side, value in enumerate(later):
            sizes[side] += value is not _END
    hyp_lines, ref_lines, pos_lines = sizes
    if hyp_lines != ref_lines:
        return DataError(f"{hyp_lines} hypothesis lines but {ref_lines} reference lines")
    return DataError(f"{pos_lines} POS lines but {ref_lines} reference lines")


def word_fmeasure(
    hyp: Iterable[Sentence],
    ref: Iterable[Sentence],
    ref_pos: Iterable[PosAnnotation],
    buckets: Mapping[str, frozenset[str]] | None = None,
) -> AdequacyReport:
    """Clipped bag-of-words precision/recall/F1 per POS bucket, in one pass.

    The three inputs are read once, in lock-step. Per token type the pass
    keeps its tag profile and three totals (hypothesis count, reference count
    and clipped matches); each bucket sums its types' totals at the end.
    """
    if buckets is None:
        buckets = DEFAULT_BUCKETS
    hyp_count: Counter[str] = Counter()
    ref_count: Counter[str] = Counter()
    matched: Counter[str] = Counter()
    tagged: Counter[tuple[str, str]] = Counter()
    rows = zip_longest(hyp, ref, ref_pos, fillvalue=_END)
    for line_no, row in enumerate(rows, 1):
        if _END in row:
            raise _length_fault(line_no, row, rows)
        hyp_tokens, ref_tokens, tags = row
        if len(ref_tokens) != len(tags):
            raise DataError(
                f"line {line_no}: {len(tags)} tags for {len(ref_tokens)} reference tokens",
                line_no=line_no,
            )
        hyp_count.update(hyp_tokens)
        ref_count.update(ref_tokens)
        tagged.update(zip(ref_tokens, tags))
        hyp_line, ref_line = Counter(hyp_tokens), Counter(ref_tokens)
        for token in hyp_line.keys() & ref_line.keys():
            matched[token] += min(hyp_line[token], ref_line[token])

    totals = {name: [0, 0, 0] for name in buckets}  # matched, sys_count, ref_count
    for token, names in _type_buckets(tagged, buckets).items():
        for name in names:
            total = totals[name]
            total[0] += matched[token]
            total[1] += hyp_count[token]
            total[2] += ref_count[token]
    stats = {}
    for name, (m, s, r) in totals.items():
        precision = m / s if s else 0.0
        recall = m / r if r else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        stats[name] = BucketStats(precision, recall, f1, m, s, r)
    return AdequacyReport(stats)
