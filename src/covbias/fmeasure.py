"""Bag-of-words F-measure over POS buckets, for adequacy comparison.

Per line, a hypothesis token type matches min(hypothesis count, reference
count) times (clipped matching). Token types belong to buckets by the
majority POS tag they carry across the whole reference; a type whose majority
is tied between tags joins only the lexicographically smallest bucket that
contains one of the tied tags. Hypothesis types never seen in the reference
belong to no bucket and are ignored.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import PosAnnotation, Sentence
from .errors import LengthMismatch, PosAlignmentError
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


@dataclass(frozen=True, slots=True)
class AdequacyReport:
    buckets: Mapping[str, BucketStats]

    def to_tsv(self) -> str:
        return format_tsv(
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
        )


def _type_buckets(
    ref: Sequence[Sentence],
    ref_pos: Sequence[PosAnnotation],
    buckets: Mapping[str, frozenset[str]],
) -> dict[str, tuple[str, ...]]:
    """Assign each reference token type to its buckets by majority tag."""
    profiles: dict[str, Counter[str]] = {}
    for tokens, tags in zip(ref, ref_pos):
        for token, tag in zip(tokens, tags):
            profiles.setdefault(token, Counter())[tag] += 1
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


def word_fmeasure(
    hyp: Sequence[Sentence],
    ref: Sequence[Sentence],
    ref_pos: Sequence[PosAnnotation],
    buckets: Mapping[str, frozenset[str]] | None = None,
) -> AdequacyReport:
    """Clipped bag-of-words precision/recall/F1 per POS bucket."""
    if buckets is None:
        buckets = DEFAULT_BUCKETS
    if len(hyp) != len(ref):
        raise LengthMismatch(f"{len(hyp)} hypothesis lines but {len(ref)} reference lines")
    if len(ref_pos) != len(ref):
        raise LengthMismatch(f"{len(ref_pos)} POS lines but {len(ref)} reference lines")
    for line_no, (tokens, tags) in enumerate(zip(ref, ref_pos), 1):
        if len(tokens) != len(tags):
            raise PosAlignmentError(
                f"line {line_no}: {len(tags)} tags for {len(tokens)} reference tokens",
                line_no=line_no,
            )
    membership = _type_buckets(ref, ref_pos, buckets)

    matched = {name: 0 for name in buckets}
    sys_count = dict(matched)
    ref_count = dict(matched)
    for hyp_tokens, ref_tokens in zip(hyp, ref):
        hyp_counts = Counter(hyp_tokens)
        ref_counts = Counter(ref_tokens)
        for token, count in hyp_counts.items():
            for name in membership.get(token, ()):
                sys_count[name] += count
        for token, count in ref_counts.items():
            for name in membership.get(token, ()):
                ref_count[name] += count
        for token in hyp_counts.keys() & ref_counts.keys():
            overlap = min(hyp_counts[token], ref_counts[token])
            for name in membership.get(token, ()):
                matched[name] += overlap

    stats = {}
    for name in buckets:
        m, s, r = matched[name], sys_count[name], ref_count[name]
        precision = m / s if s else 0.0
        recall = m / r if r else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        stats[name] = BucketStats(precision, recall, f1, m, s, r)
    return AdequacyReport(stats)
