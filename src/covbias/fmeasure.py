"""Bag-of-words F-measure over POS buckets, for adequacy comparison.

Per line, a hypothesis token type matches min(hypothesis count, reference
count) times (clipped matching). Token types belong to buckets by the
majority POS tag they carry across the whole reference; a type whose majority
is tied between tags joins only the lexicographically smallest bucket that
contains one of the tied tags. Hypothesis types never seen in the reference
belong to no bucket and are ignored.

word_fmeasure reads its pairs once and holds counts per token type, never a
line: its memory grows with the vocabulary, not the corpus.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .corpus import ParallelExample

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


def word_fmeasure(
    examples: Iterable[ParallelExample],
    buckets: Mapping[str, frozenset[str]] | None = None,
) -> dict[str, BucketStats]:
    """Clipped bag-of-words precision/recall/F1 per POS bucket, in one pass.

    Each example is one line: the hypothesis as source, the reference as
    target and the reference's tags as target_pos, as
    read_parallel(hyp, ref, None, ref_pos) yields them. The pairs are read
    once; per token type the pass keeps its tag profile and three totals
    (hypothesis count, reference count and clipped matches), and each bucket
    sums its types' totals at the end.
    """
    if buckets is None:
        buckets = DEFAULT_BUCKETS
    hyp_count: Counter[str] = Counter()
    ref_count: Counter[str] = Counter()
    matched: Counter[str] = Counter()
    tagged: Counter[tuple[str, str]] = Counter()
    for hyp_tokens, ref_tokens, _, tags in examples:
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
    return stats
