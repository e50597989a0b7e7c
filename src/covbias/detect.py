"""Deciding which side of a parallel pair was written first.

A pair is scored by the difference between the source-language model's
log-probability of the source sentence and the target-language model's
log-probability of the target sentence, plus a constant offset c. Positive
scores mean source-original; zero and negative mean target-original. The
offset is tuned on labeled data by maximizing macro-F1 over decision
thresholds. score_pair gives the difference without c; classify adds c and
yields (line_no, score) pairs, whose label is label_for(score), never stored.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from .corpus import OriginLabel, ParallelExample
from .errors import DataError

if TYPE_CHECKING:
    from fractions import Fraction

    from .lm import NGramModel


def label_for(score: float) -> OriginLabel:
    """Positive scores are source-original; zero breaks toward target-original."""
    return OriginLabel.SOURCE_ORIGINAL if score > 0 else OriginLabel.TARGET_ORIGINAL


def score_pair(
    source_lm: NGramModel,
    target_lm: NGramModel,
    example: ParallelExample,
    length_normalize: bool = False,
) -> float:
    """The two-model log-probability difference, before any offset."""
    s = source_lm.logprob(example.source)
    t = target_lm.logprob(example.target)
    if length_normalize:
        return s.total_logprob / s.token_count - t.total_logprob / t.token_count
    return s.total_logprob - t.total_logprob


def classify(
    source_lm: NGramModel,
    target_lm: NGramModel,
    examples: Iterable[ParallelExample],
    offset_c: float = 0.0,
    length_normalize: bool = False,
) -> Iterator[tuple[int, float]]:
    """(line_no, score) per example in order, offset_c added, line numbers from 1."""
    if not math.isfinite(offset_c):
        raise ValueError("offset_c must be finite")
    return (
        (n, score_pair(source_lm, target_lm, ex, length_normalize) + offset_c)
        for n, ex in enumerate(examples, 1)
    )


def tune_offset(
    scored: Sequence[tuple[float, OriginLabel]]
) -> tuple[float, float]:
    """Pick the offset c maximizing macro-F1 on (raw score, gold) pairs.

    A threshold t labels S the scores strictly above it, so c = -t. The
    candidates are one t per gap between adjacent distinct raw scores lo < hi,
    the midpoint where it lies strictly between them and otherwise lo (the
    midpoint overflows or rounds onto lo or hi), plus min - 1 and max + 1
    (the float below min and max itself where adding 1 is absorbed). Every
    partition of the scores at a threshold is thus tried, with one exception:
    at min == -sys.float_info.max no finite c labels every pair S, and that
    candidate is dropped. Ties on macro-F1 prefer the widest score gap (the
    two outside candidates count as infinitely wide), then the smallest |c|,
    then the smaller c. Returns (c, macro_f1 at c).
    """
    if not scored:
        raise DataError("cannot tune an offset on zero scored pairs")
    pairs = sorted(scored, key=lambda sl: sl[0])
    values = [s for s, _ in pairs]
    # prefix_s[i] = gold source-original count among the i lowest scores
    prefix_s = [0]
    for _, gold in pairs:
        prefix_s.append(prefix_s[-1] + (1 if gold is OriginLabel.SOURCE_ORIGINAL else 0))
    total_s = prefix_s[-1]
    total_t = len(pairs) - total_s
    if not total_s or not total_t:
        raise DataError(
            "offset tuning needs both source-original and target-original gold labels"
        )

    distinct = sorted(set(values))
    low, high = distinct[0], distinct[-1]
    below = low - 1.0 if low - 1.0 < low else math.nextafter(low, -math.inf)
    candidates: list[tuple[float, float]] = [(below, math.inf)] if below > -math.inf else []
    for lo, hi in zip(distinct, distinct[1:]):
        mid = (lo + hi) / 2.0
        candidates.append((mid if lo < mid < hi else lo, hi - lo))
    candidates.append((high + 1.0 if high + 1.0 > high else high, math.inf))

    best: tuple[float, float, float, float] | None = None
    best_c = best_f1 = 0.0
    for threshold, gap in candidates:
        # predicted source-original = scores strictly above the threshold
        idx = bisect.bisect_right(values, threshold)
        tp_s = total_s - prefix_s[idx]
        fp_s = (len(pairs) - idx) - tp_s
        fn_s = total_s - tp_s
        tp_t = idx - prefix_s[idx]
        fp_t = idx - tp_t
        fn_t = total_t - tp_t
        f1 = (_f1(tp_s, fp_s, fn_s) + _f1(tp_t, fp_t, fn_t)) / 2.0
        c = -threshold
        key = (f1, gap, -abs(c), -c)
        if best is None or key > best:
            best = key
            best_c, best_f1 = c, f1
    return best_c, best_f1


def select_extremes(
    records: Sequence[tuple[int, float]], ratio_percent: float | Fraction
) -> tuple[set[int], set[int]]:
    """(most_source line numbers, most_target line numbers) of (line_no, score) pairs.

    Records are ranked once, descending by score with ties broken by smaller
    line number first; most_source is the head of that ranking, most_target
    the tail, each floor(R * N / 100) lines for R = ratio_percent in (0, 50]
    (exact for an int, float or Fraction R), so the sets never overlap. A NaN
    score has no rank, and raises ValueError naming its line.
    """
    if not 0 < ratio_percent <= 50:
        raise ValueError(f"ratio_percent must be in (0, 50], got {ratio_percent}")
    if not records:
        raise DataError("cannot select from zero records")
    for line_no, score in records:
        if math.isnan(score):
            raise ValueError(f"line {line_no}: score is NaN, which has no rank")
    num, den = ratio_percent.as_integer_ratio()
    k = num * len(records) // (100 * den)
    ranking = sorted(records, key=lambda r: (-r[1], r[0]))
    most_source = {line_no for line_no, _ in ranking[:k]}
    most_target = {line_no for line_no, _ in ranking[len(ranking) - k :]} if k else set()
    return most_source, most_target


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
