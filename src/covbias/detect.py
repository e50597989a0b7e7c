"""Deciding which side of a parallel pair was written first.

A pair is scored by the difference between the source-language model's
log-probability of the source sentence and the target-language model's
log-probability of the target sentence, plus a constant offset c. Positive
scores mean source-original; zero and negative mean target-original. The
offset is tuned on labeled data by maximizing macro-F1 over decision
thresholds. score_pair gives the difference without c; classify adds c and
yields ScoreRecords, whose label is derived from the score, never stored.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .corpus import OriginLabel, ParallelExample
from .errors import DataError

if TYPE_CHECKING:
    from .lm import NGramModel


class ScoreRecord(namedtuple("ScoreRecord", "line_no score")):
    """A scored line (line_no, score); its label is always label_for(score)."""

    __slots__ = ()

    def __new__(cls, line_no: int, score: float) -> ScoreRecord:
        if math.isnan(score):
            raise ValueError(f"line {line_no}: score is NaN, which has no rank")
        return tuple.__new__(cls, (line_no, score))

    @property
    def label(self) -> OriginLabel:
        return label_for(self.score)


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
) -> Iterator[ScoreRecord]:
    """Score examples in order, offset_c added, with 1-based line numbers."""
    if not math.isfinite(offset_c):
        raise ValueError("offset_c must be finite")
    return (
        ScoreRecord(n, score_pair(source_lm, target_lm, ex, length_normalize) + offset_c)
        for n, ex in enumerate(examples, 1)
    )


def tune_offset(
    scored: Sequence[tuple[float, OriginLabel]]
) -> tuple[float, float]:
    """Pick the offset c maximizing macro-F1 on (raw score, gold) pairs.

    Candidate decision thresholds are the midpoints between adjacent distinct
    raw scores plus one candidate below the minimum and one above the maximum.
    Ties on macro-F1 prefer the widest score gap (the two outside candidates
    count as infinitely wide), then the smallest |c|, then the smaller c.
    Returns (c, macro_f1 at c).
    """
    if not scored:
        raise DataError("cannot tune an offset on zero scored pairs")
    golds = {label for _, label in scored}
    if len(golds) < 2:
        raise DataError(
            "offset tuning needs both source-original and target-original gold labels"
        )
    pairs = sorted(scored, key=lambda sl: sl[0])
    values = [s for s, _ in pairs]
    total_s = sum(1 for _, g in scored if g is OriginLabel.SOURCE_ORIGINAL)
    total_t = len(scored) - total_s
    # prefix_s[i] = gold source-original count among the i lowest scores
    prefix_s = [0]
    for _, gold in pairs:
        prefix_s.append(prefix_s[-1] + (1 if gold is OriginLabel.SOURCE_ORIGINAL else 0))

    distinct = sorted(set(values))
    candidates: list[tuple[float, float]] = [(distinct[0] - 1.0, math.inf)]
    for lo, hi in zip(distinct, distinct[1:]):
        candidates.append(((lo + hi) / 2.0, hi - lo))
    candidates.append((distinct[-1] + 1.0, math.inf))

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


class DetectionEval(NamedTuple):
    macro_f1: float
    per_class_f1: tuple[float, float]  # (source-original, target-original)
    accuracy: float


def evaluate_detection(
    records: Sequence[ScoreRecord], gold: Sequence[OriginLabel]
) -> DetectionEval:
    if len(records) != len(gold):
        raise DataError(
            f"{len(records)} records but {len(gold)} gold labels"
        )
    if not records:
        raise DataError("cannot evaluate zero records")
    tp = {OriginLabel.SOURCE_ORIGINAL: 0, OriginLabel.TARGET_ORIGINAL: 0}
    fp = dict(tp)
    fn = dict(tp)
    correct = 0
    for record, truth in zip(records, gold):
        if record.label is truth:
            tp[truth] += 1
            correct += 1
        else:
            fp[record.label] += 1
            fn[truth] += 1
    f1_s, f1_t = (
        _f1(tp[label], fp[label], fn[label])
        for label in (OriginLabel.SOURCE_ORIGINAL, OriginLabel.TARGET_ORIGINAL)
    )
    return DetectionEval((f1_s + f1_t) / 2.0, (f1_s, f1_t), correct / len(records))


def select_extremes(
    records: Sequence[ScoreRecord], ratio_percent: float
) -> tuple[set[int], set[int]]:
    """(most_source line numbers, most_target line numbers).

    Records are ranked once, descending by score with ties broken by smaller
    line number first; most_source is the head of that ranking, most_target
    the tail, each floor(R * N / 100) lines for R = ratio_percent in (0, 50],
    so the sets never overlap.
    """
    if not 0 < ratio_percent <= 50:
        raise ValueError(f"ratio_percent must be in (0, 50], got {ratio_percent}")
    if not records:
        raise DataError("cannot select from zero records")
    k = math.floor(ratio_percent * len(records) / 100)
    ranking = sorted(records, key=lambda r: (-r.score, r.line_no))
    most_source = {r.line_no for r in ranking[:k]}
    most_target = {r.line_no for r in ranking[len(ranking) - k :]} if k else set()
    return most_source, most_target


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
