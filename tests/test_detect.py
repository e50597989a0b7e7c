import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covbias import (
    DataError,
    OriginLabel,
    ParallelExample,
    classify,
    label_for,
    score_pair,
    select_extremes,
    tune_offset,
)
from covbias.lm import BOS, EOS, UNK

from oracles import build_model, macro_f1_at_offset

S = OriginLabel.SOURCE_ORIGINAL
T = OriginLabel.TARGET_ORIGINAL


def _uniform_model(vocab):
    """Hand-built order-1 model giving every predictable token equal mass."""
    tokens = (UNK, BOS, EOS) + tuple(vocab)
    lp = math.log(1.0 / (len(tokens) - 1))
    table = {(i,): lp for i in range(len(tokens)) if i != 1}
    return build_model(1, tokens, table)


@pytest.fixture(scope="module")
def uniform_pair():
    return _uniform_model(["a"]), _uniform_model(["a", "b", "c"])


def test_raw_score_is_the_logprob_difference(uniform_pair):
    src_lm, tgt_lm = uniform_pair
    example = ParallelExample(("a", "a"), ("b",))
    s = src_lm.logprob(example.source)
    t = tgt_lm.logprob(example.target)
    got = score_pair(src_lm, tgt_lm, example)
    assert got == s.total_logprob - t.total_logprob
    normalized = score_pair(src_lm, tgt_lm, example, length_normalize=True)
    assert normalized == s.total_logprob / 3 - t.total_logprob / 2


def test_offset_is_added_after_normalization(uniform_pair):
    src_lm, tgt_lm = uniform_pair
    example = ParallelExample(("a",), ("b", "c"))
    for normalize in (False, True):
        ((line_no, score),) = classify(src_lm, tgt_lm, [example], 1.25, length_normalize=normalize)
        assert line_no == 1
        assert score == score_pair(src_lm, tgt_lm, example, normalize) + 1.25


def test_swapping_models_and_sides_negates_the_score(uniform_pair):
    src_lm, tgt_lm = uniform_pair
    example = ParallelExample(("a", "b"), ("c",))
    flipped = ParallelExample(("c",), ("a", "b"))
    for normalize in (False, True):
        forward = score_pair(src_lm, tgt_lm, example, normalize)
        backward = score_pair(tgt_lm, src_lm, flipped, normalize)
        assert forward == -backward


def test_label_boundary_zero_is_target_original():
    assert label_for(1e-300) is S
    assert label_for(0.0) is T
    assert label_for(-0.0) is T
    assert label_for(-1.0) is T


def test_classify_rejects_non_finite_offset(uniform_pair):
    src_lm, tgt_lm = uniform_pair
    examples = [ParallelExample(("a",), ("b",))]
    for offset_c in (math.inf, math.nan):
        # refused when called, before any pair is scored
        with pytest.raises(ValueError, match="^offset_c must be finite$"):
            classify(src_lm, tgt_lm, examples, offset_c)


def test_classify_numbers_lines_from_one(uniform_pair):
    src_lm, tgt_lm = uniform_pair
    examples = [
        ParallelExample(("a",), ("b", "c", "b")),  # short source: positive score
        ParallelExample(("a", "a", "a"), ("b",)),  # long source: negative score
    ]
    records = list(classify(src_lm, tgt_lm, examples))
    assert [line_no for line_no, _ in records] == [1, 2]
    assert records[0][1] > 0 > records[1][1]
    for (_, score), example in zip(records, examples):
        assert score == score_pair(src_lm, tgt_lm, example)


def test_tune_offset_separable_case():
    scored = [(-3.0, T), (-2.0, T), (1.0, S), (4.0, S)]
    c, f1 = tune_offset(scored)
    assert c == 0.5  # threshold at the midpoint of the widest perfect gap
    assert f1 == 1.0


def test_tune_offset_breaks_f1_ties_toward_small_offsets():
    # [1 T] [2 S] [3 T] [4 S]: thresholds 1.5 and 3.5 tie on macro-F1 and on
    # gap width, so the smaller |c| wins
    scored = [(1.0, T), (2.0, S), (3.0, T), (4.0, S)]
    c, f1 = tune_offset(scored)
    assert c == -1.5
    assert f1 == (0.8 + 2 / 3) / 2


def test_tune_offset_identical_scores_prefers_zero_offset():
    c, f1 = tune_offset([(1.0, S), (1.0, T)])
    assert c == 0.0
    assert f1 == 1 / 3


def test_tune_offset_is_order_invariant():
    scored = [(0.25, S), (-1.5, T), (0.5, T), (2.0, S), (-0.75, S)]
    base = tune_offset(scored)
    rng = random.Random(3)
    for _ in range(10):
        shuffled = scored[:]
        rng.shuffle(shuffled)
        assert tune_offset(shuffled) == base


def test_tune_offset_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="^cannot tune an offset on zero scored pairs$"):
        tune_offset([])
    both = "^offset tuning needs both source-original and target-original gold labels$"
    with pytest.raises(DataError, match=both):
        tune_offset([(1.0, S), (2.0, S)])


def test_tuned_offset_is_grid_optimal_and_honest():
    # Scores quantized to quarters keep every midpoint exactly representable,
    # so the tuner, the reference scorer, and the exhaustive grid all agree
    # bit for bit.
    rng = random.Random(20260819)
    grid = [k / 16 - 5.0 for k in range(161)]
    for _ in range(20):
        n = rng.randint(2, 40)
        scores = [rng.randrange(-16, 17) / 4 for _ in range(n)]
        codes = [rng.choice("ST") for _ in range(n)]
        if len(set(codes)) < 2:
            codes[0], codes[1] = "S", "T"
        scored = [(s, OriginLabel.from_code(g)) for s, g in zip(scores, codes)]
        c, f1 = tune_offset(scored)
        assert macro_f1_at_offset(scores, codes, c) == f1
        assert max(macro_f1_at_offset(scores, codes, g) for g in grid) == f1


# Tables where plain candidates (min - 1, max + 1 and midpoints) miss the
# optimum: min - 1 == min at 1e17, and the midpoint overflows at 1e308 and
# rounds onto hi between adjacent floats.
_MAGNITUDE_CASES = [
    ([(1e17, "S"), (2e17, "S"), (3e17, "T")], (-math.nextafter(1e17, -math.inf), 0.4)),
    ([(-1.0, "T"), (1e308, "T"), (1.7e308, "S")], (-1e308, 1.0)),
    ([(1 + 2**-52, "T"), (1 + 2**-51, "S")], (-(1 + 2**-52), 1.0)),
]


@pytest.mark.parametrize("rows, expected", _MAGNITUDE_CASES, ids=["absorbed", "overflow", "rounded"])
def test_tune_offset_is_exact_at_extreme_magnitudes(rows, expected):
    assert tune_offset([(s, OriginLabel.from_code(g)) for s, g in rows]) == expected


def _best_partition_f1(scores, codes):
    """The best macro-F1 of any partition a finite c makes: S = the scores above t = -c.

    t ranges over the distinct scores and the float below the minimum; at a
    minimum of -sys.float_info.max that last t is -inf, which no finite c gives.
    """
    thresholds = set(scores)
    if min(scores) > -sys.float_info.max:
        thresholds.add(math.nextafter(min(scores), -math.inf))
    return max(macro_f1_at_offset(scores, codes, -t) for t in thresholds)


_extreme = st.sampled_from(
    [sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324, 0.0, -0.0, 2.0**53, 1.0]
)


@st.composite
def _score_runs(draw):
    """Full-range finite floats, each the start of a run of adjacent floats."""
    scores = []
    finite = st.floats(allow_nan=False, allow_infinity=False)
    for start in draw(st.lists(st.one_of(finite, _extreme), min_size=1, max_size=6)):
        for _ in range(draw(st.integers(1, 3))):
            scores.append(start)
            start = math.nextafter(start, math.inf)
            if start == math.inf:
                break
    return scores


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), scores=_score_runs())
def test_tuned_offset_is_the_best_partition_at_every_magnitude(data, scores):
    codes = data.draw(st.lists(st.sampled_from("ST"), min_size=len(scores), max_size=len(scores)))
    assume(len(set(codes)) == 2)
    c, f1 = tune_offset([(s, OriginLabel.from_code(g)) for s, g in zip(scores, codes)])
    assert math.isfinite(c)
    assert f1 == _best_partition_f1(scores, codes)
    assert macro_f1_at_offset(scores, codes, c) == f1


def _records(scores):
    return list(enumerate(scores, 1))


def test_select_extremes_takes_both_ends():
    records = _records([5.0, 4.0, -1.0, -2.0])
    most_source, most_target = select_extremes(records, 50)
    assert most_source == {1, 2}
    assert most_target == {3, 4}


def test_select_extremes_floors_the_count():
    records = _records([5.0, 4.0, 3.0, -1.0, -2.0])
    most_source, most_target = select_extremes(records, 50)
    assert len(most_source) == len(most_target) == 2
    assert most_source == {1, 2}
    assert most_target == {4, 5}


def test_select_extremes_floors_a_float_ratio_at_its_binary_value():
    # 0.3 is stored as 0.29999999999999998890, so 1,000 records give
    # floor(2.9999999999999998890) = 2 lines; float arithmetic rounds it to 3
    records = _records([float(n) for n in range(1000)])
    assert [len(side) for side in select_extremes(records, 0.3)] == [2, 2]
    assert [len(side) for side in select_extremes(records, Fraction(3, 10))] == [3, 3]


def test_select_extremes_breaks_score_ties_by_line_number():
    records = _records([3.0, 1.0, 1.0, 1.0])
    most_source, most_target = select_extremes(records, 25)
    assert most_source == {1}
    assert most_target == {4}


def test_select_extremes_never_overlaps_and_ignores_input_order():
    rng = random.Random(11)
    scores = [rng.randrange(-4, 5) / 2 for _ in range(13)]
    records = _records(scores)
    for ratio in (10, 25, 50):
        expected = select_extremes(records, ratio)
        assert not (expected[0] & expected[1])
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert select_extremes(shuffled, ratio) == expected


@pytest.mark.parametrize("nan_line", [1, 2])
def test_nan_scores_are_rejected_before_ranking(nan_line):
    # (1.0, 2.0, -1.0) with a NaN on line 1 or 2: ranked, the NaN would land
    # on an arbitrary end, so select_extremes refuses it before ranking.
    scores = [1.0, 2.0, -1.0]
    scores.insert(nan_line - 1, math.nan)
    message = rf"^line {nan_line}: score is NaN, which has no rank$"
    for ratio in (25, 50):
        with pytest.raises(ValueError, match=message):
            select_extremes(_records(scores), ratio)


@pytest.mark.parametrize(
    "scores", [[math.inf, 1.0, 2.0, -math.inf], [1.0, -math.inf, math.inf, 2.0]]
)
def test_select_extremes_ranks_infinite_scores_at_the_ends(scores):
    most_source, most_target = select_extremes(_records(scores), 25)
    assert most_source == {scores.index(math.inf) + 1}
    assert most_target == {scores.index(-math.inf) + 1}


def test_select_extremes_small_inputs_yield_empty_sets():
    most_source, most_target = select_extremes(_records([1.0]), 50)
    assert most_source == set()
    assert most_target == set()


def test_select_extremes_ratio_bounds():
    records = _records([1.0, -1.0])
    assert select_extremes(records, 50) == ({1}, {2})
    assert select_extremes(records, 0.5) == (set(), set())
    for bad in (0, -1, 50.01, 100):
        with pytest.raises(ValueError, match=rf"^ratio_percent must be in \(0, 50\], got {bad}$"):
            select_extremes(records, bad)
    with pytest.raises(DataError, match="^cannot select from zero records$"):
        select_extremes([], 10)
