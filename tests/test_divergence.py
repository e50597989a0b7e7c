import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    DEFAULT_CONTENT_TAGS,
    DataError,
    ParallelExample,
    divergence_report,
    js,
    random_split,
    read_word_classes,
)

from oracles import js_divergence


def test_distribution_drops_zeros_and_rejects_negatives():
    other = {"a": 1, "d": 2}
    assert js({"a": 3, "b": 0, "c": 1}, other) == js({"a": 3, "c": 1}, other)
    assert js({"a": 3, "b": 0, "c": 1}, {"a": 3, "c": 1}) == 0.0
    with pytest.raises(ValueError, match="^negative token count$"):
        js({"a": 1, "b": -2}, other)
    with pytest.raises(DataError, match="^distribution over zero tokens$"):
        js(other, {"a": 0})


def test_word_class_map_default_and_file(tmp_path):
    assert "NOUN" in DEFAULT_CONTENT_TAGS
    assert "DET" not in DEFAULT_CONTENT_TAGS
    path = tmp_path / "classes.txt"
    path.write_text("# comment\n[content]\nNOUN\nPROPN\n", encoding="utf-8")
    content_tags = read_word_classes(str(path))
    assert content_tags == frozenset({"NOUN", "PROPN"})
    assert "PROPN" in content_tags
    assert "VERB" not in content_tags


def test_word_class_map_file_errors(tmp_path):
    missing = tmp_path / "missing.txt"
    missing.write_text("[function]\nDET\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_word_classes(str(missing))
    extra = tmp_path / "extra.txt"
    extra.write_text("[content]\nNOUN\n[other]\nX\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_word_classes(str(extra))
    empty = tmp_path / "empty.txt"
    empty.write_text("[content]\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_word_classes(str(empty))


def _pos_example(tokens, tags, side="source"):
    if side == "source":
        return ParallelExample(tuple(tokens), ("x",), source_pos=tuple(tags))
    return ParallelExample(("x",), tuple(tokens), target_pos=tuple(tags))


def test_js_identical_distributions_is_exactly_zero():
    p = dict(a=5, b=3, c=9)
    q = dict(a=10, b=6, c=18)  # same relative frequencies
    assert js(p, p) == 0.0
    assert js(p, q) == 0.0


def test_js_disjoint_support_is_ln2():
    got = js(dict(a=3, b=1), dict(c=2, d=5))
    assert math.isclose(got, math.log(2), rel_tol=0, abs_tol=1e-12)


def test_js_known_value():
    # p = (3/4, 1/4) vs q = (1/4, 3/4), computed from the definition
    got = js(dict(x=3, y=1), dict(x=1, y=3))
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 0.13081203594113694, rel_tol=0, abs_tol=1e-6)


_counts = st.dictionaries(
    st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=50), min_size=1
)


@settings(max_examples=100, deadline=None)
@given(p=_counts, q=_counts)
def test_js_symmetric_bounded_and_matches_reference(p, q):
    forward = js(p, q)
    assert forward == js(q, p)
    assert 0.0 <= forward <= math.log(2) + 1e-12
    assert math.isclose(forward, js_divergence(p, q), rel_tol=0, abs_tol=1e-12)


def _report_examples():
    # lines 1/3 share only function words with lines 2/4
    return [
        _pos_example(("alpha", "da"), ("NOUN", "DET")),
        _pos_example(("beta", "da"), ("NOUN", "DET")),
        _pos_example(("alpha", "de"), ("NOUN", "DET")),
        _pos_example(("gamma", "de"), ("NOUN", "DET")),
    ]


def test_divergence_report_matches_direct_js():
    report = divergence_report(_report_examples(), {1, 3}, {2, 4}, "source")
    assert math.isclose(report.js_content, math.log(2), rel_tol=0, abs_tol=1e-12)
    direct_all = js(
        dict(alpha=2, da=1, de=1), dict(beta=1, gamma=1, da=1, de=1)
    )
    assert report.js_all == direct_all
    direct_function = js(dict(da=1, de=1), dict(da=1, de=1))
    assert report.js_function == direct_function == 0.0


def test_divergence_report_ignores_unlisted_lines():
    full = divergence_report(_report_examples(), {1}, {2}, "source")
    trimmed = divergence_report(_report_examples()[:2], {1}, {2}, "source")
    assert full == trimmed


def test_divergence_report_rejects_overlap_and_missing_lines():
    with pytest.raises(DataError):
        divergence_report(_report_examples(), {1, 2}, {2, 3}, "source")
    with pytest.raises(DataError):
        divergence_report(_report_examples(), {1}, {2, 9}, "source")


def test_divergence_report_content_tags_choose_the_content_words():
    default = divergence_report(_report_examples(), {1, 3}, {2, 4}, "source")
    # with DET as the one content tag, the nouns become the function words
    determiners = divergence_report(
        _report_examples(), {1, 3}, {2, 4}, "source", frozenset({"DET"})
    )
    assert determiners == (default.js_all, default.js_function, default.js_content)
    assert determiners.js_content == 0.0 < determiners.js_function


def test_divergence_report_reads_the_requested_side():
    source_side = _report_examples()
    flipped = [
        ParallelExample(("x", "y"), ex.source, ("NOUN", "DET"), ex.source_pos)
        for ex in source_side
    ]
    by_target = divergence_report(flipped, {1, 3}, {2, 4}, "target")
    assert by_target == divergence_report(source_side, {1, 3}, {2, 4}, "source")
    assert divergence_report(flipped, {1, 3}, {2, 4}, "source") == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^side must be 'source' or 'target', got 'both'$"):
        divergence_report(source_side, {1, 3}, {2, 4}, "both")


def test_divergence_report_needs_pos_on_every_partition_line():
    examples = _report_examples()
    examples[2] = ParallelExample(("alpha", "de"), ("x",))
    with pytest.raises(DataError, match="^line 3: source side has no POS annotations$"):
        divergence_report(examples, {1, 3}, {2, 4}, "source")
    # a line in neither partition needs no tags
    trimmed = divergence_report(examples, {1}, {2}, "source")
    assert trimmed == divergence_report(_report_examples(), {1}, {2}, "source")


def test_random_split_is_deterministic_and_covering():
    a1, b1 = random_split(100, 0.5, seed=7)
    a2, b2 = random_split(100, 0.5, seed=7)
    assert (a1, b1) == (a2, b2)
    assert len(a1) == 50
    assert not (a1 & b1)
    assert a1 | b1 == set(range(1, 101))
    a3, _ = random_split(100, 0.5, seed=8)
    assert a3 != a1  # different seed, different sample


def test_random_split_floors_the_first_share():
    a, b = random_split(7, 0.5, seed=1)
    assert len(a) == 3
    assert len(b) == 4


def test_random_split_floors_a_float_fraction_at_its_binary_value():
    # 0.7 is stored as 0.69999999999999995559, so 10 lines give
    # floor(6.9999999999999995559) = 6 lines; float arithmetic rounds it to 7
    a, b = random_split(10, 0.7, seed=1)
    assert (len(a), len(b)) == (6, 4)


def test_random_split_rejects_bad_arguments():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match=rf"^fraction must be in \(0, 1\), got {bad}$"):
            random_split(10, bad, seed=1)
    with pytest.raises(ValueError, match="^cannot split zero lines$"):
        random_split(0, 0.5, seed=1)
