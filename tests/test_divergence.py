import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    DEFAULT_CONTENT_TAGS,
    DataError,
    DivergenceReport,
    ParallelExample,
    build_distribution,
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


def test_build_distribution_filters_by_word_class():
    examples = [
        _pos_example(("dog", "runs", "the"), ("NOUN", "VERB", "DET")),
        _pos_example(("the", "dog"), ("DET", "NOUN")),
    ]
    all_words = build_distribution(examples, "source", "all")
    assert all_words == {"dog": 2, "runs": 1, "the": 2}
    content = build_distribution(examples, "source", "content")
    assert content == {"dog": 2, "runs": 1}
    function = build_distribution(examples, "source", "function")
    assert function == {"the": 2}
    determiners = build_distribution(examples, "source", "content", frozenset({"DET"}))
    assert determiners == {"the": 2}


def test_build_distribution_reads_the_requested_side():
    examples = [
        ParallelExample(
            ("s1",), ("t1", "t2"), target_pos=("NOUN", "DET")
        )
    ]
    target_all = build_distribution(examples, "target", "all")
    assert target_all == {"t1": 1, "t2": 1}
    with pytest.raises(ValueError):
        build_distribution(examples, "both", "all")


def test_build_distribution_requires_pos_only_when_filtering():
    examples = [ParallelExample(("a", "b"), ("x",))]
    assert sum(build_distribution(examples, "source", "all").values()) == 2
    with pytest.raises(DataError, match="^line 2: source side has no POS annotations$") as err:
        build_distribution(
            [_pos_example(("a",), ("NOUN",)), ParallelExample(("b",), ("x",))],
            "source",
            "content",
        )
    assert err.value.line_no == 2


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


def test_divergence_report_tsv_layout():
    report = DivergenceReport(js_all=0.5, js_content=0.25, js_function=0.0)
    lines = report.to_tsv().splitlines()
    assert lines[0] == "class\tjs_nats\tjs_x1e5"
    assert lines[1] == "all\t0.5\t50000"
    assert lines[2] == "content\t0.25\t25000"
    assert lines[3] == "function\t0\t0"


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


def test_random_split_rejects_bad_arguments():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DataError, match=rf"^fraction must be in \(0, 1\), got {bad}$"):
            random_split(10, bad, seed=1)
    with pytest.raises(DataError, match="^cannot split zero lines$"):
        random_split(0, 0.5, seed=1)
