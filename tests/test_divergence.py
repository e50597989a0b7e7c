import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import (
    DataError,
    DivergenceReport,
    ParallelExample,
    VocabDistribution,
    WordClassMap,
    build_distribution,
    divergence_report,
    js,
    random_split,
)

from oracles import js_divergence


def _dist(**counts):
    return VocabDistribution.from_counts(counts)


def test_distribution_drops_zeros_and_rejects_negatives():
    dist = VocabDistribution.from_counts({"a": 3, "b": 0, "c": 1})
    assert set(dist.counts) == {"a", "c"}
    assert dist.total == 4
    with pytest.raises(ValueError):
        VocabDistribution.from_counts({"a": 1, "b": -2})
    with pytest.raises(DataError, match="^distribution over zero tokens$"):
        VocabDistribution.from_counts({"a": 0})


def test_word_class_map_default_and_file(tmp_path):
    assert WordClassMap.default().is_content("NOUN")
    assert not WordClassMap.default().is_content("DET")
    path = tmp_path / "classes.txt"
    path.write_text("# comment\n[content]\nNOUN\nPROPN\n", encoding="utf-8")
    classes = WordClassMap.from_file(str(path))
    assert classes.content_tags == frozenset({"NOUN", "PROPN"})
    assert classes.is_content("PROPN")
    assert not classes.is_content("VERB")


def test_word_class_map_file_errors(tmp_path):
    missing = tmp_path / "missing.txt"
    missing.write_text("[function]\nDET\n", encoding="utf-8")
    with pytest.raises(DataError):
        WordClassMap.from_file(str(missing))
    extra = tmp_path / "extra.txt"
    extra.write_text("[content]\nNOUN\n[other]\nX\n", encoding="utf-8")
    with pytest.raises(DataError):
        WordClassMap.from_file(str(extra))
    empty = tmp_path / "empty.txt"
    empty.write_text("[content]\n", encoding="utf-8")
    with pytest.raises(DataError):
        WordClassMap.from_file(str(empty))


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
    assert dict(all_words.counts) == {"dog": 2, "runs": 1, "the": 2}
    content = build_distribution(examples, "source", "content")
    assert dict(content.counts) == {"dog": 2, "runs": 1}
    function = build_distribution(examples, "source", "function")
    assert dict(function.counts) == {"the": 2}


def test_build_distribution_reads_the_requested_side():
    examples = [
        ParallelExample(
            ("s1",), ("t1", "t2"), target_pos=("NOUN", "DET")
        )
    ]
    target_all = build_distribution(examples, "target", "all")
    assert dict(target_all.counts) == {"t1": 1, "t2": 1}
    with pytest.raises(ValueError):
        build_distribution(examples, "both", "all")


def test_build_distribution_requires_pos_only_when_filtering():
    examples = [ParallelExample(("a", "b"), ("x",))]
    assert build_distribution(examples, "source", "all").total == 2
    with pytest.raises(DataError, match="^line 2: source side has no POS annotations$") as err:
        build_distribution(
            [_pos_example(("a",), ("NOUN",)), ParallelExample(("b",), ("x",))],
            "source",
            "content",
        )
    assert err.value.line_no == 2


def test_js_identical_distributions_is_exactly_zero():
    p = _dist(a=5, b=3, c=9)
    q = _dist(a=10, b=6, c=18)  # same relative frequencies
    assert js(p, p) == 0.0
    assert js(p, q) == 0.0


def test_js_disjoint_support_is_ln2():
    got = js(_dist(a=3, b=1), _dist(c=2, d=5))
    assert math.isclose(got, math.log(2), rel_tol=0, abs_tol=1e-12)


def test_js_known_value():
    # p = (3/4, 1/4) vs q = (1/4, 3/4), computed from the definition
    got = js(_dist(x=3, y=1), _dist(x=1, y=3))
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(got, 0.13081203594113694, rel_tol=0, abs_tol=1e-6)


_counts = st.dictionaries(
    st.sampled_from("abcdefgh"), st.integers(min_value=1, max_value=50), min_size=1
)


@settings(max_examples=100, deadline=None)
@given(p=_counts, q=_counts)
def test_js_symmetric_bounded_and_matches_reference(p, q):
    dp, dq = VocabDistribution.from_counts(p), VocabDistribution.from_counts(q)
    forward = js(dp, dq)
    assert forward == js(dq, dp)
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
        _dist(alpha=2, da=1, de=1), _dist(beta=1, gamma=1, da=1, de=1)
    )
    assert report.js_all == direct_all
    direct_function = js(_dist(da=1, de=1), _dist(da=1, de=1))
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
