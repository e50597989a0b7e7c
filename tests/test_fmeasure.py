import random

import pytest

from covbias import DataError, word_fmeasure
from covbias.fmeasure import DEFAULT_BUCKETS

from oracles import bruteforce_fmeasure, fmeasure_pairs

NOUNS = {"noun": frozenset({"NOUN"})}


def test_clipped_counts_match_hand_computation():
    # ref "a a b" / hyp "a b b": matched a once (clip 2 vs 1) and b once
    # (clip 1 vs 2), so precision = recall = 2/3
    report = word_fmeasure(
        fmeasure_pairs([("a", "b", "b")], [("a", "a", "b")], [("NOUN", "NOUN", "NOUN")]), NOUNS
    )
    stats = report["noun"]
    assert (stats.matched, stats.sys_count, stats.ref_count) == (2, 3, 3)
    assert stats.precision == stats.recall == 2 / 3
    assert stats.f1 == 2 / 3


def test_identity_hypothesis_scores_one():
    hyp = ref = [("dog", "runs", "fast"), ("cat", "sits")]
    pos = [("NOUN", "VERB", "ADJ"), ("NOUN", "VERB")]
    report = word_fmeasure(fmeasure_pairs(hyp, ref, pos))
    for name in DEFAULT_BUCKETS:
        stats = report[name]
        assert stats.precision == stats.recall == stats.f1 == 1.0
        assert stats.matched == stats.sys_count == stats.ref_count


def test_disjoint_hypothesis_scores_zero():
    report = word_fmeasure(fmeasure_pairs([("x", "y")], [("a", "b")], [("NOUN", "NOUN")]), NOUNS)
    stats = report["noun"]
    assert stats == (0.0, 0.0, 0.0, 0, 0, 2)


def test_hypothesis_only_types_are_ignored():
    # "z" never occurs in the reference, so it belongs to no bucket and does
    # not dilute precision
    report = word_fmeasure(fmeasure_pairs([("a", "z")], [("a",)], [("NOUN",)]), NOUNS)
    stats = report["noun"]
    assert stats.sys_count == 1
    assert stats.precision == 1.0


def test_majority_tag_assigns_the_bucket():
    # "run" is twice VERB, once NOUN: it counts only for the verb bucket
    ref = [("run",), ("run",), ("run",)]
    pos = [("VERB",), ("VERB",), ("NOUN",)]
    report = word_fmeasure(fmeasure_pairs(ref, ref, pos))
    assert report["verb"].ref_count == 3
    assert report["noun"].ref_count == 0


def test_tied_majority_joins_only_the_smallest_bucket():
    ref = [("light", "light")]
    pos = [("ADJ", "NOUN")]
    report = word_fmeasure(fmeasure_pairs(ref, ref, pos))
    assert report["adj"].ref_count == 2
    assert report["noun"].ref_count == 0


def test_type_can_join_several_buckets_when_they_share_tags():
    buckets = {
        "content": frozenset({"NOUN", "VERB"}),
        "noun": frozenset({"NOUN"}),
    }
    ref = [("dog",)]
    pos = [("NOUN",)]
    report = word_fmeasure(fmeasure_pairs(ref, ref, pos), buckets)
    assert report["content"].ref_count == 1
    assert report["noun"].ref_count == 1


def test_deleting_a_matched_token_costs_exactly_one_match():
    ref = [("a", "a", "b")]
    pos = [("NOUN", "NOUN", "NOUN")]
    full = word_fmeasure(fmeasure_pairs([("a", "a", "b")], ref, pos), NOUNS)["noun"]
    dropped = word_fmeasure(fmeasure_pairs([("a", "b")], ref, pos), NOUNS)["noun"]
    assert full.matched - dropped.matched == 1
    assert full.sys_count - dropped.sys_count == 1
    assert full.ref_count == dropped.ref_count


def test_token_order_within_a_line_is_irrelevant():
    ref = [("a", "b", "c", "a")]
    pos = [("NOUN", "NOUN", "NOUN", "NOUN")]
    one = word_fmeasure(fmeasure_pairs([("c", "a", "a", "b")], ref, pos), NOUNS)
    two = word_fmeasure(fmeasure_pairs([("a", "a", "b", "c")], ref, pos), NOUNS)
    assert one == two


def test_matching_is_per_line_not_global():
    # the hypothesis has "a" on the wrong line: no credit
    report = word_fmeasure(
        fmeasure_pairs([("b",), ("a",)], [("a",), ("b",)], [("NOUN",), ("NOUN",)]), NOUNS
    )
    assert report["noun"].matched == 0


def test_shape_validation():
    """A reference line whose tag count differs from its token count is no input pair."""
    with pytest.raises(DataError, match="^target has 1 tokens but 2 tags$"):
        fmeasure_pairs([("a",), ("b",)], [("a",), ("b",)], [("NOUN",), ("NOUN", "X")])


def test_agrees_with_bruteforce_reference_on_random_instances():
    rng = random.Random(99)
    words = ["w%d" % i for i in range(8)]
    tags = ["NOUN", "VERB", "ADJ", "DET", "ADP"]
    buckets = {
        "noun": frozenset({"NOUN"}),
        "verb": frozenset({"VERB"}),
        "open": frozenset({"NOUN", "VERB", "ADJ"}),
    }
    for _ in range(100):
        n = rng.randint(1, 6)
        ref, ref_pos, hyp = [], [], []
        for _ in range(n):
            length = rng.randint(1, 7)
            ref.append(tuple(rng.choice(words) for _ in range(length)))
            ref_pos.append(tuple(rng.choice(tags) for _ in range(length)))
            hyp.append(tuple(rng.choice(words) for _ in range(rng.randint(1, 7))))
        expected = bruteforce_fmeasure(hyp, ref, ref_pos, buckets)
        got = word_fmeasure(fmeasure_pairs(hyp, ref, ref_pos), buckets)
        for name in buckets:
            assert tuple(got[name]) == expected[name], name
