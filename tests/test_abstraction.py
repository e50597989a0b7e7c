import math

import pytest

from covbias import (
    AbstractionRule,
    FluencyReport,
    LineCountMismatch,
    NGramModel,
    PosAlignmentError,
    WordClassMap,
    abstract_corpus,
    abstract_sentence,
    fluency_report,
    perplexity,
)


def test_content_words_become_tags_and_function_words_survive():
    rule = AbstractionRule.default()
    got = abstract_sentence(
        ("the", "dog", "runs", "very", "fast"),
        ("DET", "NOUN", "VERB", "ADV", "ADJ"),
        rule,
    )
    assert got == ("the", "NOUN", "VERB", "very", "ADJ")
    assert len(got) == 5


def test_prefix_and_suffix_render_into_the_tag():
    rule = AbstractionRule(WordClassMap.default(), tag_prefix="[", tag_suffix="]")
    got = abstract_sentence(("dog", "the"), ("NOUN", "DET"), rule)
    assert got == ("[NOUN]", "the")


def test_custom_class_map_controls_what_is_abstracted():
    rule = AbstractionRule(WordClassMap(frozenset({"DET"})))
    got = abstract_sentence(("the", "dog"), ("DET", "NOUN"), rule)
    assert got == ("DET", "dog")


def test_abstraction_is_idempotent_on_its_own_output():
    rule = AbstractionRule.default()
    sentence = ("a", "dog", "barks")
    pos = ("DET", "NOUN", "VERB")
    once = abstract_sentence(sentence, pos, rule)
    assert abstract_sentence(once, pos, rule) == once


def test_rule_rejects_whitespace_in_affixes():
    with pytest.raises(ValueError):
        AbstractionRule(WordClassMap.default(), tag_prefix="a b")
    with pytest.raises(ValueError):
        AbstractionRule(WordClassMap.default(), tag_suffix="\t")


def test_misaligned_sentence_is_rejected():
    with pytest.raises(PosAlignmentError):
        abstract_sentence(("a", "b"), ("DET",), AbstractionRule.default())


def test_abstract_corpus_round_trip(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("the dog runs\na cat sat here\n", encoding="utf-8")
    pos.write_text("DET NOUN VERB\nDET NOUN VERB ADV\n", encoding="utf-8")
    count = abstract_corpus(str(text), str(pos), str(out), AbstractionRule.default())
    assert count == 2
    assert out.read_text(encoding="utf-8") == "the NOUN VERB\na NOUN VERB here\n"


def test_abstract_corpus_line_count_mismatch_both_directions(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("a b\nc d\n", encoding="utf-8")
    pos.write_text("DET NOUN\n", encoding="utf-8")
    with pytest.raises(LineCountMismatch) as err:
        abstract_corpus(str(text), str(pos), str(out), AbstractionRule.default())
    assert err.value.line_no == 2
    assert not out.exists()

    pos.write_text("DET NOUN\nDET NOUN\nDET NOUN\n", encoding="utf-8")
    with pytest.raises(LineCountMismatch) as err:
        abstract_corpus(str(text), str(pos), str(out), AbstractionRule.default())
    assert err.value.line_no == 3


def test_abstract_corpus_reports_misaligned_line(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("a b\nc d\n", encoding="utf-8")
    pos.write_text("DET NOUN\nDET\n", encoding="utf-8")
    with pytest.raises(PosAlignmentError) as err:
        abstract_corpus(str(text), str(pos), str(out), AbstractionRule.default())
    assert err.value.line_no == 2
    assert not out.exists()


def _tiny_lms():
    plain_corpus = [("the", "dog", "runs"), ("the", "cat", "sat"), ("a", "dog", "sat")]
    pos_corpus = [("DET", "NOUN", "VERB")] * 3
    rule = AbstractionRule.default()
    abstracted = [abstract_sentence(s, p, rule) for s, p in zip(plain_corpus, pos_corpus)]
    plain_lm = NGramModel.train(plain_corpus, order=2, min_count=1)
    abstracted_lm = NGramModel.train(abstracted, order=2, min_count=1)
    return plain_lm, abstracted_lm, rule


def test_fluency_report_scores_both_levels():
    plain_lm, abstracted_lm, rule = _tiny_lms()
    outputs = [("the", "dog", "sat"), ("a", "cat", "runs")]
    outputs_pos = [("DET", "NOUN", "VERB")] * 2
    report = fluency_report(
        list(zip(outputs, outputs_pos)),
        plain_lm=plain_lm,
        abstracted_lm=abstracted_lm,
        rule=rule,
    )
    assert report.ppl_plain == perplexity(plain_lm, outputs)
    expected_abs = perplexity(
        abstracted_lm,
        [abstract_sentence(s, p, rule) for s, p in zip(outputs, outputs_pos)],
    )
    assert report.ppl_abstracted == expected_abs
    assert report.diff_plain is None
    assert report.diff_abstracted is None


def test_fluency_report_diffs_are_relative_to_the_baseline():
    plain_lm, abstracted_lm, rule = _tiny_lms()
    outputs = [("the", "dog", "sat")]
    outputs_pos = [("DET", "NOUN", "VERB")]
    baseline = FluencyReport(ppl_plain=2.0, ppl_abstracted=4.0)
    report = fluency_report(
        list(zip(outputs, outputs_pos)),
        plain_lm=plain_lm,
        abstracted_lm=abstracted_lm,
        rule=rule,
        baseline=baseline,
    )
    assert report.diff_plain == (report.ppl_plain - 2.0) / 2.0
    assert report.diff_abstracted == (report.ppl_abstracted - 4.0) / 4.0


def test_fluency_report_shape_validation():
    plain_lm, abstracted_lm, rule = _tiny_lms()
    with pytest.raises(PosAlignmentError):
        fluency_report(
            [(("a", "b"), ("DET",))],
            plain_lm=plain_lm,
            abstracted_lm=abstracted_lm,
            rule=rule,
        )


def test_fluency_tsv_uses_dash_for_missing_diffs():
    report = FluencyReport(ppl_plain=2.5, ppl_abstracted=1.5)
    lines = report.to_tsv().splitlines()
    assert lines == ["level\tppl\tdiff", "plain\t2.5\t-", "abstracted\t1.5\t-"]
    with_diffs = FluencyReport(2.5, 1.5, diff_plain=0.25, diff_abstracted=-0.5)
    lines = with_diffs.to_tsv().splitlines()
    assert lines[1] == "plain\t2.5\t0.25"
    assert lines[2] == "abstracted\t1.5\t-0.5"


def test_abstraction_makes_topically_disjoint_text_predictable():
    # two topically disjoint corpora share grammar; abstraction removes the
    # vocabulary difference, so the cross-topic perplexity gap collapses
    rule = AbstractionRule.default()
    topic_a = [("the", "dog", "chases", "a", "ball")] * 4
    topic_b = [("the", "senate", "debates", "a", "bill")] * 4
    pos = ("DET", "NOUN", "VERB", "DET", "NOUN")
    lm_a = NGramModel.train(topic_a, order=2, min_count=1)
    gap_plain = perplexity(lm_a, topic_b) / perplexity(lm_a, topic_a)
    abs_a = [abstract_sentence(s, pos, rule) for s in topic_a]
    abs_b = [abstract_sentence(s, pos, rule) for s in topic_b]
    lm_abs = NGramModel.train(abs_a, order=2, min_count=1)
    gap_abs = perplexity(lm_abs, abs_b) / perplexity(lm_abs, abs_a)
    assert math.isclose(gap_abs, 1.0, rel_tol=0, abs_tol=1e-12)
    assert gap_plain > 2.0
