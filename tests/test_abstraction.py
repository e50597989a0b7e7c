import math
import re

import pytest

from covbias import (
    DEFAULT_CONTENT_TAGS,
    DataError,
    FluencyReport,
    NGramModel,
    abstract_corpus,
    fluency_report,
    perplexity,
)
from covbias.abstraction import _abstractor


def test_content_words_become_tags_and_function_words_survive():
    got = _abstractor(DEFAULT_CONTENT_TAGS, "", "")(
        ("the", "dog", "runs", "very", "fast"),
        ("DET", "NOUN", "VERB", "ADV", "ADJ"),
    )
    assert got == ("the", "NOUN", "VERB", "very", "ADJ")
    assert len(got) == 5


def test_prefix_and_suffix_render_into_the_tag():
    got = _abstractor(DEFAULT_CONTENT_TAGS, "[", "]")(("dog", "the"), ("NOUN", "DET"))
    assert got == ("[NOUN]", "the")


def test_custom_class_map_controls_what_is_abstracted():
    got = _abstractor(frozenset({"DET"}), "", "")(("the", "dog"), ("DET", "NOUN"))
    assert got == ("DET", "dog")


def test_abstraction_is_idempotent_on_its_own_output():
    abstract = _abstractor(DEFAULT_CONTENT_TAGS, "", "")
    pos = ("DET", "NOUN", "VERB")
    once = abstract(("a", "dog", "barks"), pos)
    assert abstract(once, pos) == once


def test_rule_rejects_whitespace_in_affixes():
    with pytest.raises(ValueError):
        _abstractor(DEFAULT_CONTENT_TAGS, "a b", "")
    with pytest.raises(ValueError):
        _abstractor(DEFAULT_CONTENT_TAGS, "", "\t")


def test_rule_rejects_an_empty_tag_set_and_is_checked_before_any_read(tmp_path):
    with pytest.raises(ValueError, match="^content tag set must not be empty$"):
        _abstractor(frozenset(), "", "")
    # checked before any file is opened
    missing = str(tmp_path / "missing")
    with pytest.raises(ValueError, match="^tag prefix/suffix must not contain whitespace$"):
        abstract_corpus(missing, missing, str(tmp_path / "out"), DEFAULT_CONTENT_TAGS, " ")


def test_misaligned_sentence_is_rejected():
    with pytest.raises(DataError, match="^1 tags for 2 tokens$"):
        _abstractor(DEFAULT_CONTENT_TAGS, "", "")(("a", "b"), ("DET",))


def test_abstract_corpus_round_trip(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("the dog runs\na cat sat here\n", encoding="utf-8")
    pos.write_text("DET NOUN VERB\nDET NOUN VERB ADV\n", encoding="utf-8")
    count = abstract_corpus(str(text), str(pos), str(out), DEFAULT_CONTENT_TAGS)
    assert count == 2
    assert out.read_text(encoding="utf-8") == "the NOUN VERB\na NOUN VERB here\n"


def test_abstract_corpus_line_count_mismatch_both_directions(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("a b\nc d\n", encoding="utf-8")
    pos.write_text("DET NOUN\n", encoding="utf-8")
    message = rf"^{re.escape(str(pos))} ended at line 2 but other input\(s\) continue$"
    with pytest.raises(DataError, match=message):
        abstract_corpus(str(text), str(pos), str(out), DEFAULT_CONTENT_TAGS)
    assert not out.exists()

    pos.write_text("DET NOUN\nDET NOUN\nDET NOUN\n", encoding="utf-8")
    message = rf"^{re.escape(str(text))} ended at line 3 but other input\(s\) continue$"
    with pytest.raises(DataError, match=message):
        abstract_corpus(str(text), str(pos), str(out), DEFAULT_CONTENT_TAGS)


def test_abstract_corpus_reports_misaligned_line(tmp_path):
    text = tmp_path / "in.txt"
    pos = tmp_path / "in.pos"
    out = tmp_path / "out.txt"
    text.write_text("a b\nc d\n", encoding="utf-8")
    pos.write_text("DET NOUN\nDET\n", encoding="utf-8")
    message = rf"^{re.escape(str(pos))}: line 2 has 1 tags for 2 tokens$"
    with pytest.raises(DataError, match=message):
        abstract_corpus(str(text), str(pos), str(out), DEFAULT_CONTENT_TAGS)
    assert not out.exists()


def _tiny_lms():
    plain_corpus = [("the", "dog", "runs"), ("the", "cat", "sat"), ("a", "dog", "sat")]
    pos_corpus = [("DET", "NOUN", "VERB")] * 3
    content_tags = DEFAULT_CONTENT_TAGS
    abstracted = list(map(_abstractor(content_tags, "", ""), plain_corpus, pos_corpus))
    plain_lm = NGramModel.train(plain_corpus, order=2, min_count=1)
    abstracted_lm = NGramModel.train(abstracted, order=2, min_count=1)
    return plain_lm, abstracted_lm, content_tags


def test_fluency_report_scores_both_levels():
    plain_lm, abstracted_lm, content_tags = _tiny_lms()
    outputs = [("the", "dog", "sat"), ("a", "cat", "runs")]
    outputs_pos = [("DET", "NOUN", "VERB")] * 2
    report = fluency_report(
        list(zip(outputs, outputs_pos)),
        plain_lm=plain_lm,
        abstracted_lm=abstracted_lm,
        content_tags=content_tags,
    )
    expected_abs = perplexity(
        abstracted_lm,
        list(map(_abstractor(content_tags, "", ""), outputs, outputs_pos)),
    )
    assert report == FluencyReport(perplexity(plain_lm, outputs), expected_abs)


def test_fluency_report_shape_validation():
    plain_lm, abstracted_lm, content_tags = _tiny_lms()
    with pytest.raises(DataError, match="^1 tags for 2 tokens$"):
        fluency_report(
            [(("a", "b"), ("DET",))],
            plain_lm=plain_lm,
            abstracted_lm=abstracted_lm,
            content_tags=content_tags,
        )


def test_abstraction_makes_topically_disjoint_text_predictable():
    # two topically disjoint corpora share grammar; abstraction removes the
    # vocabulary difference, so the cross-topic perplexity gap collapses
    content_tags = DEFAULT_CONTENT_TAGS
    topic_a = [("the", "dog", "chases", "a", "ball")] * 4
    topic_b = [("the", "senate", "debates", "a", "bill")] * 4
    pos = ("DET", "NOUN", "VERB", "DET", "NOUN")
    lm_a = NGramModel.train(topic_a, order=2, min_count=1)
    gap_plain = perplexity(lm_a, topic_b) / perplexity(lm_a, topic_a)
    abstract = _abstractor(content_tags, "", "")
    abs_a = [abstract(s, pos) for s in topic_a]
    abs_b = [abstract(s, pos) for s in topic_b]
    lm_abs = NGramModel.train(abs_a, order=2, min_count=1)
    gap_abs = perplexity(lm_abs, abs_b) / perplexity(lm_abs, abs_a)
    assert math.isclose(gap_abs, 1.0, rel_tol=0, abs_tol=1e-12)
    assert gap_plain > 2.0
