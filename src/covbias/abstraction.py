"""Replacing content words by their POS tags, and measuring fluency with it.

Abstraction keeps sentence length and function words intact and substitutes a
rendered tag token for every content word, so language-model statistics over
the result reflect word order and function-word usage rather than topical
vocabulary. There are exactly two abstraction levels: none, and content-word
abstraction. abstract_corpus and fluency_report read their input once, a line
at a time, so neither holds the corpus in memory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import NamedTuple

from .corpus import PosAnnotation, Sentence, read_tagged, write_mono
from .errors import DataError
from .lm import NGramModel, _perplexity


def _abstractor(
    content_tags: frozenset[str], tag_prefix: str, tag_suffix: str
) -> Callable[[Sentence, PosAnnotation], Sentence]:
    """Check an abstraction's settings once; return the function applying them."""
    if not content_tags:
        raise ValueError("content tag set must not be empty")
    for part in (tag_prefix, tag_suffix):
        if any(ch.isspace() for ch in part):
            raise ValueError("tag prefix/suffix must not contain whitespace")

    def abstract(sentence: Sentence, pos: PosAnnotation) -> Sentence:
        if len(sentence) != len(pos):
            raise DataError(f"{len(pos)} tags for {len(sentence)} tokens")
        return tuple(
            f"{tag_prefix}{tag}{tag_suffix}" if tag in content_tags else token
            for token, tag in zip(sentence, pos)
        )

    return abstract


def abstract_sentence(
    sentence: Sentence,
    pos: PosAnnotation,
    content_tags: frozenset[str],
    tag_prefix: str = "",
    tag_suffix: str = "",
) -> Sentence:
    """Length-preserving substitution of each content word (a token whose tag
    is in content_tags) by its tag, rendered as tag_prefix + tag + tag_suffix."""
    return _abstractor(content_tags, tag_prefix, tag_suffix)(sentence, pos)


def abstract_corpus(
    input_path: str,
    pos_path: str,
    output_path: str,
    content_tags: frozenset[str],
    tag_prefix: str = "",
    tag_suffix: str = "",
) -> int:
    """Abstract a corpus file line by line (atomic write); returns line count."""
    abstract = _abstractor(content_tags, tag_prefix, tag_suffix)
    tagged = read_tagged(input_path, pos_path)
    return write_mono((abstract(s, pos) for s, pos in tagged), output_path)


class FluencyReport(NamedTuple):
    """Perplexities of system output, plain and abstracted."""

    ppl_plain: float
    ppl_abstracted: float


def fluency_report(
    tagged: Iterable[tuple[Sentence, PosAnnotation]],
    *,
    plain_lm: NGramModel,
    abstracted_lm: NGramModel,
    content_tags: frozenset[str],
    tag_prefix: str = "",
    tag_suffix: str = "",
) -> FluencyReport:
    """Score outputs with a plain LM and their abstraction with an abstracted LM.

    tagged holds one (sentence, tags) pair per output line, as read_tagged
    yields them; they are abstracted as abstract_sentence does. It is read
    once: both models score each line as it arrives, so each perplexity sums
    the same floats in the same order as perplexity() would.
    """
    abstract = _abstractor(content_tags, tag_prefix, tag_suffix)
    plain_total = abstracted_total = 0.0
    plain_events = abstracted_events = 0
    for sentence, pos in tagged:
        abstracted = abstract(sentence, pos)
        score = plain_lm.logprob(sentence)
        plain_total += score.total_logprob
        plain_events += score.token_count
        score = abstracted_lm.logprob(abstracted)
        abstracted_total += score.total_logprob
        abstracted_events += score.token_count
    return FluencyReport(
        _perplexity(plain_total, plain_events), _perplexity(abstracted_total, abstracted_events)
    )
