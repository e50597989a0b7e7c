"""Replacing content words by their POS tags, and measuring fluency with it.

Abstraction keeps sentence length and function words intact and substitutes a
rendered tag token for every content word, so language-model statistics over
the result reflect word order and function-word usage rather than topical
vocabulary. There are exactly two abstraction levels: none, and content-word
abstraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import PosAnnotation, Sentence, read_tagged, write_mono
from .divergence import WordClassMap
from .errors import PosAlignmentError
from .fileio import fmt_float, format_tsv
from .lm import NGramModel, perplexity


@dataclass(frozen=True, slots=True)
class AbstractionRule:
    classes: WordClassMap
    tag_prefix: str = ""
    tag_suffix: str = ""

    def __post_init__(self) -> None:
        for part in (self.tag_prefix, self.tag_suffix):
            if any(ch.isspace() for ch in part):
                raise ValueError("tag prefix/suffix must not contain whitespace")

    @classmethod
    def default(cls) -> "AbstractionRule":
        return cls(WordClassMap.default())

    def render(self, tag: str) -> str:
        return f"{self.tag_prefix}{tag}{self.tag_suffix}"


def abstract_sentence(
    sentence: Sentence, pos: PosAnnotation, rule: AbstractionRule
) -> Sentence:
    """Length-preserving substitution of content words by rendered tags."""
    if len(sentence) != len(pos):
        raise PosAlignmentError(
            f"{len(pos)} tags for {len(sentence)} tokens"
        )
    return tuple(
        rule.render(tag) if rule.classes.is_content(tag) else token
        for token, tag in zip(sentence, pos)
    )


def abstract_corpus(
    input_path: str, pos_path: str, output_path: str, rule: AbstractionRule
) -> int:
    """Abstract a corpus file line by line (atomic write); returns line count."""
    tagged = read_tagged(input_path, pos_path)
    return write_mono((abstract_sentence(s, pos, rule) for s, pos in tagged), output_path)


@dataclass(frozen=True, slots=True)
class FluencyReport:
    """Perplexities of system output, plain and abstracted.

    diff_* fields are signed relative changes against a baseline report
    ((ours - baseline) / baseline), or None when no baseline was given.
    """

    ppl_plain: float
    ppl_abstracted: float
    diff_plain: float | None = None
    diff_abstracted: float | None = None

    def to_tsv(self) -> str:
        def diff_cell(value: float | None) -> str:
            return "-" if value is None else fmt_float(value)

        return format_tsv(
            ("level", "ppl", "diff"),
            [
                ("plain", fmt_float(self.ppl_plain), diff_cell(self.diff_plain)),
                (
                    "abstracted",
                    fmt_float(self.ppl_abstracted),
                    diff_cell(self.diff_abstracted),
                ),
            ],
        )


def fluency_report(
    tagged: Sequence[tuple[Sentence, PosAnnotation]],
    *,
    plain_lm: NGramModel,
    abstracted_lm: NGramModel,
    rule: AbstractionRule,
    baseline: FluencyReport | None = None,
) -> FluencyReport:
    """Score outputs with a plain LM and their abstraction with an abstracted LM.

    tagged holds one (sentence, tags) pair per output line, as read_tagged
    yields them.
    """
    abstracted = [abstract_sentence(sentence, pos, rule) for sentence, pos in tagged]
    ppl_plain = perplexity(plain_lm, (sentence for sentence, _ in tagged))
    ppl_abstracted = perplexity(abstracted_lm, abstracted)
    diff_plain = diff_abstracted = None
    if baseline is not None:
        diff_plain = (ppl_plain - baseline.ppl_plain) / baseline.ppl_plain
        diff_abstracted = (
            ppl_abstracted - baseline.ppl_abstracted
        ) / baseline.ppl_abstracted
    return FluencyReport(ppl_plain, ppl_abstracted, diff_plain, diff_abstracted)
