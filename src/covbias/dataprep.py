"""Corpus surgery for bias mitigation: tagging, splitting, merging.

bias_tag prepends a marker token to the source side of every target-original
pair, so a downstream system can condition on origin. finetune_split carves
out the source-original subset for a second training stage while keeping the
full corpus for the first. merge_augment concatenates an authentic corpus
with a synthetic one, optionally marking synthetic source sides and shuffling
reproducibly. Every file-producing operation has a manifest describing where
each output line came from.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import OriginLabel, ParallelExample
from .detect import ScoreRecord
from .errors import DataError, LengthMismatch, TagCollision

DEFAULT_ORIGIN_TAG = "<TORIG>"
DEFAULT_SYNTHETIC_TAG = "<BT>"

# POS tag given to a prepended marker token when the example carries
# annotations, so the one-tag-per-token invariant survives tagging.
MARKER_POS_TAG = "X"


def _prepend_marker(example: ParallelExample, token: str) -> ParallelExample:
    pos = example.source_pos
    return ParallelExample(
        (token,) + example.source,
        example.target,
        (MARKER_POS_TAG,) + pos if pos is not None else None,
        example.target_pos,
    )


@dataclass(frozen=True, slots=True)
class TagPolicy:
    tag_token: str = DEFAULT_ORIGIN_TAG

    def __post_init__(self) -> None:
        if not self.tag_token or any(ch.isspace() for ch in self.tag_token):
            raise ValueError("tag token must be non-empty and whitespace-free")


class ManifestEntry(NamedTuple):
    output_line_no: int
    provenance: str
    original_line_no: int


def manifest_to_tsv(entries: Sequence[ManifestEntry]) -> str:
    lines = ["output_line_no\tprovenance\toriginal_line_no"]
    for entry in entries:
        lines.append(f"{entry.output_line_no}\t{entry.provenance}\t{entry.original_line_no}")
    return "\n".join(lines) + "\n"


def _check_collision(
    example: ParallelExample, token: str, line_no: int
) -> None:
    if token in example.source or token in example.target:
        raise TagCollision(
            f"line {line_no}: corpus already contains the tag token {token!r}",
            line_no=line_no,
        )


def bias_tag(
    examples: Iterable[ParallelExample],
    labels: Iterable[OriginLabel],
    policy: TagPolicy | None = None,
) -> Iterator[ParallelExample]:
    """Prepend the tag token to the source side of target-original pairs.

    Labels align 1:1 with examples; a corpus that already contains the tag
    token anywhere raises TagCollision so detagging stays unambiguous.
    """
    policy = policy or TagPolicy()
    sentinel = object()
    label_iter = iter(labels)
    line_no = 0
    for example in examples:
        line_no += 1
        label = next(label_iter, sentinel)
        if label is sentinel:
            raise LengthMismatch(
                f"labels ended at line {line_no} but examples continue"
            )
        _check_collision(example, policy.tag_token, line_no)
        if label is OriginLabel.TARGET_ORIGINAL:
            yield _prepend_marker(example, policy.tag_token)
        else:
            yield example
    if next(label_iter, sentinel) is not sentinel:
        raise LengthMismatch(f"examples ended at line {line_no} but labels continue")


def detag(
    examples: Iterable[ParallelExample], policy: TagPolicy | None = None
) -> Iterator[ParallelExample]:
    """Strip one leading tag token from each tagged source side (inverse of bias_tag)."""
    policy = policy or TagPolicy()
    for example in examples:
        if example.source and example.source[0] == policy.tag_token:
            pos = example.source_pos
            yield ParallelExample(
                example.source[1:],
                example.target,
                pos[1:] if pos is not None else None,
                example.target_pos,
            )
        else:
            yield example


def _selected_lines(
    selection: Iterable[ScoreRecord] | set[int] | frozenset[int],
) -> set[int]:
    if isinstance(selection, (set, frozenset)):
        lines = set(selection)
        if any(not isinstance(x, int) or x < 1 for x in lines):
            raise DataError("selection line numbers must be positive integers")
        return lines
    return {
        record.line_no
        for record in selection
        if record.label is OriginLabel.SOURCE_ORIGINAL
    }


def finetune_split(
    examples: Sequence[ParallelExample],
    selection: Iterable[ScoreRecord] | set[int] | frozenset[int],
) -> tuple[list[ParallelExample], list[ParallelExample], list[ManifestEntry]]:
    """(full corpus for stage one, selected subset for stage two, manifest).

    selection is either a set of 1-based line numbers or an iterable of
    ScoreRecords, of which the source-original ones are kept. Both output
    corpora preserve the input order.
    """
    lines = _selected_lines(selection)
    if lines and max(lines) > len(examples):
        raise LengthMismatch(
            f"selection names line {max(lines)} but the corpus has {len(examples)} lines"
        )
    pretrain = list(examples)
    finetune = []
    manifest = []
    for out_no, _ in enumerate(pretrain, 1):
        manifest.append(ManifestEntry(out_no, "pretrain", out_no))
    for line_no in sorted(lines):
        finetune.append(examples[line_no - 1])
        manifest.append(ManifestEntry(len(finetune), "finetune", line_no))
    return pretrain, finetune, manifest


def merge_augment(
    authentic: Sequence[ParallelExample],
    synthetic: Sequence[ParallelExample],
    policy: TagPolicy | None = None,
    shuffle_seed: int | None = None,
) -> tuple[list[ParallelExample], list[ManifestEntry]]:
    """Concatenate corpora, optionally tagging synthetic source sides.

    With a policy, every synthetic source side gets the tag token prepended
    (collisions anywhere in either corpus are errors). With a seed, the
    merged order is a reproducible shuffle; otherwise authentic lines come
    first. The manifest partitions the output exactly.
    """
    merged_src: list[tuple[ParallelExample, str, int]] = []
    for line_no, example in enumerate(authentic, 1):
        if policy is not None:
            _check_collision(example, policy.tag_token, line_no)
        merged_src.append((example, "authentic", line_no))
    for line_no, example in enumerate(synthetic, 1):
        if policy is not None:
            _check_collision(example, policy.tag_token, line_no)
            example = _prepend_marker(example, policy.tag_token)
        merged_src.append((example, "synthetic", line_no))
    order = list(range(len(merged_src)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    merged = []
    manifest = []
    for out_no, idx in enumerate(order, 1):
        example, provenance, original = merged_src[idx]
        merged.append(example)
        manifest.append(ManifestEntry(out_no, provenance, original))
    return merged, manifest
