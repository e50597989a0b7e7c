"""Corpus surgery for bias mitigation: tagging, splitting, merging.

bias_tag prepends a marker token to the source side of every target-original
pair, so a downstream system can condition on origin. finetune_split carves
out the source-original subset for a second training stage while keeping the
full corpus for the first. merge_augment concatenates an authentic corpus
with a synthetic one, optionally marking synthetic source sides and shuffling
reproducibly. A tag token must be non-empty and free of whitespace. Every
file-producing operation has a manifest describing where each output line
came from.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence
from itertools import zip_longest
from typing import NamedTuple

from . import DEFAULT_ORIGIN_TAG, DEFAULT_SYNTHETIC_TAG  # defined at the root for the CLI
from .corpus import OriginLabel, ParallelExample
from .errors import DataError
from .fileio import format_tsv

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


def _check_tag_token(token: str) -> None:
    if not token or any(ch.isspace() for ch in token):
        raise ValueError("tag token must be non-empty and whitespace-free")


class ManifestEntry(NamedTuple):
    output_line_no: int
    provenance: str
    original_line_no: int


def manifest_to_tsv(entries: Sequence[ManifestEntry]) -> str:
    return format_tsv(
        ("output_line_no", "provenance", "original_line_no"),
        ((str(e.output_line_no), e.provenance, str(e.original_line_no)) for e in entries),
    )


def _check_collision(
    example: ParallelExample, token: str, line_no: int
) -> None:
    if token in example.source or token in example.target:
        raise DataError(
            f"line {line_no}: corpus already contains the tag token {token!r}",
            line_no=line_no,
        )


def bias_tag(
    examples: Iterable[ParallelExample],
    labels: Iterable[OriginLabel],
    tag_token: str = DEFAULT_ORIGIN_TAG,
) -> Iterator[ParallelExample]:
    """Prepend the tag token to the source side of target-original pairs.

    Labels align 1:1 with examples; a corpus that already contains the tag
    token anywhere raises DataError so detagging stays unambiguous. A bad
    tag token raises ValueError at the call, before any line is read.
    """
    _check_tag_token(tag_token)
    return _tag_lines(examples, labels, tag_token)


def _tag_lines(
    examples: Iterable[ParallelExample], labels: Iterable[OriginLabel], tag_token: str
) -> Iterator[ParallelExample]:
    missing = object()
    pairs = zip_longest(examples, labels, fillvalue=missing)
    for line_no, (example, label) in enumerate(pairs, 1):
        if example is missing or label is missing:
            short, other = ("examples", "labels") if example is missing else ("labels", "examples")
            raise DataError(
                f"{short} ended at line {line_no} but {other} continue", line_no=line_no
            )
        _check_collision(example, tag_token, line_no)
        if label is OriginLabel.TARGET_ORIGINAL:
            yield _prepend_marker(example, tag_token)
        else:
            yield example


def detag(
    examples: Iterable[ParallelExample], tag_token: str = DEFAULT_ORIGIN_TAG
) -> Iterator[ParallelExample]:
    """Strip one leading tag token from each tagged source side (inverse of bias_tag)."""
    _check_tag_token(tag_token)
    for example in examples:
        if example.source and example.source[0] == tag_token:
            pos = example.source_pos
            yield ParallelExample(
                example.source[1:],
                example.target,
                pos[1:] if pos is not None else None,
                example.target_pos,
            )
        else:
            yield example


def finetune_split(
    examples: Sequence[ParallelExample], lines: set[int] | frozenset[int]
) -> tuple[list[ParallelExample], list[ParallelExample], list[ManifestEntry]]:
    """(full corpus for stage one, selected subset for stage two, manifest).

    lines holds the 1-based line numbers of the subset, such as those of the
    source-original pairs. Both output corpora preserve the input order.
    """
    if any(not isinstance(x, int) or x < 1 for x in lines):
        raise DataError("selection line numbers must be positive integers")
    if lines and max(lines) > len(examples):
        raise DataError(
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
    tag_token: str | None = None,
    shuffle_seed: int | None = None,
) -> tuple[list[ParallelExample], list[ManifestEntry]]:
    """Concatenate corpora, optionally tagging synthetic source sides.

    With a tag_token, every synthetic source side gets it prepended
    (collisions anywhere in either corpus are errors). With a seed, the
    merged order is a reproducible shuffle; otherwise authentic lines come
    first. The manifest partitions the output exactly.
    """
    if tag_token is not None:
        _check_tag_token(tag_token)
    merged_src: list[tuple[ParallelExample, str, int]] = []
    for line_no, example in enumerate(authentic, 1):
        if tag_token is not None:
            _check_collision(example, tag_token, line_no)
        merged_src.append((example, "authentic", line_no))
    for line_no, example in enumerate(synthetic, 1):
        if tag_token is not None:
            _check_collision(example, tag_token, line_no)
            example = _prepend_marker(example, tag_token)
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
