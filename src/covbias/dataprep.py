"""Corpus surgery for bias mitigation: tagging, splitting, merging.

bias_tag prepends a marker token to the source side of every target-original
pair, so a downstream system can condition on origin. finetune_split carves
out the source-original subset for a second training stage while keeping the
full corpus for the first. merge_augment concatenates an authentic corpus
with a synthetic one, optionally marking synthetic source sides and shuffling
reproducibly. A tag token must be non-empty and free of whitespace.

finetune_split and merge_augment read their inputs once and write their
corpora as they read, atomically and through the corpus writers' check; each
returns a manifest describing where each output line came from. Neither holds
a pair in memory, except that a shuffled merge holds each line as one string
per side until it is written.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence, Set as AbstractSet
from contextlib import ExitStack
from itertools import zip_longest
from typing import NamedTuple

from . import DEFAULT_ORIGIN_TAG, DEFAULT_SYNTHETIC_TAG  # defined at the root for the CLI
from .corpus import OriginLabel, ParallelExample, _check_writable
from .errors import DataError
from .fileio import atomic_write

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


def _check_collision(
    example: ParallelExample, token: str, line_no: int
) -> None:
    if token in example.source or token in example.target:
        raise DataError(f"line {line_no}: corpus already contains the tag token {token!r}")


def bias_tag(
    examples: Iterable[ParallelExample],
    labels: Iterable[OriginLabel],
    tag_token: str = DEFAULT_ORIGIN_TAG,
) -> Iterator[ParallelExample]:
    """Prepend the tag token to the source side of target-original pairs.

    Labels align 1:1 with examples; a corpus that already contains the tag
    token anywhere raises DataError so tagging stays reversible. A bad
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
            raise DataError(f"{short} ended at line {line_no} but {other} continue")
        _check_collision(example, tag_token, line_no)
        if label is OriginLabel.TARGET_ORIGINAL:
            yield _prepend_marker(example, tag_token)
        else:
            yield example


def finetune_split(
    examples: Iterable[ParallelExample],
    lines: AbstractSet[int],
    pretrain_paths: tuple[str, str],
    finetune_paths: tuple[str, str],
) -> Iterator[ManifestEntry]:
    """Write the full corpus for stage one and a subset of it for stage two.

    lines holds the 1-based line numbers of the subset, such as those of the
    source-original pairs. One pass writes every example to the (source,
    target) files of pretrain_paths and each selected one to those of
    finetune_paths as well, so both keep the input order. A selection that
    names a line past the end of examples is a DataError, and then none of
    the four files is written. Returns the manifest, pretrain rows first;
    its entries are made as they are read.
    """
    if any(not isinstance(x, int) or x < 1 for x in lines):
        raise DataError("selection line numbers must be positive integers")
    count = 0
    with ExitStack() as stack:
        pre_src, pre_tgt, fine_src, fine_tgt = [
            stack.enter_context(atomic_write(path)) for path in (*pretrain_paths, *finetune_paths)
        ]
        for count, example in enumerate(examples, 1):
            source = _check_writable(example.source, count) + "\n"
            target = _check_writable(example.target, count) + "\n"
            pre_src.write(source)
            pre_tgt.write(target)
            if count in lines:
                fine_src.write(source)
                fine_tgt.write(target)
        if lines and max(lines) > count:
            raise DataError(f"selection names line {max(lines)} but the corpus has {count} lines")
    return _split_manifest(count, sorted(lines))


def _split_manifest(count: int, selected: list[int]) -> Iterator[ManifestEntry]:
    for out_no in range(1, count + 1):
        yield ManifestEntry(out_no, "pretrain", out_no)
    for out_no, line_no in enumerate(selected, 1):
        yield ManifestEntry(out_no, "finetune", line_no)


def merge_augment(
    authentic: Iterable[ParallelExample],
    synthetic: Iterable[ParallelExample],
    source_path: str,
    target_path: str,
    tag_token: str | None = None,
    shuffle_seed: int | None = None,
) -> Iterator[ManifestEntry]:
    """Write both corpora as one to source_path and target_path; return its manifest.

    With a tag_token, every synthetic source side gets it prepended
    (collisions anywhere in either corpus are errors). Without a seed the
    pairs stream to the files, authentic ones first. With a seed the merged
    order is a reproducible shuffle, and each line is held until the end as
    the text it is written as: one string per side. A fault leaves neither
    file written. The manifest, whose entries are made as they are read,
    partitions the output exactly.
    """
    if tag_token is not None:
        _check_tag_token(tag_token)
    sources: list[str] = []
    targets: list[str] = []
    counts = []
    with atomic_write(source_path) as src, atomic_write(target_path) as tgt:
        write_source, write_target = (
            (src.write, tgt.write) if shuffle_seed is None else (sources.append, targets.append)
        )
        # a checked tag token and a checked line join into a line that splits
        # back into the tagged tokens, so every written line is a checked one
        marker = "" if tag_token is None else tag_token + " "
        for examples, prefix in ((authentic, ""), (synthetic, marker)):
            count = 0
            for count, example in enumerate(examples, 1):
                if tag_token is not None:
                    _check_collision(example, tag_token, count)
                write_source(prefix + _check_writable(example.source, count) + "\n")
                write_target(_check_writable(example.target, count) + "\n")
            counts.append(count)
        order: Sequence[int] = range(sum(counts))
        if shuffle_seed is not None:
            from array import array  # an extension module: loaded only by the runs that need it

            # shuffle's swaps depend only on the length, so shuffling the
            # indices gives the order that shuffling the lines would
            order = array("q", order)
            random.Random(shuffle_seed).shuffle(order)
            for index in order:
                src.write(sources[index])
                tgt.write(targets[index])
    return _merge_manifest(order, counts[0])


def _merge_manifest(order: Iterable[int], n_authentic: int) -> Iterator[ManifestEntry]:
    for out_no, index in enumerate(order, 1):
        if index < n_authentic:
            yield ManifestEntry(out_no, "authentic", index + 1)
        else:
            yield ManifestEntry(out_no, "synthetic", index - n_authentic + 1)
