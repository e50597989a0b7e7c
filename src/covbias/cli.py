"""Command-line front end.

Subcommands mirror the library: LM training and perplexity, pair scoring,
offset tuning, classification, extreme selection, divergence and adequacy
reports, abstraction, fluency, and the corpus preparation steps. All file
outputs are written atomically (temp file + rename); reports are TSV with a
header row and floats at 17 significant digits. Exit codes: 0 success,
1 usage problems, 2 data problems.

A --config FILE (key=value lines, keys named like the long flags with
underscores) supplies values for any flag not given explicitly; explicit
flags win. Boolean keys take 1/0/true/false/yes/no/on/off, and every config
value passes the same type, choice and finiteness checks as its flag.
--threads N is accepted (N >= 1) but every stage runs on one thread: scoring
is pure Python, so worker threads only slowed it down. Any N produces
byte-identical output to N=1. Non-finite numbers (nan, inf) are rejected in
float flags (exit 1), and in score columns of input reports and in scores
shifted by --offset-c (exit 2).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

# Layer modules are imported inside the functions that use them, so a run
# loads only what its subcommand needs; the import reads the module attribute
# at call time, so a rebound one (such as a tracing wrapper) is what is called.
from . import DEFAULT_ORIGIN_TAG, DEFAULT_SYNTHETIC_TAG, MODEL_FORMAT_VERSION, __version__
from .errors import DataError
from .fileio import atomic_write, fmt_float, format_tsv, line_fault, read_section_file, read_tsv

if TYPE_CHECKING:
    from fractions import Fraction

    from .corpus import ParallelExample

VERSION_LINE = f"covbias {__version__} (model format {MODEL_FORMAT_VERSION})"


class UsageError(Exception):
    """Bad flags or flag values (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _exact_float(text: str) -> Fraction:
    """What _finite_float accepts, as the exact number the text spells: 0.29 is 29/100."""
    from fractions import Fraction

    _finite_float(text)
    return Fraction(text.replace("_", ""))  # Fraction reads "1_0" only from Python 3.11


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _parse_bool(raw: str, flag: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"invalid value for {flag}: {raw!r}")


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise UsageError(f"{path}: line {line_no}: key {key!r} is given more than once")
            values[key] = value.strip()
    return values


def _write_report(lines: Iterable[str], output: str | None) -> None:
    """Write a report's lines to output, or to stdout for None or "-"."""
    if output in (None, "-"):
        sys.stdout.writelines(lines)
    else:
        with atomic_write(output) as handle:
            handle.writelines(lines)


def _write_manifest(entries: Iterable[tuple[int, str, int]], path: str) -> None:
    rows = ((str(out_no), provenance, str(original)) for out_no, provenance, original in entries)
    _write_report(format_tsv(("output_line_no", "provenance", "original_line_no"), rows), path)


def _content_tags(path: str | None) -> frozenset[str]:
    from .divergence import DEFAULT_CONTENT_TAGS, read_word_classes

    return read_word_classes(path) if path else DEFAULT_CONTENT_TAGS


_RECORD_HEADER = ("line_no", "score", "label")  # scored records; label is optional
_GROUP_HEADER = ("line_no", "group")  # line groups


def _line_no(cell: str, seen: set[int]) -> int:
    """A report's line_no cell as an integer >= 1 not in seen, which then holds it."""
    try:
        number = int(cell)
    except ValueError:
        raise ValueError(f"bad line_no {cell!r}") from None
    if number < 1:
        raise ValueError(f"line_no must be >= 1, got {number}")
    if number in seen:
        raise ValueError(f"line_no {number} is repeated")
    seen.add(number)
    return number


def _finite(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"bad {column} value {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{column} value {cell!r} is not finite")
    return value


def _read_scores(path: str, in_order: bool = False) -> list[tuple[int, float]]:
    """(line_no, score) per row of a scored-records report, in file order.

    A label that is not label_for(score), and with in_order a line_no that
    is not the row's number (1, 2, 3, ...), is a DataError naming the line.
    """
    from .detect import label_for

    seen: set[int] = set()

    def record(line_no: str, cell: str, label: str | None) -> tuple[int, float]:
        number, score = _line_no(line_no, seen), _finite(cell, "score")
        if label is not None and label != (code := label_for(score).code):
            raise ValueError(f"label {label!r} disagrees with score {cell}, which is labelled {code}")
        if in_order and number != len(seen):  # seen holds one line_no per row so far
            raise ValueError(f"expected line_no {len(seen)} in order, got {number}")
        return number, score

    return read_tsv(path, _RECORD_HEADER[:2], record, _RECORD_HEADER[2:])


def _read_groups(path: str, allowed: tuple[str, ...] = ()) -> dict[str, set[int]]:
    """{group: line numbers} of a line-groups report; with allowed, any other group is a fault."""
    seen: set[int] = set()
    groups: dict[str, set[int]] = {}

    def member(line_no: str, group: str) -> None:
        number = _line_no(line_no, seen)
        if allowed and group not in allowed:
            raise ValueError(f"group must be {' or '.join(allowed)}, got {group!r}")
        groups.setdefault(group, set()).add(number)

    read_tsv(path, _GROUP_HEADER, member)
    return groups


def _read_untagged(source: str, target: str, token: str | None) -> Iterator[ParallelExample]:
    """read_parallel's pairs; a side that holds token is a fault naming its file and line."""
    from .corpus import read_parallel

    for line_no, example in enumerate(read_parallel(source, target), 1):
        for path, side in ((source, example.source), (target, example.target)):
            if token in side:
                raise line_fault(path, line_no, f"corpus already contains the tag token {token!r}")
        yield example


def _labelled_scores(
    scored: Iterable[tuple[int, float]], path: str | None = None
) -> Iterator[str]:
    """The lines of the line_no/score/label report; a score that is not finite is a DataError.

    Every score is read and checked before this returns, into two columns;
    the lines are formatted from them as they are written.
    """
    from array import array  # an extension module: loaded only by the runs that need it

    from .detect import label_for

    where = f"{path}: " if path else ""
    line_nos, scores = array("q"), array("d")
    for line_no, score in scored:
        if not math.isfinite(score):
            raise DataError(
                f"{where}line_no {line_no}: shifted score {score} is not finite",
                line_no=line_no,
            )
        try:
            line_nos.append(line_no)
        except OverflowError:  # a report's line_no above 2**63 - 1: keep ints from here on
            line_nos = [*line_nos, line_no]
        scores.append(score)
    rows = ((str(n), fmt_float(x), label_for(x).code) for n, x in zip(line_nos, scores))
    return format_tsv(_RECORD_HEADER, rows)


# -- handlers ---------------------------------------------------------------


def _cmd_train_lm(args: argparse.Namespace) -> int:
    from .corpus import read_mono
    from .lm import NGramModel

    model = NGramModel.train(read_mono(args.input), order=args.order, min_count=args.min_count)
    model.save(args.output)
    return 0


def _cmd_perplexity(args: argparse.Namespace) -> int:
    from .corpus import read_mono
    from .lm import NGramModel, perplexity

    model = NGramModel.load(args.model)
    value = perplexity(model, read_mono(args.input))
    _write_report(format_tsv(["metric", "value"], [("perplexity", fmt_float(value))]), args.output)
    return 0


def _cmd_score_pairs(args: argparse.Namespace) -> int:
    from .corpus import read_parallel
    from .detect import classify
    from .lm import NGramModel

    source_lm = NGramModel.load(args.source_model)
    target_lm = NGramModel.load(args.target_model)
    examples = read_parallel(args.source, args.target)
    records = classify(source_lm, target_lm, examples, args.offset_c, args.length_normalize)
    _write_report(_labelled_scores(records), args.output)
    return 0


def _cmd_tune_offset(args: argparse.Namespace) -> int:
    from .corpus import OriginLabel
    from .detect import tune_offset

    def gold_row(score: str, gold: str) -> tuple[float, OriginLabel]:
        return _finite(score, "score"), OriginLabel.from_code(gold)

    c, macro_f1 = tune_offset(read_tsv(args.input, ("score", "gold"), gold_row))
    _write_report(format_tsv(["c", "macro_f1"], [(fmt_float(c), fmt_float(macro_f1))]), args.output)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    scored = ((line_no, score + args.offset_c) for line_no, score in _read_scores(args.scores))
    _write_report(_labelled_scores(scored, args.scores), args.output)
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from .detect import select_extremes

    if not 0 < args.ratio <= 50:
        raise UsageError(f"--ratio must be in (0, 50], got {float(args.ratio)}")
    records = _read_scores(args.records)
    most_source, most_target = select_extremes(records, args.ratio)
    if not most_source:
        raise DataError(
            f"{args.records}: --ratio {float(args.ratio)} of {len(records)} records selects no line"
        )
    rows = [(str(n), "most_source") for n in sorted(most_source)]
    rows += [(str(n), "most_target") for n in sorted(most_target)]
    _write_report(format_tsv(_GROUP_HEADER, rows), args.output)
    return 0


def _cmd_jsdiv(args: argparse.Namespace) -> int:
    from .corpus import read_parallel
    from .divergence import JS_SCALE, WORD_CLASSES, divergence_report

    pos = args.source_pos if args.side == "source" else args.target_pos
    if not pos:
        raise UsageError(f"--side {args.side} needs --{args.side}-pos")
    groups = _read_groups(args.split)
    if len(groups) != 2:
        raise DataError(f"{args.split}: expected exactly 2 group values, found {len(groups)}")
    partition_a, partition_b = (groups[name] for name in sorted(groups))
    source_pos, target_pos = (pos, None) if args.side == "source" else (None, pos)
    examples = read_parallel(args.source, args.target, source_pos, target_pos)
    report = divergence_report(
        examples, partition_a, partition_b, args.side, _content_tags(args.word_classes)
    )
    rows = (
        (word_class, fmt_float(nats), fmt_float(nats * JS_SCALE))
        for word_class, nats in zip(WORD_CLASSES, report)
    )
    _write_report(format_tsv(("class", "js_nats", "js_x1e5"), rows), args.output)
    return 0


def _cmd_random_split(args: argparse.Namespace) -> int:
    from .divergence import random_split

    count, fraction = args.count, args.fraction
    if not 0 < fraction < 1:
        raise UsageError(f"--fraction must be in (0, 1), got {float(fraction)}")
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    part_a, part_b = random_split(count, fraction, args.seed)
    if not part_a:
        raise UsageError(f"--fraction {float(fraction)} of --count {count} puts no line in group a")
    rows = ((str(n), "a" if n in part_a else "b") for n in range(1, count + 1))
    _write_report(format_tsv(_GROUP_HEADER, rows), args.output)
    return 0


def _cmd_fmeasure(args: argparse.Namespace) -> int:
    from .corpus import read_parallel
    from .fmeasure import DEFAULT_BUCKETS, word_fmeasure

    if args.buckets:
        sections = read_section_file(args.buckets)
        buckets = {name: frozenset(tags) for name, tags in sections.items()}
    else:
        buckets = dict(DEFAULT_BUCKETS)
    stats = word_fmeasure(read_parallel(args.hyp, args.ref, None, args.ref_pos), buckets)
    rows = ((name, *map(fmt_float, s[:3]), *map(str, s[3:])) for name, s in sorted(stats.items()))
    header = ("bucket", "precision", "recall", "f1", "matched", "sys_count", "ref_count")
    _write_report(format_tsv(header, rows), args.output)
    return 0


def _cmd_abstract(args: argparse.Namespace) -> int:
    from .abstraction import abstract_corpus

    abstract_corpus(
        args.input, args.pos, args.output,
        _content_tags(args.word_classes), args.tag_prefix, args.tag_suffix,
    )
    return 0


_FLUENCY_HEADER = ("level", "ppl", "diff")  # a baseline is read by its first two columns
_LEVELS = ("plain", "abstracted")


def _read_fluency_baseline(path: str) -> dict[str, float]:
    """{level: ppl} of a fluency report, one plain and one abstracted row."""
    by_level: dict[str, float] = {}

    def level_row(level: str, cell: str) -> None:
        if level not in _LEVELS:
            raise ValueError(f"level must be plain or abstracted, got {level!r}")
        if level in by_level:
            raise ValueError(f"level {level!r} is given more than once")
        ppl = _finite(cell, "ppl")
        if ppl < 1:  # every event log-probability is <= 0
            raise ValueError(f"ppl value {cell!r} is below 1")
        by_level[level] = ppl

    read_tsv(path, _FLUENCY_HEADER[:2], level_row)
    missing = set(_LEVELS) - set(by_level)
    if missing:
        raise DataError(f"{path}: missing level row(s): {', '.join(sorted(missing))}")
    return by_level


def _fluency_lines(report: Iterable[float], baseline: dict[str, float] | None) -> Iterator[str]:
    """The lines of a fluency report: each level's ppl, and its diff from baseline or "-"."""
    rows = []
    for level, ppl in zip(_LEVELS, report):
        diff = fmt_float((ppl - baseline[level]) / baseline[level]) if baseline else "-"
        rows.append((level, fmt_float(ppl), diff))
    return format_tsv(_FLUENCY_HEADER, rows)


def _cmd_fluency(args: argparse.Namespace) -> int:
    from .abstraction import _abstractor, fluency_report
    from .corpus import read_tagged
    from .lm import NGramModel

    tagged = read_tagged(args.input, args.pos)
    content_tags = _content_tags(args.word_classes)
    # a bad --tag-prefix/--tag-suffix is a usage fault (exit 1) whatever the
    # baseline, the models and the corpus hold, so it is refused before them
    _abstractor(content_tags, args.tag_prefix, args.tag_suffix)
    baseline = _read_fluency_baseline(args.baseline) if args.baseline else None
    report = fluency_report(
        tagged,
        plain_lm=NGramModel.load(args.plain_lm),
        abstracted_lm=NGramModel.load(args.abstracted_lm),
        content_tags=content_tags,
        tag_prefix=args.tag_prefix,
        tag_suffix=args.tag_suffix,
    )
    _write_report(_fluency_lines(report, baseline), args.output)
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    from .corpus import write_parallel
    from .dataprep import bias_tag
    from .detect import label_for

    labels = [label_for(score) for _, score in _read_scores(args.records, in_order=True)]
    records, source = args.records, args.source

    def examples() -> Iterator[ParallelExample]:  # one per record, or a fault naming both files
        n = 0
        for n, example in enumerate(_read_untagged(source, args.target, args.tag_token), 1):
            if n > len(labels):
                raise DataError(f"{records} ended at line_no {n} but {source} continues", n)
            yield example
        if n < len(labels):
            raise DataError(f"{source} ended at line {n + 1} but {records} continues", n + 1)

    write_parallel(bias_tag(examples(), labels, args.tag_token), args.out_source, args.out_target)
    return 0


def _cmd_split_finetune(args: argparse.Namespace) -> int:
    from .corpus import OriginLabel, read_parallel
    from .dataprep import finetune_split
    from .detect import label_for

    if bool(args.records) == bool(args.selection):
        raise UsageError("pass exactly one of --records or --selection")
    if args.records:
        scored = _read_scores(args.records)
        lines = {n for n, score in scored if label_for(score) is OriginLabel.SOURCE_ORIGINAL}
    else:
        groups = _read_groups(args.selection, ("most_source", "most_target"))
        lines = groups.get("most_source", set())
    if not lines:
        raise DataError(f"{args.records or args.selection}: no source-original line to fine-tune on")
    examples = read_parallel(args.source, args.target)
    pretrain = (args.out_pretrain_source, args.out_pretrain_target)
    finetune = (args.out_finetune_source, args.out_finetune_target)
    manifest = finetune_split(examples, lines, pretrain, finetune)
    _write_manifest(manifest, args.manifest)
    return 0


def _cmd_merge_augment(args: argparse.Namespace) -> int:
    from .dataprep import merge_augment

    authentic = _read_untagged(args.authentic_source, args.authentic_target, args.tag_token)
    synthetic = _read_untagged(args.synthetic_source, args.synthetic_target, args.tag_token)
    manifest = merge_augment(
        authentic, synthetic, args.out_source, args.out_target, args.tag_token, args.seed
    )
    _write_manifest(manifest, args.manifest)
    return 0


# -- wiring -----------------------------------------------------------------

# name -> (help, handler, [(flag, add_argument keywords)]); every subcommand
# also takes --threads and --config
_OUTPUT = ("--output", dict(help="output file (default: stdout)"))
_THREADS = (
    "--threads",
    dict(type=_thread_count, default=1, help="accepted for compatibility; no effect on speed"),
)

_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], list[tuple[str, dict]]]] = {
    "train-lm": (
        "train an n-gram model on a monolingual corpus",
        _cmd_train_lm,
        [
            ("--input", dict(required=True, help="training corpus")),
            ("--output", dict(required=True, help="model file to write")),
            ("--order", dict(type=int, default=4)),
            ("--min-count", dict(type=int, default=2)),
        ],
    ),
    "perplexity": (
        "perplexity of a model on a corpus",
        _cmd_perplexity,
        [("--model", dict(required=True)), ("--input", dict(required=True)), _OUTPUT],
    ),
    "score-pairs": (
        "score parallel pairs by the two-model log-probability difference",
        _cmd_score_pairs,
        [
            ("--source-model", dict(required=True)),
            ("--target-model", dict(required=True)),
            ("--source", dict(required=True)),
            ("--target", dict(required=True)),
            ("--offset-c", dict(type=_finite_float, default=0.0)),
            ("--length-normalize", dict(action="store_true")),
            _OUTPUT,
        ],
    ),
    "tune-offset": (
        "pick the offset maximizing macro-F1 on scored, gold-labeled pairs",
        _cmd_tune_offset,
        [("--input", dict(required=True, help="TSV with score and gold columns")), _OUTPUT],
    ),
    "classify": (
        "apply an offset to raw scores and label each line",
        _cmd_classify,
        [
            ("--scores", dict(required=True, help="TSV with line_no and score")),
            ("--offset-c", dict(type=_finite_float, default=0.0)),
            _OUTPUT,
        ],
    ),
    "select": (
        "take the most extreme lines from both ends of the score ranking",
        _cmd_select,
        [
            ("--records", dict(required=True, help="classify output TSV")),
            ("--ratio", dict(type=_exact_float, required=True, help="percent per side, in (0, 50]")),
            _OUTPUT,
        ],
    ),
    "jsdiv": (
        "Jensen-Shannon divergence between two line partitions",
        _cmd_jsdiv,
        [
            ("--source", dict(required=True)),
            ("--target", dict(required=True)),
            ("--side", dict(choices=("source", "target"), required=True)),
            ("--source-pos", {}),
            ("--target-pos", {}),
            ("--split", dict(required=True, help="TSV with line_no and group")),
            ("--word-classes", dict(help="section file with [content] tags")),
            _OUTPUT,
        ],
    ),
    "random-split": (
        "deterministic random partition of line numbers",
        _cmd_random_split,
        [
            ("--count", dict(type=int, required=True)),
            ("--fraction", dict(type=_exact_float, required=True)),
            ("--seed", dict(type=int, required=True)),
            _OUTPUT,
        ],
    ),
    "fmeasure": (
        "bag-of-words F-measure per POS bucket",
        _cmd_fmeasure,
        [
            ("--hyp", dict(required=True)),
            ("--ref", dict(required=True)),
            ("--ref-pos", dict(required=True)),
            ("--buckets", dict(help="section file naming buckets")),
            _OUTPUT,
        ],
    ),
    "abstract": (
        "replace content words by rendered POS tags",
        _cmd_abstract,
        [
            ("--input", dict(required=True)),
            ("--pos", dict(required=True)),
            ("--output", dict(required=True)),
            ("--word-classes", {}),
            ("--tag-prefix", dict(default="")),
            ("--tag-suffix", dict(default="")),
        ],
    ),
    "fluency": (
        "perplexity report over plain and abstracted system output",
        _cmd_fluency,
        [
            ("--input", dict(required=True, help="system output corpus")),
            ("--pos", dict(required=True)),
            ("--plain-lm", dict(required=True)),
            ("--abstracted-lm", dict(required=True)),
            ("--word-classes", {}),
            ("--tag-prefix", dict(default="")),
            ("--tag-suffix", dict(default="")),
            ("--baseline", dict(help="earlier fluency TSV to diff against")),
            _OUTPUT,
        ],
    ),
    "tag": (
        "prepend an origin tag to target-original source sides",
        _cmd_tag,
        [
            ("--source", dict(required=True)),
            ("--target", dict(required=True)),
            ("--records", dict(required=True, help="classify output TSV")),
            ("--tag-token", dict(default=DEFAULT_ORIGIN_TAG)),
            ("--out-source", dict(required=True)),
            ("--out-target", dict(required=True)),
        ],
    ),
    "split-finetune": (
        "write the full corpus plus its source-original subset",
        _cmd_split_finetune,
        [
            ("--source", dict(required=True)),
            ("--target", dict(required=True)),
            ("--records", dict(help="classify output TSV")),
            ("--selection", dict(help="select output TSV")),
            ("--out-pretrain-source", dict(required=True)),
            ("--out-pretrain-target", dict(required=True)),
            ("--out-finetune-source", dict(required=True)),
            ("--out-finetune-target", dict(required=True)),
            ("--manifest", dict(required=True)),
        ],
    ),
    "merge-augment": (
        "merge authentic and synthetic corpora with manifest",
        _cmd_merge_augment,
        [
            ("--authentic-source", dict(required=True)),
            ("--authentic-target", dict(required=True)),
            ("--synthetic-source", dict(required=True)),
            ("--synthetic-target", dict(required=True)),
            ("--tag-token", dict(help=f"tag synthetic source sides (e.g. {DEFAULT_SYNTHETIC_TAG})")),
            ("--seed", dict(type=int, help="shuffle the merged order reproducibly")),
            ("--out-source", dict(required=True)),
            ("--out-target", dict(required=True)),
            ("--manifest", dict(required=True)),
        ],
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="covbias", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION_LINE)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flag, keywords in arguments + [_THREADS]:
            sub.add_argument(flag, **keywords)
        sub.add_argument("--config", help="key=value file merged under explicit flags")
    return parser


def _config_flags(command: str, argv: list[str]) -> list[str]:
    """The flags that the --config file named in argv stands for."""
    arguments = _COMMANDS[command][2] + [_THREADS]
    # The subcommand's flags, untyped and none required: unknown, ambiguous and
    # valueless flags fail here as in the full parse, before the file is read.
    pre = _Parser(prog=f"covbias {command}", add_help=False)
    pre.add_argument("-h", "--help", action="store_true")
    pre.add_argument("--config")
    for flag, keywords in arguments:
        pre.add_argument(flag, action=keywords.get("action"))
    known = pre.parse_args(argv)
    if known.help or not known.config:
        return []
    config = _read_config(known.config)
    by_key = {flag[2:].replace("-", "_"): (flag, keywords) for flag, keywords in arguments}
    unknown = sorted(key for key in config if key not in by_key)
    if unknown:
        raise UsageError(
            f"{known.config}: unknown config key(s) for this subcommand: " + ", ".join(unknown)
        )
    flags = []
    for key, value in config.items():
        flag, keywords = by_key[key]
        if keywords.get("action") != "store_true":
            flags.append(f"{flag}={value}")
        elif _parse_bool(value, flag):
            flags.append(flag)
    return flags


def _check_outputs(args: argparse.Namespace) -> None:
    """No two of --output, --out-* and --manifest may name one file; an input may be one."""
    seen: dict[str, str] = {}
    for dest, value in vars(args).items():
        if dest in ("output", "manifest"):
            if value in (None, "-"):  # a report given "-" goes to stdout
                continue
        elif not dest.startswith("out_") or value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        other = seen.setdefault(os.path.realpath(value), flag)
        if other != flag:
            raise UsageError(f"{other} and {flag} both name the file {value}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _COMMANDS:
            # config values go ahead of the explicit flags, so the explicit ones win
            argv[1:1] = _config_flags(argv[0], argv[1:])
        args = _build_parser().parse_args(argv)
        _check_outputs(args)
        return _COMMANDS[args.command][1](args)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0
    except UsageError as exc:
        message = str(exc)
        if not message.startswith("covbias"):
            message = f"covbias: {message}"
        print(message, file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"covbias: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"covbias: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
