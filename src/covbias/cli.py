"""Command-line front end.

Subcommands mirror the library: LM training and perplexity, pair scoring,
offset tuning, classification, extreme selection, divergence and adequacy
reports, abstraction, fluency, and the corpus preparation steps. All file
outputs are written atomically (temp file + rename); reports are TSV with a
header row and floats at 17 significant digits. Exit codes: 0 success,
1 usage problems, 2 data problems.

A --config FILE (key=value lines, keys named like the long flags with
underscores) supplies values for any flag not given explicitly; explicit
flags win. --threads N is accepted (N >= 1) but every stage runs on one
thread: scoring is pure Python, so worker threads only slowed it down. Any N
produces byte-identical output to N=1. Non-finite numbers (nan, inf) are
rejected in float flags (exit 1) and in score columns of input reports
(exit 2).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from . import __version__
from .abstraction import AbstractionRule, FluencyReport, abstract_corpus, fluency_report
from .corpus import OriginLabel, read_mono, read_parallel, write_parallel
from .dataprep import (
    DEFAULT_ORIGIN_TAG,
    DEFAULT_SYNTHETIC_TAG,
    TagPolicy,
    bias_tag,
    finetune_split,
    manifest_to_tsv,
    merge_augment,
)
from .detect import (
    DetectorConfig,
    ScoreRecord,
    SelectionSpec,
    label_for,
    score_pair,
    select_extremes,
    tune_offset,
)
from .divergence import WordClassMap, divergence_report, random_split
from .errors import DataError
from .fileio import atomic_write, fmt_float, read_tsv
from .fmeasure import DEFAULT_BUCKETS, word_fmeasure
from .lm import MODEL_FORMAT_VERSION, NGramModel, perplexity

VERSION_LINE = f"covbias {__version__} (model format {MODEL_FORMAT_VERSION})"


class UsageError(Exception):
    """Bad flags or flag values (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class Opt:
    flag: str
    kind: str = "str"  # str | path | int | float | bool
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_COMMON = [
    Opt("--config", kind="path", help="key=value file merged under explicit flags"),
    Opt("--threads", kind="int", default=1, help="accepted for compatibility; no effect on speed"),
]


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _convert(raw: object, opt: Opt) -> object:
    if isinstance(raw, bool):
        return raw
    text = str(raw)
    try:
        if opt.kind == "int":
            value: object = int(text)
        elif opt.kind == "float":
            value = float(text)
        elif opt.kind == "bool":
            value = _parse_bool(text)
        else:
            value = text
    except ValueError:
        raise UsageError(f"invalid value for {opt.flag}: {raw!r}") from None
    if opt.kind == "float" and not math.isfinite(value):
        raise UsageError(f"invalid value for {opt.flag}: {raw!r} (must be finite)")
    if opt.choices is not None and value not in opt.choices:
        raise UsageError(
            f"invalid value for {opt.flag}: {raw!r} (choose from {', '.join(opt.choices)})"
        )
    return value


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
            values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace, opts: Sequence[Opt]) -> dict[str, object]:
    known = {opt.dest: opt for opt in opts}
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = _read_config(args.config)
        unknown = [k for k in config if k not in known or k == "config"]
        if unknown:
            raise UsageError(
                f"{args.config}: unknown config key(s) for this subcommand: "
                + ", ".join(sorted(unknown))
            )
    values: dict[str, object] = {}
    for opt in opts:
        raw = getattr(args, opt.dest, None)
        if raw is None and opt.dest in config:
            raw = config[opt.dest]
        if raw is None:
            if opt.required:
                raise UsageError(f"missing required option {opt.flag}")
            values[opt.dest] = opt.default
        else:
            values[opt.dest] = _convert(raw, opt)
    return values


def _write_report(text: str, output: object) -> None:
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with atomic_write(str(output)) as handle:
            handle.write(text)


def _tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    out = ["\t".join(header)]
    out.extend("\t".join(row) for row in rows)
    return "\n".join(out) + "\n"


def _word_classes(path: object) -> WordClassMap:
    return WordClassMap.from_file(str(path)) if path else WordClassMap.default()


def _parse_line_no(row: dict[str, str], path: str) -> int:
    try:
        value = int(row["line_no"])
    except ValueError:
        raise DataError(f"{path}: bad line_no {row['line_no']!r}") from None
    if value < 1:
        raise DataError(f"{path}: line_no must be >= 1, got {value}")
    return value


def _parse_score(row: dict[str, str], path: str, column: str = "score") -> float:
    raw = row[column]
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"{path}: bad {column} value {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: {column} value {raw!r} is not finite")
    return value


# -- handlers ---------------------------------------------------------------


def _cmd_train_lm(v: dict[str, object]) -> int:
    model = NGramModel.train(
        read_mono(str(v["input"])), order=int(v["order"]), min_count=int(v["min_count"])
    )
    model.save(str(v["output"]))
    return 0


def _cmd_perplexity(v: dict[str, object]) -> int:
    model = NGramModel.load(str(v["model"]))
    value = perplexity(model, read_mono(str(v["input"])))
    _write_report(_tsv(["metric", "value"], [("perplexity", fmt_float(value))]), v["output"])
    return 0


def _cmd_score_pairs(v: dict[str, object]) -> int:
    config = DetectorConfig(
        source_lm=NGramModel.load(str(v["source_model"])),
        target_lm=NGramModel.load(str(v["target_model"])),
        offset_c=float(v["offset_c"]),
        length_normalize=bool(v["length_normalize"]),
    )
    examples = read_parallel(str(v["source"]), str(v["target"]))
    scores = [score_pair(config, ex) for ex in examples]
    rows = [
        (str(line_no), fmt_float(score), label_for(score).code)
        for line_no, score in enumerate(scores, 1)
    ]
    _write_report(_tsv(["line_no", "score", "label"], rows), v["output"])
    return 0


def _cmd_tune_offset(v: dict[str, object]) -> int:
    path = str(v["input"])
    scored = [
        (_parse_score(row, path), OriginLabel.from_code(row["gold"]))
        for row in read_tsv(path, ["score", "gold"])
    ]
    c, macro_f1 = tune_offset(scored)
    _write_report(
        _tsv(["c", "macro_f1"], [(fmt_float(c), fmt_float(macro_f1))]), v["output"]
    )
    return 0


def _cmd_classify(v: dict[str, object]) -> int:
    path = str(v["scores"])
    offset = float(v["offset_c"])
    rows = []
    for row in read_tsv(path, ["line_no", "score"]):
        line_no = _parse_line_no(row, path)
        score = _parse_score(row, path) + offset
        rows.append((str(line_no), fmt_float(score), label_for(score).code))
    _write_report(_tsv(["line_no", "score", "label"], rows), v["output"])
    return 0


def _read_records(path: str) -> list[ScoreRecord]:
    records = []
    for row in read_tsv(path, ["line_no", "score"]):
        line_no = _parse_line_no(row, path)
        score = _parse_score(row, path)
        records.append(ScoreRecord(line_no, score, label_for(score)))
    return records


def _cmd_select(v: dict[str, object]) -> int:
    records = _read_records(str(v["records"]))
    most_source, most_target = select_extremes(
        records, SelectionSpec(ratio_percent=float(v["ratio"]))
    )
    rows = [(str(n), "most_source") for n in sorted(most_source)]
    rows += [(str(n), "most_target") for n in sorted(most_target)]
    _write_report(_tsv(["line_no", "group"], rows), v["output"])
    return 0


def _read_partition(path: str) -> tuple[set[int], set[int]]:
    groups: dict[str, set[int]] = {}
    for row in read_tsv(path, ["line_no", "group"]):
        groups.setdefault(row["group"], set()).add(_parse_line_no(row, path))
    if len(groups) != 2:
        raise DataError(
            f"{path}: expected exactly 2 group values, found {len(groups)}"
        )
    first, second = sorted(groups)
    return groups[first], groups[second]


def _cmd_jsdiv(v: dict[str, object]) -> int:
    side = str(v["side"])
    partition_a, partition_b = _read_partition(str(v["split"]))
    examples = read_parallel(
        str(v["source"]),
        str(v["target"]),
        str(v["source_pos"]) if v["source_pos"] and side == "source" else None,
        str(v["target_pos"]) if v["target_pos"] and side == "target" else None,
    )
    report = divergence_report(
        examples, partition_a, partition_b, side, _word_classes(v["word_classes"])
    )
    _write_report(report.to_tsv(), v["output"])
    return 0


def _cmd_random_split(v: dict[str, object]) -> int:
    count = int(v["count"])
    fraction = float(v["fraction"])
    if not 0 < fraction < 1:
        raise UsageError(f"--fraction must be in (0, 1), got {fraction}")
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    part_a, part_b = random_split(count, fraction, int(v["seed"]))
    rows = [
        (str(n), "a" if n in part_a else "b") for n in range(1, count + 1)
    ]
    _write_report(_tsv(["line_no", "group"], rows), v["output"])
    return 0


def _read_aligned(text_path: str, pos_path: str) -> tuple[list, list]:
    sentences = list(read_mono(text_path))
    annotations = list(read_mono(pos_path))
    return sentences, annotations


def _cmd_fmeasure(v: dict[str, object]) -> int:
    hyp = list(read_mono(str(v["hyp"])))
    ref, ref_pos = _read_aligned(str(v["ref"]), str(v["ref_pos"]))
    if v["buckets"]:
        from .fileio import read_section_file

        sections = read_section_file(str(v["buckets"]))
        if not sections:
            raise DataError(f"{v['buckets']}: no bucket sections")
        buckets = {name: frozenset(tags) for name, tags in sections.items()}
        for name, tags in buckets.items():
            if not tags:
                raise DataError(f"{v['buckets']}: bucket [{name}] lists no tags")
    else:
        buckets = dict(DEFAULT_BUCKETS)
    report = word_fmeasure(hyp, ref, ref_pos, buckets)
    _write_report(report.to_tsv(), v["output"])
    return 0


def _cmd_abstract(v: dict[str, object]) -> int:
    rule = AbstractionRule(
        classes=_word_classes(v["word_classes"]),
        tag_prefix=str(v["tag_prefix"]),
        tag_suffix=str(v["tag_suffix"]),
    )
    abstract_corpus(str(v["input"]), str(v["pos"]), str(v["output"]), rule)
    return 0


def _read_fluency_baseline(path: str) -> FluencyReport:
    by_level = {}
    for row in read_tsv(path, ["level", "ppl"]):
        by_level[row["level"]] = _parse_score(row, path, column="ppl")
    missing = {"plain", "abstracted"} - set(by_level)
    if missing:
        raise DataError(f"{path}: missing level row(s): {', '.join(sorted(missing))}")
    return FluencyReport(by_level["plain"], by_level["abstracted"])


def _cmd_fluency(v: dict[str, object]) -> int:
    outputs, outputs_pos = _read_aligned(str(v["input"]), str(v["pos"]))
    rule = AbstractionRule(
        classes=_word_classes(v["word_classes"]),
        tag_prefix=str(v["tag_prefix"]),
        tag_suffix=str(v["tag_suffix"]),
    )
    baseline = _read_fluency_baseline(str(v["baseline"])) if v["baseline"] else None
    report = fluency_report(
        outputs,
        outputs_pos,
        plain_lm=NGramModel.load(str(v["plain_lm"])),
        abstracted_lm=NGramModel.load(str(v["abstracted_lm"])),
        rule=rule,
        baseline=baseline,
    )
    _write_report(report.to_tsv(), v["output"])
    return 0


def _read_labels(path: str) -> list[OriginLabel]:
    rows = read_tsv(path, ["line_no", "label"])
    labels = []
    for expected, row in enumerate(rows, 1):
        line_no = _parse_line_no(row, path)
        if line_no != expected:
            raise DataError(
                f"{path}: expected line_no {expected} in order, got {line_no}"
            )
        labels.append(OriginLabel.from_code(row["label"]))
    return labels


def _cmd_tag(v: dict[str, object]) -> int:
    labels = _read_labels(str(v["records"]))
    examples = read_parallel(str(v["source"]), str(v["target"]))
    tagged = bias_tag(examples, labels, TagPolicy(str(v["tag_token"])))
    write_parallel(tagged, str(v["out_source"]), str(v["out_target"]))
    return 0


def _cmd_split_finetune(v: dict[str, object]) -> int:
    if bool(v["records"]) == bool(v["selection"]):
        raise UsageError("pass exactly one of --records or --selection")
    examples = list(read_parallel(str(v["source"]), str(v["target"])))
    if v["records"]:
        selection: object = _read_records(str(v["records"]))
    else:
        path = str(v["selection"])
        selection = {
            _parse_line_no(row, path)
            for row in read_tsv(path, ["line_no", "group"])
            if row["group"] == "most_source"
        }
    pretrain, finetune, manifest = finetune_split(examples, selection)
    write_parallel(pretrain, str(v["out_pretrain_source"]), str(v["out_pretrain_target"]))
    write_parallel(finetune, str(v["out_finetune_source"]), str(v["out_finetune_target"]))
    _write_report(manifest_to_tsv(manifest), v["manifest"])
    return 0


def _cmd_merge_augment(v: dict[str, object]) -> int:
    authentic = list(read_parallel(str(v["authentic_source"]), str(v["authentic_target"])))
    synthetic = list(read_parallel(str(v["synthetic_source"]), str(v["synthetic_target"])))
    policy = TagPolicy(str(v["tag_token"])) if v["tag_token"] else None
    seed = None if v["seed"] is None else int(v["seed"])
    merged, manifest = merge_augment(authentic, synthetic, policy, seed)
    write_parallel(merged, str(v["out_source"]), str(v["out_target"]))
    _write_report(manifest_to_tsv(manifest), v["manifest"])
    return 0


# -- wiring -----------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    opts: list[Opt]
    handler: Callable[[dict[str, object]], int]


_OUTPUT = Opt("--output", kind="path", help="output file (default: stdout)")

_COMMANDS = [
    _Command(
        "train-lm",
        "train an n-gram model on a monolingual corpus",
        [
            Opt("--input", kind="path", required=True, help="training corpus"),
            Opt("--output", kind="path", required=True, help="model file to write"),
            Opt("--order", kind="int", default=4),
            Opt("--min-count", kind="int", default=2),
        ],
        _cmd_train_lm,
    ),
    _Command(
        "perplexity",
        "perplexity of a model on a corpus",
        [
            Opt("--model", kind="path", required=True),
            Opt("--input", kind="path", required=True),
            _OUTPUT,
        ],
        _cmd_perplexity,
    ),
    _Command(
        "score-pairs",
        "score parallel pairs by the two-model log-probability difference",
        [
            Opt("--source-model", kind="path", required=True),
            Opt("--target-model", kind="path", required=True),
            Opt("--source", kind="path", required=True),
            Opt("--target", kind="path", required=True),
            Opt("--offset-c", kind="float", default=0.0),
            Opt("--length-normalize", kind="bool", default=False),
            _OUTPUT,
        ],
        _cmd_score_pairs,
    ),
    _Command(
        "tune-offset",
        "pick the offset maximizing macro-F1 on scored, gold-labeled pairs",
        [
            Opt("--input", kind="path", required=True, help="TSV with score and gold columns"),
            _OUTPUT,
        ],
        _cmd_tune_offset,
    ),
    _Command(
        "classify",
        "apply an offset to raw scores and label each line",
        [
            Opt("--scores", kind="path", required=True, help="TSV with line_no and score"),
            Opt("--offset-c", kind="float", default=0.0),
            _OUTPUT,
        ],
        _cmd_classify,
    ),
    _Command(
        "select",
        "take the most extreme lines from both ends of the score ranking",
        [
            Opt("--records", kind="path", required=True, help="classify output TSV"),
            Opt("--ratio", kind="float", required=True, help="percent per side, in (0, 50]"),
            _OUTPUT,
        ],
        _cmd_select,
    ),
    _Command(
        "jsdiv",
        "Jensen-Shannon divergence between two line partitions",
        [
            Opt("--source", kind="path", required=True),
            Opt("--target", kind="path", required=True),
            Opt("--side", choices=("source", "target"), required=True),
            Opt("--source-pos", kind="path"),
            Opt("--target-pos", kind="path"),
            Opt("--split", kind="path", required=True, help="TSV with line_no and group"),
            Opt("--word-classes", kind="path", help="section file with [content] tags"),
            _OUTPUT,
        ],
        _cmd_jsdiv,
    ),
    _Command(
        "random-split",
        "deterministic random partition of line numbers",
        [
            Opt("--count", kind="int", required=True),
            Opt("--fraction", kind="float", required=True),
            Opt("--seed", kind="int", required=True),
            _OUTPUT,
        ],
        _cmd_random_split,
    ),
    _Command(
        "fmeasure",
        "bag-of-words F-measure per POS bucket",
        [
            Opt("--hyp", kind="path", required=True),
            Opt("--ref", kind="path", required=True),
            Opt("--ref-pos", kind="path", required=True),
            Opt("--buckets", kind="path", help="section file naming buckets"),
            _OUTPUT,
        ],
        _cmd_fmeasure,
    ),
    _Command(
        "abstract",
        "replace content words by rendered POS tags",
        [
            Opt("--input", kind="path", required=True),
            Opt("--pos", kind="path", required=True),
            Opt("--output", kind="path", required=True),
            Opt("--word-classes", kind="path"),
            Opt("--tag-prefix", default=""),
            Opt("--tag-suffix", default=""),
        ],
        _cmd_abstract,
    ),
    _Command(
        "fluency",
        "perplexity report over plain and abstracted system output",
        [
            Opt("--input", kind="path", required=True, help="system output corpus"),
            Opt("--pos", kind="path", required=True),
            Opt("--plain-lm", kind="path", required=True),
            Opt("--abstracted-lm", kind="path", required=True),
            Opt("--word-classes", kind="path"),
            Opt("--tag-prefix", default=""),
            Opt("--tag-suffix", default=""),
            Opt("--baseline", kind="path", help="earlier fluency TSV to diff against"),
            _OUTPUT,
        ],
        _cmd_fluency,
    ),
    _Command(
        "tag",
        "prepend an origin tag to target-original source sides",
        [
            Opt("--source", kind="path", required=True),
            Opt("--target", kind="path", required=True),
            Opt("--records", kind="path", required=True, help="classify output TSV"),
            Opt("--tag-token", default=DEFAULT_ORIGIN_TAG),
            Opt("--out-source", kind="path", required=True),
            Opt("--out-target", kind="path", required=True),
        ],
        _cmd_tag,
    ),
    _Command(
        "split-finetune",
        "write the full corpus plus its source-original subset",
        [
            Opt("--source", kind="path", required=True),
            Opt("--target", kind="path", required=True),
            Opt("--records", kind="path", help="classify output TSV"),
            Opt("--selection", kind="path", help="select output TSV"),
            Opt("--out-pretrain-source", kind="path", required=True),
            Opt("--out-pretrain-target", kind="path", required=True),
            Opt("--out-finetune-source", kind="path", required=True),
            Opt("--out-finetune-target", kind="path", required=True),
            Opt("--manifest", kind="path", required=True),
        ],
        _cmd_split_finetune,
    ),
    _Command(
        "merge-augment",
        "merge authentic and synthetic corpora with manifest",
        [
            Opt("--authentic-source", kind="path", required=True),
            Opt("--authentic-target", kind="path", required=True),
            Opt("--synthetic-source", kind="path", required=True),
            Opt("--synthetic-target", kind="path", required=True),
            Opt("--tag-token", help=f"tag synthetic source sides (e.g. {DEFAULT_SYNTHETIC_TAG})"),
            Opt("--seed", kind="int", help="shuffle the merged order reproducibly"),
            Opt("--out-source", kind="path", required=True),
            Opt("--out-target", kind="path", required=True),
            Opt("--manifest", kind="path", required=True),
        ],
        _cmd_merge_augment,
    ),
]


def _build_parser() -> _Parser:
    parser = _Parser(prog="covbias", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION_LINE)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        for opt in command.opts + _COMMON:
            if opt.kind == "bool":
                sub.add_argument(
                    opt.flag, dest=opt.dest, action="store_const", const="true",
                    default=None, help=opt.help,
                )
            else:
                sub.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help)
        sub.set_defaults(_command=command)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = _build_parser()
        args = parser.parse_args(list(argv))
        command: _Command = args._command
        values = _resolve(args, command.opts + _COMMON)
        threads = int(values["threads"])
        if threads < 1:
            raise UsageError(f"--threads must be >= 1, got {threads}")
        return command.handler(values)
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0
    except UsageError as exc:
        message = str(exc)
        if not message.startswith("covbias"):
            message = f"covbias: {message}"
        print(message, file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"covbias: error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"covbias: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"covbias: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
