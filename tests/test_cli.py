import ast
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import covbias
from covbias import cli, dataprep, lm
from covbias import (
    NGramModel,
    OriginLabel,
    divergence_report,
    fluency_report,
    perplexity,
    random_split,
    read_parallel,
    select_extremes,
    tune_offset,
    word_fmeasure,
    write_parallel,
)
from covbias.cli import VERSION_LINE, main
from covbias.corpus import read_tagged
from covbias.fileio import fmt_float, format_tsv
from oracles import fmeasure_pairs
from synthbed import make_testbed


@pytest.fixture
def corpus(tmp_path):
    """A small workspace: two monolingual files and a parallel pair."""
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text(
        "der hund läuft\nder hund schläft\ndie katze läuft\ndie katze schläft\n",
        encoding="utf-8",
    )
    tgt.write_text(
        "the dog runs\nthe dog sleeps\nthe cat runs\nthe cat sleeps\n",
        encoding="utf-8",
    )
    return tmp_path


def _train(corpus, name, input_name, *extra):
    model = corpus / name
    code = main(
        [
            "train-lm",
            "--input",
            str(corpus / input_name),
            "--output",
            str(model),
            "--order",
            "2",
            "--min-count",
            "1",
            *extra,
        ]
    )
    assert code == 0
    return model


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_parse_against_the_parser():
    text = README.read_text(encoding="utf-8")
    table = re.findall(r"^\| `([a-z-]+)` \|", text, re.M)
    assert sorted(table) == sorted(cli._COMMANDS)
    command_lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["covbias"]:
                command_lines.append(words[1:])
    assert len(command_lines) >= len(table)
    parser = cli._build_parser()
    for argv in command_lines:
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README: covbias {shlex.join(argv)}: {exc}")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_subcommand_prints_its_help(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: covbias {command} ")


def test_version_line(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == VERSION_LINE
    assert VERSION_LINE == f"covbias {covbias.__version__} (model format {lm.MODEL_FORMAT_VERSION})"


def test_tag_token_defaults_are_the_dataprep_constants(capsys):
    args = cli._build_parser().parse_args(
        ["tag", "--source", "s", "--target", "t", "--records", "r", "--out-source", "a",
         "--out-target", "b"]
    )
    assert args.tag_token == dataprep.DEFAULT_ORIGIN_TAG
    assert main(["merge-augment", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"tag synthetic source sides (e.g. {dataprep.DEFAULT_SYNTHETIC_TAG})" in help_text


def test_each_shared_constant_is_assigned_once_in_the_package():
    names = {"MODEL_FORMAT_VERSION", "DEFAULT_ORIGIN_TAG", "DEFAULT_SYNTHETIC_TAG", "__version__"}
    assigned = []
    for path in sorted(Path(covbias.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                assigned += [t.id for t in node.targets if getattr(t, "id", None) in names]
    assert sorted(assigned) == sorted(names)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "covbias" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_a_usage_error(corpus, capsys):
    assert main(["train-lm", "--input", str(corpus / "src.txt")]) == 1
    assert "--output" in capsys.readouterr().err


def test_bad_flag_value_is_a_usage_error(corpus, capsys):
    code = main(
        [
            "train-lm",
            "--input",
            str(corpus / "src.txt"),
            "--output",
            str(corpus / "m.lm"),
            "--order",
            "two",
        ]
    )
    assert code == 1
    assert "--order" in capsys.readouterr().err


def test_out_of_range_order_is_a_usage_error(corpus, capsys):
    code = main(
        [
            "train-lm",
            "--input",
            str(corpus / "src.txt"),
            "--output",
            str(corpus / "m.lm"),
            "--order",
            "9",
        ]
    )
    assert code == 1


def test_missing_input_file_is_a_data_error(corpus, capsys):
    code = main(
        [
            "train-lm",
            "--input",
            str(corpus / "absent.txt"),
            "--output",
            str(corpus / "m.lm"),
        ]
    )
    assert code == 2
    assert "covbias: error:" in capsys.readouterr().err


def test_undecodable_input_is_a_data_error(corpus):
    bad = corpus / "bad.txt"
    bad.write_bytes(b"\xff\xfe invalid \xff\n")
    code = main(
        ["train-lm", "--input", str(bad), "--output", str(corpus / "m.lm")]
    )
    assert code == 2


def test_train_and_perplexity_match_the_library(corpus, capsys):
    model_path = _train(corpus, "src.lm", "src.txt")
    assert main(["perplexity", "--model", str(model_path), "--input", str(corpus / "src.txt")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "metric\tvalue"
    name, value = out[1].split("\t")
    assert name == "perplexity"
    model = NGramModel.load(str(model_path))
    sentences = [tuple(l.split()) for l in (corpus / "src.txt").read_text().splitlines()]
    expected = perplexity(model, sentences)
    assert float(value) == expected  # 17 significant digits round-trip exactly


def test_score_pairs_report(corpus, capsys):
    src_lm = _train(corpus, "src.lm", "src.txt")
    tgt_lm = _train(corpus, "tgt.lm", "tgt.txt")
    code = main(
        [
            "score-pairs",
            "--source-model",
            str(src_lm),
            "--target-model",
            str(tgt_lm),
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(corpus / "tgt.txt"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "line_no\tscore\tlabel"
    assert len(lines) == 5
    source_model = NGramModel.load(str(src_lm))
    target_model = NGramModel.load(str(tgt_lm))
    for line_no, (line, pair) in enumerate(
        zip(lines[1:], read_parallel(str(corpus / "src.txt"), str(corpus / "tgt.txt"))), 1
    ):
        no, score, label = line.split("\t")
        assert int(no) == line_no
        expected = (
            source_model.logprob(pair.source).total_logprob
            - target_model.logprob(pair.target).total_logprob
        )
        assert float(score) == expected
        assert label == ("S" if expected > 0 else "T")


def test_threads_do_not_change_the_output(corpus):
    src_lm = _train(corpus, "src.lm", "src.txt")
    tgt_lm = _train(corpus, "tgt.lm", "tgt.txt")
    outputs = []
    for threads in ("1", "4"):
        out = corpus / f"scores{threads}.tsv"
        code = main(
            [
                "score-pairs",
                "--source-model",
                str(src_lm),
                "--target-model",
                str(tgt_lm),
                "--source",
                str(corpus / "src.txt"),
                "--target",
                str(corpus / "tgt.txt"),
                "--output",
                str(out),
                "--threads",
                threads,
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_zero_threads_is_a_usage_error(corpus):
    assert (
        main(
            [
                "perplexity",
                "--model",
                str(corpus / "m.lm"),
                "--input",
                str(corpus / "src.txt"),
                "--threads",
                "0",
            ]
        )
        == 1
    )


def test_a_thread_count_that_is_not_an_integer_is_a_usage_error(corpus, capsys):
    argv = ["perplexity", "--model", "m.lm", "--input", str(corpus / "src.txt")]
    assert main([*argv, "--threads", "abc"]) == 1
    assert capsys.readouterr().err == (
        "covbias perplexity: argument --threads: must be an integer >= 1, got 'abc'\n"
    )


def test_reruns_are_byte_identical(corpus):
    one = _train(corpus, "a.lm", "src.txt").read_bytes()
    two = _train(corpus, "b.lm", "src.txt").read_bytes()
    assert one == two


def test_failed_runs_leave_existing_outputs_untouched(corpus):
    out = corpus / "scores.tsv"
    out.write_text("precious\n", encoding="utf-8")
    short = corpus / "short.txt"
    short.write_text("one line\n", encoding="utf-8")
    src_lm = _train(corpus, "src.lm", "src.txt")
    tgt_lm = _train(corpus, "tgt.lm", "tgt.txt")
    code = main(
        [
            "score-pairs",
            "--source-model",
            str(src_lm),
            "--target-model",
            str(tgt_lm),
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(short),  # line count mismatch -> data error mid-stream
            "--output",
            str(out),
        ]
    )
    assert code == 2
    assert out.read_text(encoding="utf-8") == "precious\n"
    assert not list(corpus.glob(".tmp-*"))


def test_config_file_supplies_defaults_and_flags_win(corpus):
    config = corpus / "train.cfg"
    config.write_text(
        "# training defaults\norder = 2\nmin_count = 1\n", encoding="utf-8"
    )
    via_config = corpus / "via_config.lm"
    assert (
        main(
            [
                "train-lm",
                "--input",
                str(corpus / "src.txt"),
                "--output",
                str(via_config),
                "--config",
                str(config),
            ]
        )
        == 0
    )
    via_flags = _train(corpus, "via_flags.lm", "src.txt")
    assert via_config.read_bytes() == via_flags.read_bytes()

    # an explicit flag beats the config value
    config3 = corpus / "order3.cfg"
    config3.write_text("order = 3\nmin_count = 1\n", encoding="utf-8")
    overridden = corpus / "overridden.lm"
    assert (
        main(
            [
                "train-lm",
                "--input",
                str(corpus / "src.txt"),
                "--output",
                str(overridden),
                "--order",
                "2",
                "--config",
                str(config3),
            ]
        )
        == 0
    )
    assert overridden.read_bytes() == via_flags.read_bytes()


def test_unknown_or_malformed_config_keys_are_usage_errors(corpus, capsys):
    bad_key = corpus / "bad_key.cfg"
    bad_key.write_text("ordre = 2\n", encoding="utf-8")
    args = [
        "train-lm",
        "--input",
        str(corpus / "src.txt"),
        "--output",
        str(corpus / "m.lm"),
    ]
    assert main(args + ["--config", str(bad_key)]) == 1
    assert "ordre" in capsys.readouterr().err
    malformed = corpus / "malformed.cfg"
    malformed.write_text("order: 2\n", encoding="utf-8")
    assert main(args + ["--config", str(malformed)]) == 1
    capsys.readouterr()
    repeated = corpus / "repeated.cfg"
    repeated.write_text("order = 2\norder = 3\n", encoding="utf-8")
    assert main(args + ["--config", str(repeated)]) == 1
    assert capsys.readouterr().err == (
        f"covbias: {repeated}: line 2: key 'order' is given more than once\n"
    )
    assert not (corpus / "m.lm").exists()


_SCORE_PAIRS = ["score-pairs", "--source-model", "src.lm", "--target-model", "tgt.lm",
                "--source", "src.txt", "--target", "tgt.txt"]
_JSDIV = ["jsdiv", "--source", "src.txt", "--target", "tgt.txt", "--source-pos", "src.pos",
          "--split", "split.tsv"]


@pytest.mark.parametrize(
    "config_flag, argv, config, same_as",
    [
        ("--config", _JSDIV, "side = bogus", 1),
        ("--config", _SCORE_PAIRS, "length_normalize = maybe", 1),
        ("--config", _SCORE_PAIRS, "offset_c = nan", 1),
        ("--config", _SCORE_PAIRS, "threads = 0", 1),
        ("--config", _SCORE_PAIRS, "length_normalize = yes\noutput = cfg.out", ["--length-normalize"]),
        ("--config", _SCORE_PAIRS, "length_normalize = no\noutput = cfg.out", []),
        ("--config", _SCORE_PAIRS, "offset_c = -0.5\noutput = cfg.out", ["--offset-c", "-0.5"]),
        ("--config", ["train-lm", "--input", "src.txt", "--order", "2"], "output = cfg.out", []),
        ("--conf", _SCORE_PAIRS, "offset_c = 2\noutput = cfg.out", ["--offset-c", "2"]),
    ],
)
def test_config_values_get_the_checks_their_flags_get(
    corpus, monkeypatch, config_flag, argv, config, same_as
):
    """A config value is refused (exit 1) or gives the bytes of the flags in same_as."""
    monkeypatch.chdir(corpus)
    _train(corpus, "src.lm", "src.txt")
    _train(corpus, "tgt.lm", "tgt.txt")
    (corpus / "src.pos").write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    (corpus / "split.tsv").write_text("line_no\tgroup\n1\ta\n2\ta\n3\tb\n4\tb\n", encoding="utf-8")
    (corpus / "run.cfg").write_text(config + "\n", encoding="utf-8")
    code = main(argv + [config_flag, "run.cfg"])
    if same_as == 1:
        assert code == 1
        return
    assert code == 0
    assert main(argv + same_as + ["--output", "flags.out"]) == 0
    assert (corpus / "cfg.out").read_bytes() == (corpus / "flags.out").read_bytes()


def test_tune_offset_reads_score_gold_tsv(corpus, capsys):
    table = corpus / "scored.tsv"
    table.write_text(
        "score\tgold\n-3\tT\n-2\tT\n1\tS\n4\tS\n", encoding="utf-8"
    )
    assert main(["tune-offset", "--input", str(table)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c\tmacro_f1"
    c, macro_f1 = map(float, lines[1].split("\t"))
    S, T = OriginLabel.SOURCE_ORIGINAL, OriginLabel.TARGET_ORIGINAL
    assert (c, macro_f1) == tune_offset(
        [(-3.0, T), (-2.0, T), (1.0, S), (4.0, S)]
    )
    assert (c, macro_f1) == (0.5, 1.0)


def test_tune_offset_single_class_is_a_data_error(corpus):
    table = corpus / "scored.tsv"
    table.write_text("score\tgold\n1\tS\n2\tS\n", encoding="utf-8")
    assert main(["tune-offset", "--input", str(table)]) == 2


def test_tune_offset_names_the_line_of_a_bad_gold_code(corpus, capsys):
    table = corpus / "t.tsv"
    table.write_text("score\tgold\n-1.0\tT\n2.0\tX\n", encoding="utf-8")
    out = corpus / "c.tsv"
    assert main(["tune-offset", "--input", str(table), "--output", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"covbias: error: {table}: line 3: unknown origin label 'X', expected S or T\n"
    )


def test_classify_applies_the_offset(corpus, capsys):
    scores = corpus / "scores.tsv"
    scores.write_text("line_no\tscore\n1\t-1.0\n2\t2.0\n", encoding="utf-8")
    assert main(["classify", "--scores", str(scores), "--offset-c", "1.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "line_no\tscore\tlabel",
        "1\t0.5\tS",
        "2\t3.5\tS",
    ]


def test_select_groups_extremes(corpus, capsys):
    records = corpus / "records.tsv"
    records.write_text(
        "line_no\tscore\tlabel\n1\t5.0\tS\n2\t4.0\tS\n3\t-1.0\tT\n4\t-2.0\tT\n",
        encoding="utf-8",
    )
    assert main(["select", "--records", str(records), "--ratio", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "line_no\tgroup",
        "1\tmost_source",
        "2\tmost_source",
        "3\tmost_target",
        "4\tmost_target",
    ]


def _reading_report(corpus, command, table):
    """argv of a run that reads the report table, and every file the run would write."""
    pairs = ["--source", str(corpus / "src.txt"), "--target", str(corpus / "tgt.txt")]
    outs = [str(corpus / f"out{i}") for i in range(5)]
    split = ["--out-pretrain-source", outs[0], "--out-pretrain-target", outs[1]]
    split += ["--out-finetune-source", outs[2], "--out-finetune-target", outs[3]]
    split += ["--manifest", outs[4]]
    output = ["--output", outs[0]]
    pos = corpus / "src.pos"
    pos.write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    argv = {
        "classify": ["classify", "--scores", table, *output],
        "select": ["select", "--records", table, "--ratio", "50", *output],
        "tag": [
            "tag", *pairs, "--records", table, "--out-source", outs[0], "--out-target", outs[1]
        ],
        "split-finetune-records": ["split-finetune", *pairs, "--records", table, *split],
        "jsdiv-split": [
            "jsdiv", *pairs, "--side", "source", "--source-pos", str(pos), "--split", table, *output
        ],
        "split-finetune-selection": ["split-finetune", *pairs, "--selection", table, *split],
        "tune-offset": ["tune-offset", "--input", table, *output],
    }
    if command == "fluency":
        model = str(_train(corpus, "plain.lm", "src.txt"))
        return [
            "fluency", "--input", str(corpus / "src.txt"), "--pos", str(pos), "--plain-lm", model,
            "--abstracted-lm", model, "--baseline", table, *output,
        ], outs
    return argv[command], outs


_REPEATED_RECORD = "line_no\tscore\tlabel\n1\t5\tS\n1\t-5\tT\n2\t1\tS\n3\t-1\tT\n"
_REPEATED_GROUP = (
    "line_no\tgroup\n1\tmost_source\n1\tmost_target\n2\tmost_source\n3\tmost_target\n"
)


@pytest.mark.parametrize(
    "command, rows",
    [
        pytest.param("select", _REPEATED_RECORD, id="select"),
        pytest.param("classify", _REPEATED_RECORD, id="classify"),
        pytest.param("tag", _REPEATED_RECORD, id="tag"),
        pytest.param("split-finetune-records", _REPEATED_RECORD, id="split-finetune-records"),
        pytest.param("jsdiv-split", _REPEATED_GROUP, id="jsdiv-split"),
        pytest.param("split-finetune-selection", _REPEATED_GROUP, id="split-finetune-selection"),
    ],
)
def test_a_repeated_line_no_is_a_data_error(corpus, capsys, command, rows):
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == (
        f"covbias: error: {table}: line 3: line_no 1 is repeated\n"
    )


_HUGE = sys.maxsize + 1
_HUGE_RECORD = f"line_no\tscore\tlabel\n1\t5\tS\n2\t-5\tT\n3\t1\tS\n{_HUGE}\t-1\tT\n"
_HUGE_GROUP = (
    f"line_no\tgroup\n1\tmost_source\n2\tmost_target\n3\tmost_source\n{_HUGE}\tmost_target\n"
)


@pytest.mark.parametrize(
    "command, rows",
    [
        pytest.param("select", _HUGE_RECORD, id="select"),
        pytest.param("classify", _HUGE_RECORD, id="classify"),
        pytest.param("tag", _HUGE_RECORD, id="tag"),
        pytest.param("split-finetune-records", _HUGE_RECORD, id="split-finetune-records"),
        pytest.param("jsdiv-split", _HUGE_GROUP, id="jsdiv-split"),
        pytest.param("split-finetune-selection", _HUGE_GROUP, id="split-finetune-selection"),
    ],
)
def test_a_line_no_above_sys_maxsize_is_a_data_error(corpus, capsys, command, rows):
    """Every reader of either report kind refuses it on its last row and writes nothing."""
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    problem = f"line_no must be at most {sys.maxsize}, got {_HUGE}"
    assert capsys.readouterr() == ("", f"covbias: error: {table}: line 5: {problem}\n")


@pytest.mark.parametrize(
    "command, rows, column",
    [
        ("classify", "line_no\tscore\tscore\n1\t5\t-5\n", "score"),
        ("select", "line_no\tscore\tline_no\n1\t5\t2\n2\t-5\t1\n", "line_no"),
        ("tune-offset", "score\tgold\tgold\n-1\tT\tS\n1\tS\tT\n", "gold"),
        ("jsdiv-split", "line_no\tgroup\tgroup\n1\ta\tb\n2\tb\ta\n", "group"),
    ],
    ids=["classify", "select", "tune-offset", "jsdiv-split"],
)
def test_a_column_named_twice_in_the_header_is_a_data_error(corpus, capsys, command, rows, column):
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == (
        f"covbias: error: {table}: the header names column {column!r} twice\n"
    )


@pytest.mark.parametrize("command", ["classify", "select", "tag", "split-finetune-records"])
def test_a_label_that_disagrees_with_its_score_is_a_data_error(corpus, capsys, command):
    """A label is label_for(score) to every reader: 5.0 is source-original."""
    table = corpus / "records.tsv"
    table.write_text(
        "line_no\tscore\tlabel\n1\t5.0\tT\n2\t-1.0\tT\n3\t1.0\tS\n4\t-2.0\tT\n",
        encoding="utf-8",
    )
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == (
        f"covbias: error: {table}: line 2: label 'T' disagrees with score 5.0,"
        " which is labelled S\n"
    )


@pytest.mark.parametrize(
    "command, rows, line, fault",
    [
        ("classify", "line_no\tscore\n1\t1.0\nx\t2.0\n", 3, "bad line_no 'x'"),
        ("select", "line_no\tscore\n0\t1.0\n", 2, "line_no must be >= 1, got 0"),
        ("jsdiv-split", "line_no\tgroup\n1\ta\n-1\tb\n", 3, "line_no must be >= 1, got -1"),
        ("classify", "line_no\tscore\n1\tabc\n", 2, "bad score value 'abc'"),
        (
            "split-finetune-records",
            "line_no\tscore\n1\t1.0\n2\tnan\n",
            3,
            "score value 'nan' is not finite",
        ),
        ("tune-offset", "score\tgold\n-1\tT\nabc\tS\n", 3, "bad score value 'abc'"),
        ("tune-offset", "score\tgold\n-1\tT\ninf\tS\n", 3, "score value 'inf' is not finite"),
        ("tag", "line_no\tscore\n2\t1.0\n1\t-1.0\n", 2, "expected line_no 1 in order, got 2"),
        (
            "split-finetune-selection",
            "line_no\tgroup\n1\tmost_source\n2\ta\n",
            3,
            "group must be most_source or most_target, got 'a'",
        ),
        (
            "fluency",
            "level\tppl\nplain\t3\nbogus\t7\n",
            3,
            "level must be plain or abstracted, got 'bogus'",
        ),
        ("fluency", "level\tppl\nplain\t3\nplain\t4\n", 3, "level 'plain' is given more than once"),
        ("fluency", "level\tppl\nplain\t3\nabstracted\t0.5\n", 3, "ppl value '0.5' is below 1"),
        ("fluency", "level\tppl\nplain\tabc\n", 2, "bad ppl value 'abc'"),
        ("fluency", "level\tppl\nplain\t-inf\n", 2, "ppl value '-inf' is not finite"),
    ],
    ids=[
        "bad-line_no", "line_no-0", "line_no-negative", "bad-score", "nan-score",
        "tune-offset-bad-score", "tune-offset-inf-score", "tag-out-of-order",
        "foreign-group", "bad-level", "repeated-level", "ppl-below-1", "bad-ppl", "inf-ppl",
    ],
)
def test_a_report_row_fault_names_the_file_and_the_line(
    corpus, capsys, command, rows, line, fault
):
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == f"covbias: error: {table}: line {line}: {fault}\n"


@pytest.mark.parametrize(
    "command, rows, fault",
    [
        ("classify", "", "empty TSV, expected a header row"),
        ("select", "line_no\tlabel\n1\tS\n", "missing required column(s) score"),
        ("jsdiv-split", "line_no\tgroup\n1\ta\n2\ta\n", "expected exactly 2 group values, found 1"),
        ("fluency", "level\tppl\nplain\t3\n", "missing level row(s): abstracted"),
    ],
    ids=["empty", "missing-column", "one-group", "missing-level"],
)
def test_a_report_file_fault_names_the_file(corpus, capsys, command, rows, fault):
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == f"covbias: error: {table}: {fault}\n"


@pytest.mark.parametrize(
    "command, rows, fault",
    [
        ("classify", "line_no\tscore\n1\t1.0\nx\t2.0\n3\t1.0\n4\n", "bad line_no 'x'"),
        ("jsdiv-split", "line_no\tgroup\n1\ta\n0\tb\n3\n", "line_no must be >= 1, got 0"),
        ("tune-offset", "score\tgold\n1\tS\n2\tX\n3\n", "unknown origin label 'X', expected S or T"),
        ("tag", "line_no\tscore\n2\t1.0\n1\tabc\n", "expected line_no 1 in order, got 2"),
        (
            "fluency",
            "level\tppl\nplain\t3\nplain\t2\nabstracted\n",
            "level 'plain' is given more than once",
        ),
    ],
    ids=["classify", "jsdiv-split", "tune-offset", "tag", "fluency"],
)
def test_the_first_faulty_line_is_the_one_named(corpus, capsys, command, rows, fault):
    """Every report is read in one pass, so a fault on a later line never hides line 3."""
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    line = 2 if command == "tag" else 3
    assert capsys.readouterr().err == f"covbias: error: {table}: line {line}: {fault}\n"


def _round_trip(path, lines, read):
    """(the report's text, what read makes of it) for the lines of a report written to path."""
    text = "".join(lines)
    path.write_text(text, encoding="utf-8")
    return text, read(str(path))


_ROUND_TRIP = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_LINE_NO = st.integers(1, sys.maxsize)  # every line_no a report may hold


@_ROUND_TRIP
@given(
    records=st.lists(
        st.tuples(_LINE_NO, st.floats(allow_nan=False, allow_infinity=False)),
        max_size=20,
        unique_by=lambda record: record[0],
    )
)
def test_scored_records_round_trip(tmp_path, records):
    """write -> read gives back every (line_no, score) bit for bit; read -> write the bytes."""
    lines = cli._labelled_scores(records)
    text, read = _round_trip(tmp_path / "records.tsv", lines, cli._read_scores)
    assert [(n, x.hex()) for n, x in read] == [(n, x.hex()) for n, x in records]
    assert "".join(cli._labelled_scores(read)) == text


def _group_lines(groups):
    """A line-groups report as select writes one: each group in turn, its lines ascending."""
    rows = ((str(n), group) for group, lines in groups.items() for n in sorted(lines))
    return format_tsv(cli._GROUP_HEADER, rows)


@_ROUND_TRIP
@given(
    members=st.dictionaries(
        _LINE_NO,
        st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=["Cs"]), max_size=4),
        max_size=20,
    )
)
def test_line_groups_round_trip(tmp_path, members):
    """write -> read gives back every group's line numbers; read -> write the bytes."""
    groups = {}
    for line_no, group in members.items():
        groups.setdefault(group, set()).add(line_no)
    text, read = _round_trip(tmp_path / "groups.tsv", _group_lines(groups), cli._read_groups)
    assert read == groups
    assert list(read) == list(groups)  # groups in file order
    assert "".join(_group_lines(read)) == text


@_ROUND_TRIP
@given(
    ppl=st.tuples(*[st.floats(min_value=1, allow_infinity=False)] * 2),
    baseline=st.none() | st.tuples(*[st.floats(min_value=1, max_value=1e300)] * 2),
)
def test_the_fluency_table_round_trips(tmp_path, ppl, baseline):
    """write -> read gives back each level's ppl, with or without a diff; read -> write the bytes."""
    if baseline is not None:
        baseline = dict(zip(cli._LEVELS, baseline))
    lines = cli._fluency_lines(ppl, baseline)
    text, read = _round_trip(tmp_path / "fluency.tsv", lines, cli._read_fluency_baseline)
    assert [read[level].hex() for level in cli._LEVELS] == [x.hex() for x in ppl]
    assert "".join(cli._fluency_lines(read.values(), baseline)) == text


@pytest.mark.parametrize(
    "command, rows",
    [
        ("split-finetune-selection", "line_no\tgroup\n"),
        ("split-finetune-selection", "line_no\tgroup\n2\tmost_target\n4\tmost_target\n"),
        ("split-finetune-records", "line_no\tscore\n1\t-1.0\n2\t0.0\n"),
    ],
    ids=["header-only", "most_target-only", "no-positive-score"],
)
def test_split_finetune_refuses_to_fine_tune_on_no_line(corpus, capsys, command, rows):
    table = corpus / "report.tsv"
    table.write_text(rows, encoding="utf-8")
    argv, outs = _reading_report(corpus, command, str(table))
    assert main(argv) == 2
    assert not any(os.path.exists(out) for out in outs)
    assert capsys.readouterr().err == (
        f"covbias: error: {table}: no source-original line to fine-tune on\n"
    )


@pytest.mark.parametrize("ratio, rows", [("10", 2), ("50", 1), ("0.5", 199)])
def test_select_refuses_to_select_no_line(corpus, capsys, ratio, rows):
    """floor(ratio * rows / 100) = 0 would write a header-only selection."""
    records = corpus / "records.tsv"
    body = "".join(f"{n}\t{n - 1.5}\n" for n in range(1, rows + 1))
    records.write_text("line_no\tscore\n" + body, encoding="utf-8")
    out = corpus / "split.tsv"
    argv = ["select", "--records", str(records), "--ratio", ratio, "--output", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"covbias: error: {records}: --ratio {float(ratio)} of {rows} records selects no line\n"
    )


def test_select_ratio_out_of_range_is_a_usage_error(corpus):
    records = corpus / "records.tsv"
    records.write_text("line_no\tscore\n1\t5.0\n", encoding="utf-8")
    assert main(["select", "--records", str(records), "--ratio", "60"]) == 1


def test_random_split_report_matches_library(corpus, capsys):
    assert (
        main(["random-split", "--count", "10", "--fraction", "0.5", "--seed", "7"]) == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "line_no\tgroup"
    part_a, part_b = random_split(10, 0.5, 7)
    got_a = {int(l.split("\t")[0]) for l in lines[1:] if l.split("\t")[1] == "a"}
    got_b = {int(l.split("\t")[0]) for l in lines[1:] if l.split("\t")[1] == "b"}
    assert (got_a, got_b) == (part_a, part_b)


def test_random_split_validates_fraction_and_count(corpus):
    assert main(["random-split", "--count", "10", "--fraction", "1.5", "--seed", "1"]) == 1
    assert main(["random-split", "--count", "0", "--fraction", "0.5", "--seed", "1"]) == 1


def test_random_split_that_puts_no_line_in_group_a_is_a_usage_error(tmp_path, capsys):
    # floor(0.1 * 2) = 0: every line would land in group b, a split jsdiv refuses
    output = tmp_path / "split.tsv"
    argv = ["random-split", "--count", "2", "--fraction", "0.1", "--seed", "1"]
    assert main(argv + ["--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert "--fraction 0.1" in err and "--count 2" in err
    assert not output.exists()
    # floor(0.1 * 10) = 1 line in group a is enough
    assert main(["random-split", "--count", "10", "--fraction", "0.1", "--seed", "1"]) == 0
    groups = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert groups.count("a") == 1 and groups.count("b") == 9


_HUGE_COUNT = str(sys.maxsize * 10)
# argv and stderr; tag --tag-token "a b" is test_an_empty_tag_token_is_a_usage_error[space]
_BAD_FLAG_VALUES = {
    "train-lm-order": (
        ["train-lm", "--input", "src.txt", "--order", "7"], "order must be in 1..6, got 7"
    ),
    "train-lm-min-count": (
        ["train-lm", "--input", "src.txt", "--min-count", "0"], "min_count must be >= 1, got 0"
    ),
    "abstract-tag-prefix": (
        ["abstract", "--input", "src.txt", "--pos", "src.pos", "--tag-prefix", "a b"],
        "tag prefix/suffix must not contain whitespace",
    ),
    "random-split-count": (
        ["random-split", "--count", _HUGE_COUNT, "--fraction", "0.5", "--seed", "1"],
        f"--count must be at most {sys.maxsize}, got {_HUGE_COUNT}",
    ),
}


@pytest.mark.parametrize("argv, message", _BAD_FLAG_VALUES.values(), ids=_BAD_FLAG_VALUES)
def test_a_flag_value_the_library_refuses_is_a_usage_error(
    corpus, monkeypatch, capsys, argv, message
):
    # the ValueError branch of main gets only flag values: one line, exit 1, no file
    monkeypatch.chdir(corpus)
    before = sorted(os.listdir(corpus))
    assert main(argv + ["--output", "out"]) == 1
    assert capsys.readouterr().err == f"covbias: {message}\n"
    assert sorted(os.listdir(corpus)) == before


def test_ratio_and_fraction_floors_take_the_flag_text_exactly(tmp_path, capsys):
    # 9.2 * 750 / 100 and 0.29 * 100 are 68.99... and 28.99... in binary floats
    records = tmp_path / "records.tsv"
    records.write_text(
        "line_no\tscore\n" + "".join(f"{n}\t{n % 7 - 3.5}\n" for n in range(1, 751)),
        encoding="utf-8",
    )
    assert main(["select", "--records", str(records), "--ratio", "9.2"]) == 0
    groups = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert groups.count("most_source") == groups.count("most_target") == 69
    assert main(["random-split", "--count", "100", "--fraction", "0.29", "--seed", "1"]) == 0
    groups = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert groups.count("a") == 29


def test_exact_float_flags_come_from_config_and_keep_their_refusals(tmp_path, capsys):
    config = tmp_path / "split.cfg"
    config.write_text("count=100\nfraction=0.29\nseed=1\n", encoding="utf-8")
    assert main(["random-split", "--config", str(config)]) == 0
    groups = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert groups.count("a") == 29
    for bad in ("nan", "inf", "1/3", ""):
        assert main(["random-split", "--count", "10", "--fraction", bad, "--seed", "1"]) == 1
        assert f"invalid finite float value: {bad!r}" in capsys.readouterr().err
    assert main(["select", "--records", "unread.tsv", "--ratio", "50.5"]) == 1
    assert capsys.readouterr().err == "covbias: --ratio must be in (0, 50], got 50.5\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hundredths=st.integers(1, 5_000), n=st.integers(1, 1_000))
@example(hundredths=920, n=750)
def test_ratio_floor_matches_fraction_arithmetic(hundredths, n):
    text = f"{hundredths // 100}.{hundredths % 100:02d}"
    ratio = cli._exact_float(text)
    records = [(i, -i) for i in range(1, n + 1)]
    most_source, most_target = select_extremes(records, ratio)
    k = math.floor(Fraction(text) * n / 100)
    assert len(most_source) == len(most_target) == k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(thousandths=st.integers(1, 999), n=st.integers(1, 1_000))
@example(thousandths=290, n=100)
def test_fraction_floor_matches_fraction_arithmetic(thousandths, n):
    text = f"0.{thousandths:03d}"
    part_a, part_b = random_split(n, cli._exact_float(text), seed=1)
    k = math.floor(Fraction(text) * n)
    assert (len(part_a), len(part_b)) == (k, n - k)


def test_jsdiv_report(corpus, capsys):
    pos = corpus / "src.pos"
    pos.write_text(
        "DET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\n",
        encoding="utf-8",
    )
    split = corpus / "split.tsv"
    split.write_text(
        "line_no\tgroup\n1\tmost_source\n2\tmost_source\n3\tmost_target\n4\tmost_target\n",
        encoding="utf-8",
    )
    code = main(
        [
            "jsdiv",
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(corpus / "tgt.txt"),
            "--side",
            "source",
            "--source-pos",
            str(pos),
            "--split",
            str(split),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "class\tjs_nats\tjs_x1e5"
    rows = {l.split("\t")[0]: l.split("\t")[1:] for l in lines[1:]}
    expected = divergence_report(
        read_parallel(str(corpus / "src.txt"), str(corpus / "tgt.txt"), str(pos)),
        {1, 2},
        {3, 4},
        "source",
    )
    assert float(rows["all"][0]) == expected.js_all
    assert float(rows["content"][0]) == expected.js_content
    assert float(rows["function"][0]) == expected.js_function
    # lines 1-2 say "der", lines 3-4 say "die": function vocab fully disjoint
    assert math.isclose(float(rows["function"][0]), math.log(2), rel_tol=0, abs_tol=1e-12)
    assert 0.0 < float(rows["content"][0]) < math.log(2)
    assert float(rows["all"][1]) == float(rows["all"][0]) * 1e5


def test_jsdiv_report_tsv_layout(corpus, capsys):
    # "der" is a function word on every line and the nouns differ by group:
    # content JS is ln 2, function JS 0, and over all words ln 2 / 2
    (corpus / "a.src").write_text("der hund\nder katze\n", encoding="utf-8")
    (corpus / "a.pos").write_text("DET NOUN\nDET NOUN\n", encoding="utf-8")
    (corpus / "a.tgt").write_text("x\ny\n", encoding="utf-8")
    split = corpus / "split.tsv"
    split.write_text("line_no\tgroup\n1\ta\n2\tb\n", encoding="utf-8")
    argv = ["jsdiv", "--source", str(corpus / "a.src"), "--target", str(corpus / "a.tgt"),
            "--side", "source", "--source-pos", str(corpus / "a.pos"), "--split", str(split)]
    assert main(argv) == 0
    half, ln2 = math.log(2) / 2, math.log(2)
    assert capsys.readouterr().out.splitlines() == [
        "class\tjs_nats\tjs_x1e5",
        f"all\t{fmt_float(half)}\t{fmt_float(half * 1e5)}",
        f"content\t{fmt_float(ln2)}\t{fmt_float(ln2 * 1e5)}",
        "function\t0\t0",
    ]


def test_jsdiv_needs_pos_for_the_scored_side(corpus, capsys):
    # a missing flag is a usage error, refused before any file is opened
    missing = str(corpus / "missing")
    for side, other in (("source", "target"), ("target", "source")):
        argv = ["jsdiv", "--source", missing, "--target", missing, "--side", side,
                f"--{other}-pos", missing, "--split", missing]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"covbias: --side {side} needs --{side}-pos\n"


def test_fmeasure_report_matches_library(corpus, capsys):
    hyp = corpus / "hyp.txt"
    hyp.write_text("the dog runs\n", encoding="utf-8")
    ref = corpus / "ref.txt"
    ref.write_text("the dog sleeps\n", encoding="utf-8")
    ref_pos = corpus / "ref.pos"
    ref_pos.write_text("DET NOUN VERB\n", encoding="utf-8")
    assert (
        main(
            [
                "fmeasure",
                "--hyp",
                str(hyp),
                "--ref",
                str(ref),
                "--ref-pos",
                str(ref_pos),
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    stats = word_fmeasure(
        fmeasure_pairs(
            [("the", "dog", "runs")],
            [("the", "dog", "sleeps")],
            [("DET", "NOUN", "VERB")],
        )
    )
    assert [line.split("\t")[0] for line in lines[1:]] == sorted(stats)
    for line in lines[1:]:
        name, *cells = line.split("\t")
        assert [*map(float, cells[:3]), *map(int, cells[3:])] == list(stats[name])


def test_fmeasure_report_tsv_layout(corpus, capsys):
    # ref "a a b" / hyp "a b b": 2 of 3 tokens match; rows in bucket-name order
    for name, text in (("hyp", "a b b"), ("ref", "a a b"), ("ref.pos", "NOUN NOUN NOUN")):
        (corpus / name).write_text(text + "\n", encoding="utf-8")
    argv = ["fmeasure", "--hyp", str(corpus / "hyp"), "--ref", str(corpus / "ref"),
            "--ref-pos", str(corpus / "ref.pos")]
    assert main(argv) == 0
    third = format(2 / 3, ".17g")
    assert capsys.readouterr().out.splitlines() == [
        "bucket\tprecision\trecall\tf1\tmatched\tsys_count\tref_count",
        "adj\t0\t0\t0\t0\t0\t0",
        f"noun\t{third}\t{third}\t{third}\t2\t3\t3",
        "verb\t0\t0\t0\t0\t0\t0",
    ]


def test_fmeasure_custom_buckets(corpus, capsys):
    hyp = corpus / "hyp.txt"
    hyp.write_text("a b\n", encoding="utf-8")
    ref = corpus / "ref.txt"
    ref.write_text("a b\n", encoding="utf-8")
    ref_pos = corpus / "ref.pos"
    ref_pos.write_text("X Y\n", encoding="utf-8")
    buckets = corpus / "buckets.txt"
    buckets.write_text("[xish]\nX\n[yish]\nY\n", encoding="utf-8")
    assert (
        main(
            [
                "fmeasure",
                "--hyp",
                str(hyp),
                "--ref",
                str(ref),
                "--ref-pos",
                str(ref_pos),
                "--buckets",
                str(buckets),
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert [l.split("\t")[0] for l in lines[1:]] == ["xish", "yish"]
    assert all(l.split("\t")[3] == "1" for l in lines[1:])


def test_abstract_writes_the_abstracted_corpus(corpus):
    pos = corpus / "src.pos"
    pos.write_text(
        "DET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\n",
        encoding="utf-8",
    )
    out = corpus / "abstracted.txt"
    code = main(
        [
            "abstract",
            "--input",
            str(corpus / "src.txt"),
            "--pos",
            str(pos),
            "--output",
            str(out),
            "--tag-prefix",
            "<",
            "--tag-suffix",
            ">",
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "der <NOUN> <VERB>"


def test_fluency_refuses_a_bad_tag_affix_before_reading_the_models(corpus, capsys):
    pos = corpus / "src.pos"
    pos.write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    missing = str(corpus / "missing.lm")
    argv = ["fluency", "--input", str(corpus / "src.txt"), "--pos", str(pos),
            "--plain-lm", missing, "--abstracted-lm", missing, "--tag-prefix", "a b"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "covbias: tag prefix/suffix must not contain whitespace\n"


def _fluency_argv(corpus):
    """A fluency run over src.txt, with models trained on it and on its abstraction."""
    pos = corpus / "src.pos"
    pos.write_text(
        "DET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\nDET NOUN VERB\n",
        encoding="utf-8",
    )
    abstracted = corpus / "abstracted.txt"
    assert (
        main(
            [
                "abstract",
                "--input",
                str(corpus / "src.txt"),
                "--pos",
                str(pos),
                "--output",
                str(abstracted),
            ]
        )
        == 0
    )
    plain_lm = _train(corpus, "plain.lm", "src.txt")
    abstracted_lm = _train(corpus, "abs.lm", "abstracted.txt")
    return [
        "fluency",
        "--input",
        str(corpus / "src.txt"),
        "--pos",
        str(pos),
        "--plain-lm",
        str(plain_lm),
        "--abstracted-lm",
        str(abstracted_lm),
    ]


def _fluency_ppls(argv):
    """The (plain, abstracted) perplexities that the library gives the run argv."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    return fluency_report(
        read_tagged(flags["--input"], flags["--pos"]),
        plain_lm=NGramModel.load(flags["--plain-lm"]),
        abstracted_lm=NGramModel.load(flags["--abstracted-lm"]),
        content_tags=covbias.DEFAULT_CONTENT_TAGS,
    )


def test_fluency_tsv_uses_dash_for_missing_diffs(corpus, capsys):
    argv = _fluency_argv(corpus)
    assert main(argv) == 0
    plain, abstracted = _fluency_ppls(argv)
    assert capsys.readouterr().out.splitlines() == [
        "level\tppl\tdiff",
        f"plain\t{fmt_float(plain)}\t-",
        f"abstracted\t{fmt_float(abstracted)}\t-",
    ]


def test_fluency_diffs_are_relative_to_the_baseline(corpus, capsys):
    argv = _fluency_argv(corpus)
    baseline = corpus / "baseline.tsv"
    baseline.write_text("level\tppl\nplain\t2.0\nabstracted\t4.0\n", encoding="utf-8")
    assert main(argv + ["--baseline", str(baseline)]) == 0
    plain, abstracted = _fluency_ppls(argv)
    assert plain not in (2.0, 4.0) and abstracted not in (2.0, 4.0)
    assert capsys.readouterr().out.splitlines() == [
        "level\tppl\tdiff",
        f"plain\t{fmt_float(plain)}\t{fmt_float((plain - 2.0) / 2.0)}",
        f"abstracted\t{fmt_float(abstracted)}\t{fmt_float((abstracted - 4.0) / 4.0)}",
    ]


def test_fluency_report_with_baseline(corpus, capsys):
    base_args = _fluency_argv(corpus)
    baseline_path = corpus / "baseline.tsv"
    assert main(base_args + ["--output", str(baseline_path)]) == 0
    baseline_lines = baseline_path.read_text(encoding="utf-8").splitlines()
    assert baseline_lines[0] == "level\tppl\tdiff"
    assert [l.split("\t")[0] for l in baseline_lines[1:]] == ["plain", "abstracted"]
    assert all(l.split("\t")[2] == "-" for l in baseline_lines[1:])

    # scoring the same output against its own baseline: diffs exactly 0
    assert main(base_args + ["--baseline", str(baseline_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split("\t")[2] for l in lines[1:]] == ["0", "0"]


def test_tag_marks_target_original_lines(corpus):
    records = corpus / "records.tsv"
    records.write_text(
        "line_no\tscore\tlabel\n1\t1.0\tS\n2\t-1.0\tT\n3\t2.0\tS\n4\t-2.0\tT\n",
        encoding="utf-8",
    )
    out_src, out_tgt = corpus / "tag.src", corpus / "tag.tgt"
    code = main(
        [
            "tag",
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(corpus / "tgt.txt"),
            "--records",
            str(records),
            "--out-source",
            str(out_src),
            "--out-target",
            str(out_tgt),
        ]
    )
    assert code == 0
    tagged = out_src.read_text(encoding="utf-8").splitlines()
    assert tagged[0] == "der hund läuft"
    assert tagged[1] == "<TORIG> der hund schläft"
    assert tagged[3].startswith("<TORIG> ")
    assert out_tgt.read_bytes() == (corpus / "tgt.txt").read_bytes()


def test_tag_rejects_out_of_order_records(corpus):
    records = corpus / "records.tsv"
    records.write_text(
        "line_no\tscore\tlabel\n2\t1.0\tS\n1\t-1.0\tT\n", encoding="utf-8"
    )
    code = main(
        [
            "tag",
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(corpus / "tgt.txt"),
            "--records",
            str(records),
            "--out-source",
            str(corpus / "o.src"),
            "--out-target",
            str(corpus / "o.tgt"),
        ]
    )
    assert code == 2


def test_split_finetune_via_selection(corpus):
    selection = corpus / "selection.tsv"
    selection.write_text(
        "line_no\tgroup\n1\tmost_source\n3\tmost_source\n2\tmost_target\n",
        encoding="utf-8",
    )
    outs = {
        name: corpus / name
        for name in (
            "pre.src",
            "pre.tgt",
            "fine.src",
            "fine.tgt",
            "manifest.tsv",
        )
    }
    code = main(
        [
            "split-finetune",
            "--source",
            str(corpus / "src.txt"),
            "--target",
            str(corpus / "tgt.txt"),
            "--selection",
            str(selection),
            "--out-pretrain-source",
            str(outs["pre.src"]),
            "--out-pretrain-target",
            str(outs["pre.tgt"]),
            "--out-finetune-source",
            str(outs["fine.src"]),
            "--out-finetune-target",
            str(outs["fine.tgt"]),
            "--manifest",
            str(outs["manifest.tsv"]),
        ]
    )
    assert code == 0
    assert outs["pre.src"].read_bytes() == (corpus / "src.txt").read_bytes()
    fine = outs["fine.src"].read_text(encoding="utf-8").splitlines()
    assert fine == ["der hund läuft", "die katze läuft"]
    manifest = outs["manifest.tsv"].read_text(encoding="utf-8").splitlines()
    assert manifest[0] == "output_line_no\tprovenance\toriginal_line_no"
    assert manifest[1:5] == [
        "1\tpretrain\t1",
        "2\tpretrain\t2",
        "3\tpretrain\t3",
        "4\tpretrain\t4",
    ]
    assert manifest[5:] == ["1\tfinetune\t1", "2\tfinetune\t3"]


def test_split_finetune_via_records_keeps_the_positive_scores(corpus):
    """The fine-tune set is exactly the rows with a score > 0; a score of 0 is target-original."""
    records = corpus / "records.tsv"
    records.write_text(
        "line_no\tscore\tlabel\n1\t2.0\tS\n2\t-1.0\tT\n3\t0.5\tS\n4\t0.0\tT\n",
        encoding="utf-8",
    )
    argv, outs = _reading_report(corpus, "split-finetune-records", str(records))
    assert main(argv) == 0
    assert Path(outs[2]).read_text(encoding="utf-8").splitlines() == [
        "der hund läuft",
        "die katze läuft",
    ]
    manifest = Path(outs[4]).read_text(encoding="utf-8").splitlines()
    assert manifest[5:] == ["1\tfinetune\t1", "2\tfinetune\t3"]


def test_split_finetune_requires_exactly_one_selector(corpus):
    args = [
        "split-finetune",
        "--source",
        str(corpus / "src.txt"),
        "--target",
        str(corpus / "tgt.txt"),
        "--out-pretrain-source",
        str(corpus / "a"),
        "--out-pretrain-target",
        str(corpus / "b"),
        "--out-finetune-source",
        str(corpus / "c"),
        "--out-finetune-target",
        str(corpus / "d"),
        "--manifest",
        str(corpus / "e"),
    ]
    assert main(args) == 1
    records = corpus / "records.tsv"
    records.write_text("line_no\tscore\n1\t1.0\n", encoding="utf-8")
    selection = corpus / "selection.tsv"
    selection.write_text("line_no\tgroup\n1\tmost_source\n", encoding="utf-8")
    assert (
        main(args + ["--records", str(records), "--selection", str(selection)]) == 1
    )


def test_split_finetune_rejects_foreign_selection_groups(corpus, capsys):
    selection = corpus / "random.tsv"
    selection.write_text("line_no\tgroup\n1\ta\n2\tb\n3\ta\n4\tb\n", encoding="utf-8")
    args = ["split-finetune", "--source", str(corpus / "src.txt")]
    args += ["--target", str(corpus / "tgt.txt"), "--selection", str(selection)]
    for flag in ("pretrain-source", "pretrain-target", "finetune-source", "finetune-target"):
        args += [f"--out-{flag}", str(corpus / flag)]
    assert main(args + ["--manifest", str(corpus / "manifest.tsv")]) == 2
    err = capsys.readouterr().err
    assert str(selection) in err and "'a'" in err
    assert not (corpus / "manifest.tsv").exists()


def test_merge_augment_with_tag_and_seed(corpus):
    outs = [corpus / "m.src", corpus / "m.tgt", corpus / "m.manifest"]
    args = [
        "merge-augment",
        "--authentic-source",
        str(corpus / "src.txt"),
        "--authentic-target",
        str(corpus / "tgt.txt"),
        "--synthetic-source",
        str(corpus / "src.txt"),
        "--synthetic-target",
        str(corpus / "tgt.txt"),
        "--tag-token",
        "<BT>",
        "--seed",
        "13",
        "--out-source",
        str(outs[0]),
        "--out-target",
        str(outs[1]),
        "--manifest",
        str(outs[2]),
    ]
    assert main(args) == 0
    first = [p.read_bytes() for p in outs]
    src_lines = outs[0].read_text(encoding="utf-8").splitlines()
    assert len(src_lines) == 8
    assert sum(1 for l in src_lines if l.startswith("<BT> ")) == 4
    manifest_rows = outs[2].read_text(encoding="utf-8").splitlines()[1:]
    tagged_line_nos = {
        int(r.split("\t")[0]) for r in manifest_rows if r.split("\t")[1] == "synthetic"
    }
    for line_no, line in enumerate(src_lines, 1):
        assert line.startswith("<BT> ") == (line_no in tagged_line_nos)
    # the same seed reproduces the merge byte for byte
    assert main(args) == 0
    assert [p.read_bytes() for p in outs] == first


def test_merge_augment_tag_collision_is_a_data_error(corpus):
    poisoned_src = corpus / "poisoned.src"
    poisoned_src.write_text("<BT> hallo\n", encoding="utf-8")
    poisoned_tgt = corpus / "poisoned.tgt"
    poisoned_tgt.write_text("hello\n", encoding="utf-8")
    code = main(
        [
            "merge-augment",
            "--authentic-source",
            str(poisoned_src),
            "--authentic-target",
            str(poisoned_tgt),
            "--synthetic-source",
            str(poisoned_src),
            "--synthetic-target",
            str(poisoned_tgt),
            "--tag-token",
            "<BT>",
            "--out-source",
            str(corpus / "m.src"),
            "--out-target",
            str(corpus / "m.tgt"),
            "--manifest",
            str(corpus / "m.manifest"),
        ]
    )
    assert code == 2


def _fails_naming(corpus, capsys, argv, message, outputs):
    """argv exits 2 with message and writes none of outputs."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"covbias: error: {message}\n"
    assert not any((corpus / name).exists() for name in outputs)


def test_tag_faults_name_the_file_and_the_line(corpus, capsys):
    records = corpus / "records.tsv"
    src, tgt = str(corpus / "src.txt"), str(corpus / "tgt.txt")
    poisoned = corpus / "poisoned.tgt"
    poisoned.write_text("a\nb <TORIG>\nc\nd\n", encoding="utf-8")
    cases = [  # records rows, target file, message
        (2, tgt, f"{records} ended at line_no 3 but {src} continues"),
        (5, tgt, f"{src} ended at line 5 but {records} continues"),
        (4, str(poisoned), f"{poisoned}: line 2: corpus already contains the tag token '<TORIG>'"),
    ]
    for rows, target, message in cases:
        records.write_text(
            "line_no\tscore\n" + "".join(f"{n}\t-1\n" for n in range(1, rows + 1)), "utf-8"
        )
        argv = ["tag", "--source", src, "--target", target, "--records", str(records),
                "--out-source", str(corpus / "o.src"), "--out-target", str(corpus / "o.tgt")]
        _fails_naming(corpus, capsys, argv, message, ["o.src", "o.tgt"])


def test_merge_augment_collision_names_the_file_and_the_line(corpus, capsys):
    # line 2 of the authentic corpus is clean; the synthetic target's is not
    synthetic = corpus / "syn.tgt"
    synthetic.write_text("a\nb <BT>\nc\nd\n", encoding="utf-8")
    src, tgt = str(corpus / "src.txt"), str(corpus / "tgt.txt")
    argv = ["merge-augment", "--authentic-source", src, "--authentic-target", tgt,
            "--synthetic-source", src, "--synthetic-target", str(synthetic),
            "--tag-token", "<BT>", "--out-source", str(corpus / "m.src"),
            "--out-target", str(corpus / "m.tgt"), "--manifest", str(corpus / "m.tsv")]
    message = f"{synthetic}: line 2: corpus already contains the tag token '<BT>'"
    _fails_naming(corpus, capsys, argv, message, ["m.src", "m.tgt", "m.tsv"])


def test_manifest_tsv_layout(corpus):
    (corpus / "syn.src").write_text("hallo\n", encoding="utf-8")
    (corpus / "syn.tgt").write_text("hello\n", encoding="utf-8")
    manifest = corpus / "m.tsv"
    argv = ["merge-augment", "--authentic-source", str(corpus / "src.txt"),
            "--authentic-target", str(corpus / "tgt.txt"),
            "--synthetic-source", str(corpus / "syn.src"),
            "--synthetic-target", str(corpus / "syn.tgt"),
            "--out-source", str(corpus / "m.src"), "--out-target", str(corpus / "m.tgt"),
            "--manifest", str(manifest)]
    assert main(argv) == 0
    assert manifest.read_text(encoding="utf-8") == (
        "output_line_no\tprovenance\toriginal_line_no\n"
        "1\tauthentic\t1\n2\tauthentic\t2\n3\tauthentic\t3\n4\tauthentic\t4\n"
        "5\tsynthetic\t1\n"
    )


def test_float_cells_round_trip_through_the_report(corpus, capsys):
    scores = corpus / "scores.tsv"
    value = -1.2345678901234567
    scores.write_text(f"line_no\tscore\n1\t{value!r}\n", encoding="utf-8")
    assert main(["classify", "--scores", str(scores), "--offset-c", "0"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert float(line.split("\t")[1]) == value
    assert line.split("\t")[1] == fmt_float(value)


# -- non-finite numbers and file modes at the boundaries ----------------------

_NON_FINITE = ["nan", "inf", "-Infinity"]


@pytest.mark.parametrize("value", _NON_FINITE)
def test_tune_offset_rejects_non_finite_scores(corpus, value):
    table = corpus / "scored.tsv"
    table.write_text(f"score\tgold\n-3\tT\n{value}\tT\n1\tS\n4\tS\n", encoding="utf-8")
    assert main(["tune-offset", "--input", str(table)]) == 2


@pytest.mark.parametrize("value", _NON_FINITE)
def test_classify_rejects_non_finite_scores(corpus, value):
    scores = corpus / "scores.tsv"
    scores.write_text(f"line_no\tscore\n1\t-1.0\n2\t{value}\n", encoding="utf-8")
    assert main(["classify", "--scores", str(scores)]) == 2


def test_classify_rejects_a_shifted_score_that_is_not_finite(corpus, capsys):
    scores = corpus / "scores.tsv"
    scores.write_text("line_no\tscore\n1\t1e308\n", encoding="utf-8")
    out = corpus / "labels.tsv"
    argv = ["classify", "--scores", str(scores), "--offset-c", "1e308", "--output", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(scores) in err and "line_no 1" in err


def test_a_streamed_score_report_is_all_or_nothing(corpus, capsys):
    """A fault in the last row leaves stdout empty and writes no file."""
    scores = corpus / "scores.tsv"
    scores.write_text("line_no\tscore\n1\t-1.5\n2\t2\n3\t1e308\n", encoding="utf-8")
    out = corpus / "labels.tsv"
    for output in ("-", str(out)):
        argv = ["classify", "--scores", str(scores), "--offset-c", "1e308", "--output", output]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
    assert not out.exists()
    short = corpus / "short.txt"
    lines = (corpus / "tgt.txt").read_text(encoding="utf-8").splitlines(True)
    short.write_text("".join(lines[:-1]), encoding="utf-8")
    src_lm, tgt_lm = _train(corpus, "src.lm", "src.txt"), _train(corpus, "tgt.lm", "tgt.txt")
    argv = ["score-pairs", "--source-model", str(src_lm), "--target-model", str(tgt_lm),
            "--source", str(corpus / "src.txt"), "--target", str(short), "--output", "-"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    assert not list(corpus.glob(".tmp-*"))


def test_classify_keeps_a_line_no_beyond_64_bits(corpus, capsys):
    """A line_no fits in 64 bits, as --count does: sys.maxsize is kept, 2**64 is refused."""
    scores = corpus / "scores.tsv"
    scores.write_text(f"line_no\tscore\n{sys.maxsize}\t1.5\n3\t-2\n", encoding="utf-8")
    assert main(["classify", "--scores", str(scores), "--offset-c", "0.5"]) == 0
    assert capsys.readouterr().out == f"line_no\tscore\tlabel\n{sys.maxsize}\t2\tS\n3\t-1.5\tT\n"
    scores.write_text(f"line_no\tscore\n3\t-2\n{2**64}\t1.5\n", encoding="utf-8")
    assert main(["classify", "--scores", str(scores), "--offset-c", "0.5"]) == 2
    problem = f"line_no must be at most {sys.maxsize}, got {2**64}"
    assert capsys.readouterr() == ("", f"covbias: error: {scores}: line 3: {problem}\n")


def test_score_pairs_holds_no_object_per_row(tmp_path, monkeypatch):
    """Past the models, a 5,000-pair run keeps two columns of 8-byte numbers, not rows."""
    bed = make_testbed(seed=5, n_mono=2_000, n_heldout=0, n_pairs_each=2_500)
    models = {}
    for name, mono in (("src.lm", bed.src_mono), ("tgt.lm", bed.tgt_mono)):
        models[str(tmp_path / name)] = model = NGramModel.train(mono, order=3)
        model._index()
    monkeypatch.setattr(NGramModel, "load", classmethod(lambda cls, path: models[path]))
    write_parallel(bed.pairs, str(tmp_path / "p.src"), str(tmp_path / "p.tgt"))
    write_parallel(bed.pairs[:3], str(tmp_path / "w.src"), str(tmp_path / "w.tgt"))

    def score_pairs(stem):
        return main(["score-pairs", "--source-model", str(tmp_path / "src.lm"),
                     "--target-model", str(tmp_path / "tgt.lm"),
                     "--source", str(tmp_path / f"{stem}.src"),
                     "--target", str(tmp_path / f"{stem}.tgt"),
                     "--output", str(tmp_path / "out.tsv")])

    assert score_pairs("w") == 0  # a warm-up run, so imports count for nothing
    tracemalloc.start()
    try:
        assert score_pairs("p") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "out.tsv").read_text().splitlines()) == 5_001
    assert peak < 2**19, f"score-pairs peaked at {peak} bytes above its models"


@pytest.mark.parametrize("value", _NON_FINITE)
def test_select_rejects_non_finite_scores(corpus, value):
    records = corpus / "records.tsv"
    records.write_text(
        f"line_no\tscore\tlabel\n1\t{value}\tT\n2\t1.5\tS\n3\t-1.0\tT\n4\t-2.0\tT\n",
        encoding="utf-8",
    )
    assert main(["select", "--records", str(records), "--ratio", "25"]) == 2


def test_split_finetune_rejects_non_finite_record_scores(corpus):
    records = corpus / "records.tsv"
    records.write_text(
        "line_no\tscore\tlabel\n1\t1.0\tS\n2\tnan\tT\n3\t2.0\tS\n4\t-1.0\tT\n",
        encoding="utf-8",
    )
    args = ["split-finetune", "--source", str(corpus / "src.txt")]
    args += ["--target", str(corpus / "tgt.txt"), "--records", str(records)]
    for flag in ("pretrain-source", "pretrain-target", "finetune-source", "finetune-target"):
        args += [f"--out-{flag}", str(corpus / flag)]
    assert main(args + ["--manifest", str(corpus / "manifest.tsv")]) == 2
    assert not (corpus / "manifest.tsv").exists()


@pytest.mark.parametrize(
    "rows, named",
    [
        pytest.param("plain\tinf\t-\nabstracted\t3.5\t-\n", "'inf'", id="inf"),
        pytest.param("plain\t0\t-\nabstracted\t3.5\t-\n", "'0'", id="0"),
        pytest.param("plain\t-2\t-\nabstracted\t3.5\t-\n", "'-2'", id="-2"),
        pytest.param(
            "plain\t3\t-\nplain\t1e300\t-\nabstracted\t3.5\t-\n", "'plain'", id="repeated-level"
        ),
        pytest.param(
            "plain\t3\t-\nabstracted\t3.5\t-\nbogus\t7\t-\n", "'bogus'", id="unknown-level"
        ),
        pytest.param("plain\t0.5\t-\nabstracted\t3.5\t-\n", "'0.5'", id="0.5"),
        pytest.param("plain\t3\t-\nabstracted\t1e-320\t-\n", "'1e-320'", id="1e-320"),
    ],
)
def test_fluency_rejects_a_non_finite_baseline(corpus, capsys, rows, named):
    pos = corpus / "src.pos"
    pos.write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    model = _train(corpus, "plain.lm", "src.txt")
    baseline = corpus / "baseline.tsv"
    baseline.write_text("level\tppl\tdiff\n" + rows, encoding="utf-8")
    args = ["fluency", "--input", str(corpus / "src.txt"), "--pos", str(pos)]
    args += ["--plain-lm", str(model), "--abstracted-lm", str(model)]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--baseline", str(baseline)]) == 2
    err = capsys.readouterr().err
    assert str(baseline) in err and named in err


@pytest.mark.parametrize(
    "pos_text, line_no",
    [("DET NOUN VERB\nDET NOUN\n" + "DET NOUN VERB\n" * 2, 2), ("DET NOUN VERB\n" * 2, 3)],
    ids=["short-line", "short-file"],
)
def test_fluency_names_the_pos_file_and_line_that_do_not_align(corpus, capsys, pos_text, line_no):
    pos = corpus / "src.pos"
    pos.write_text(pos_text, encoding="utf-8")
    model = _train(corpus, "plain.lm", "src.txt")
    args = ["fluency", "--input", str(corpus / "src.txt"), "--pos", str(pos)]
    assert main(args + ["--plain-lm", str(model), "--abstracted-lm", str(model)]) == 2
    err = capsys.readouterr().err
    assert str(pos) in err and f"line {line_no}" in err


# each command's aligned inputs: (flag, one line of the file), POS file last
_ALIGNED = {
    "abstract": [("--input", "der hund läuft\n"), ("--pos", "DET NOUN VERB\n")],
    "fluency": [("--input", "der hund läuft\n"), ("--pos", "DET NOUN VERB\n")],
    "fmeasure": [
        ("--hyp", "the dog runs\n"),
        ("--ref", "the dog sleeps\n"),
        ("--ref-pos", "DET NOUN VERB\n"),
    ],
}


@pytest.mark.parametrize(
    "command, short, fault",
    [(c, flag, "short-file") for c, inputs in _ALIGNED.items() for flag, _ in inputs]
    + [(c, inputs[-1][0], "short-line") for c, inputs in _ALIGNED.items()],
)
def test_aligned_inputs_name_the_file_and_the_line_at_fault(corpus, capsys, command, short, fault):
    argv = [command]
    for flag, line in _ALIGNED[command]:
        path = corpus / f"{flag[2:]}.txt"
        text = line * 3
        if flag == short:
            text = line * 2 if fault == "short-file" else line + "DET NOUN\n" + line
        path.write_text(text, encoding="utf-8")
        argv += [flag, str(path)]
    if command == "fluency":
        model = _train(corpus, "plain.lm", "src.txt")
        argv += ["--plain-lm", str(model), "--abstracted-lm", str(model)]
    out = corpus / "out.txt"
    assert main(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    named = corpus / f"{short[2:]}.txt"
    if fault == "short-file":
        expected = f"{named} ended at line 3 but other input(s) continue"
    else:
        expected = f"{named}: line 2 has 2 tags for 3 tokens"
    assert capsys.readouterr().err == f"covbias: error: {expected}\n"


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize(
    "command",
    [
        ["classify", "--scores", "scores.tsv", "--offset-c"],
        ["select", "--records", "scores.tsv", "--ratio"],
        ["random-split", "--count", "4", "--seed", "1", "--fraction"],
    ],
)
def test_non_finite_float_flags_are_usage_errors(corpus, capsys, command, value):
    (corpus / "scores.tsv").write_text("line_no\tscore\n1\t-1.0\n2\t2.0\n", encoding="utf-8")
    argv = [str(corpus / a) if a.endswith(".tsv") else a for a in command]
    assert main(argv + [value]) == 1
    assert command[-1] in capsys.readouterr().err


def test_outputs_get_the_mode_open_would_give(corpus):
    script = (
        "import os, sys; os.umask(0o022); from covbias.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(covbias.__file__)))

    def run(*argv):
        subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True)

    model, report = corpus / "m.lm", corpus / "ppl.tsv"
    run("train-lm", "--input", str(corpus / "src.txt"), "--output", str(model))
    run("perplexity", "--model", str(model), "--input", str(corpus / "src.txt"),
        "--output", str(report))
    assert stat.S_IMODE(model.stat().st_mode) == 0o644
    assert stat.S_IMODE(report.stat().st_mode) == 0o644


_MERGE = ["merge-augment", "--authentic-source", "src.txt", "--authentic-target", "tgt.txt",
          "--synthetic-source", "src.txt", "--synthetic-target", "tgt.txt"]
_SPLIT = ["split-finetune", "--source", "src.txt", "--target", "tgt.txt",
          "--selection", "selection.tsv", "--out-pretrain-target", "pre.tgt",
          "--out-finetune-source", "fine.src", "--out-finetune-target", "fine.tgt"]


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["tag", "--source", "src.txt", "--target", "tgt.txt", "--records", "records.tsv",
          "--out-source", "o.txt", "--out-target", "o.txt"], "--out-source", "--out-target"),
        (_SPLIT + ["--out-pretrain-source", "m.tsv", "--manifest", "m.tsv"],
         "--out-pretrain-source", "--manifest"),
        (_MERGE + ["--out-source", "m.src", "--out-target", "./sub/../m.tgt", "--manifest",
                   "m.tgt"], "--out-target", "--manifest"),
    ],
    ids=["tag", "split-finetune", "merge-augment"],
)
def test_two_outputs_naming_one_file_are_a_usage_error(
    corpus, monkeypatch, capsys, argv, first, second
):
    monkeypatch.chdir(corpus)
    (corpus / "records.tsv").write_text("line_no\tscore\tlabel\n1\t1.0\tS\n", encoding="utf-8")
    (corpus / "selection.tsv").write_text("line_no\tgroup\n1\tmost_source\n", encoding="utf-8")
    before = sorted(os.listdir(corpus))
    assert main(argv) == 1
    assert f"{first} and {second} both name the file" in capsys.readouterr().err
    assert sorted(os.listdir(corpus)) == before


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["tag", "--source", "src.txt", "--target", "tgt.txt", "--records", "records.tsv",
          "--out-source", "-", "--out-target", "-"], "--out-source", "--out-target"),
        (_SPLIT + ["--out-pretrain-source", "-", "--out-finetune-target", "-", "--manifest",
                   "m.tsv"], "--out-pretrain-source", "--out-finetune-target"),
        (_MERGE + ["--out-source", "-", "--out-target", "-", "--manifest", "-"],
         "--out-source", "--out-target"),
    ],
    ids=["tag", "split-finetune", "merge-augment"],
)
def test_a_dash_given_to_two_corpus_outputs_is_a_usage_error(
    corpus, monkeypatch, capsys, argv, first, second
):
    # "-" means stdout only for a report (--output, --manifest); --out-* "-" is a file
    monkeypatch.chdir(corpus)
    (corpus / "records.tsv").write_text("line_no\tscore\tlabel\n1\t1.0\tS\n", encoding="utf-8")
    (corpus / "selection.tsv").write_text("line_no\tgroup\n1\tmost_source\n", encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"covbias: {first} and {second} both name the file -\n"
    assert not (corpus / "-").exists()


def test_an_output_may_overwrite_an_input(corpus, monkeypatch):
    monkeypatch.chdir(corpus)
    expected = (corpus / "tgt.txt").read_bytes() * 2
    argv = _MERGE + ["--out-source", "m.src", "--out-target", "tgt.txt", "--manifest", "-"]
    assert main(argv) == 0
    assert (corpus / "tgt.txt").read_bytes() == expected


@pytest.mark.parametrize("how", ["flag", "config", "space"])
def test_an_empty_tag_token_is_a_usage_error(corpus, monkeypatch, capsys, how):
    monkeypatch.chdir(corpus)
    if how == "flag":
        extra = ["--tag-token", ""]
    elif how == "space":
        extra = ["--tag-token", "a b"]
    else:
        (corpus / "run.cfg").write_text("tag_token =\n", encoding="utf-8")
        extra = ["--config", "run.cfg"]
    (corpus / "records.tsv").write_text("line_no\tscore\tlabel\n1\t1.0\tS\n", encoding="utf-8")
    before = sorted(os.listdir(corpus))
    argv = _MERGE + ["--out-source", "m.src", "--out-target", "m.tgt", "--manifest", "m.tsv"]
    assert main(argv + extra) == 1
    argv = ["tag", "--source", "src.txt", "--target", "tgt.txt", "--records", "records.tsv",
            "--out-source", "t.src", "--out-target", "t.tgt"]
    assert main(argv + extra) == 1
    assert sorted(os.listdir(corpus)) == before
    assert capsys.readouterr().err == "covbias: tag token must be non-empty and whitespace-free\n" * 2


_SECTION_FAULTS = {
    "empty section": ("[a]\nNOUN\n# b is empty\n[b]\n", "line 4: section [b] lists no tokens"),
    "empty file": ("", "no [section] headers"),
    "token before a header": ("NOUN\n[a]\nVERB\n", "line 1: token before any [section] header"),
    "two tokens on a line": ("[a]\nNOUN VERB\n", "line 2: expected one token per line"),
    "whitespace in a section name": ("[no\tun]\nNOUN\n", "line 1: whitespace in section name"),
}
_FMEASURE = ["fmeasure", "--hyp", "src.txt", "--ref", "tgt.txt", "--ref-pos", "pos.txt",
             "--buckets"]
_WORD_CLASSES = ["jsdiv", "--source", "src.txt", "--target", "tgt.txt", "--side", "source",
                 "--source-pos", "pos.txt", "--split", "split.tsv", "--word-classes"]


@pytest.mark.parametrize(
    "argv, text, problem",
    [(_FMEASURE, *fault) for fault in _SECTION_FAULTS.values()]
    + [(_WORD_CLASSES, *fault) for fault in _SECTION_FAULTS.values()]
    + [(_WORD_CLASSES, "[content]\nNOUN\n[other]\nDET\n", "unexpected section(s) other")],
    ids=[f"fmeasure {case}" for case in _SECTION_FAULTS]
    + [f"jsdiv {case}" for case in _SECTION_FAULTS]
    + ["jsdiv unknown section"],
)
def test_bad_section_files_are_data_errors_naming_the_file(
    corpus, monkeypatch, capsys, argv, text, problem
):
    monkeypatch.chdir(corpus)
    (corpus / "pos.txt").write_text("DET NOUN VERB\n" * 4, encoding="utf-8")
    (corpus / "split.tsv").write_text("line_no\tgroup\n1\ta\n2\ta\n3\tb\n4\tb\n", encoding="utf-8")
    (corpus / "sections.txt").write_text(text, encoding="utf-8")
    assert main(argv + ["sections.txt", "--output", "out.tsv"]) == 2
    assert f"sections.txt: {problem}" in capsys.readouterr().err
    assert not (corpus / "out.tsv").exists()
