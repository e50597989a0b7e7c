"""Mutation checks: each mutant breaks one check in the source, and names the tests that catch it.

A mutant is one exact source fragment of one file and its replacement. The
runner copies src/, tests/ and pyproject.toml to a temporary directory,
applies the mutant there and runs the mutant's tests in a child pytest from
that directory, so pytest's pythonpath = ["src"] imports the mutated
package. A mutant is killed when every one of its tests fails. A fragment
that no longer occurs exactly once is an error, not a skip: a change that
moves a check re-states its mutant here. A change that adds an exactness
or boundary check adds its mutant here too.

Standard library only, so it runs without pytest (tests/test_mutants.py
runs it in the test suite):

    python3 tests/mutants.py [NAME ...]

It prints one line per mutant and exits 0 when every mutant is killed,
1 when one survives and 2 when one cannot be run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


class MutantError(Exception):
    """A mutant that cannot be applied or whose tests cannot be run."""


MUTANTS = (
    Mutant(
        "select_extremes-ranks-nan",
        "src/covbias/detect.py",
        """    for line_no, score in records:
        if math.isnan(score):
            raise ValueError(f"line {line_no}: score is NaN, which has no rank")
""",
        "",
        ("tests/test_detect.py::test_nan_scores_are_rejected_before_ranking",),
    ),
    Mutant(
        "read_scores-ignores-label",
        "src/covbias/cli.py",
        """if label is not None and label != (code := label_for(score).code):""",
        """if False:""",
        ("tests/test_cli.py::test_a_label_that_disagrees_with_its_score_is_a_data_error",),
    ),
    Mutant(
        "line_no-repeat-unchecked",
        "src/covbias/cli.py",
        """    if number in seen:
        raise ValueError(f"line_no {number} is repeated")
""",
        "",
        ("tests/test_cli.py::test_a_repeated_line_no_is_a_data_error[classify]",),
    ),
    Mutant(
        "line_no-unbounded",
        "src/covbias/cli.py",
        """    if number > sys.maxsize:""",
        """    if False:""",
        (
            "tests/test_cli.py::test_classify_keeps_a_line_no_beyond_64_bits",
            "tests/test_cli.py::test_a_line_no_above_sys_maxsize_is_a_data_error[select]",
        ),
    ),
    Mutant(
        "label_for-zero-is-source",
        "src/covbias/detect.py",
        "SOURCE_ORIGINAL if score > 0 else",
        "SOURCE_ORIGINAL if score >= 0 else",
        ("tests/test_detect.py::test_label_boundary_zero_is_target_original",),
    ),
    Mutant(
        "config-last-value-wins",
        "src/covbias/cli.py",
        """            if key in values:
                raise UsageError(f"{path}: line {line_no}: key {key!r} is given more than once")
""",
        "",
        ("tests/test_cli.py::test_unknown_or_malformed_config_keys_are_usage_errors",),
    ),
    Mutant(
        "fluency-diff-over-the-new-ppl",
        "src/covbias/cli.py",
        "(ppl - baseline[level]) / baseline[level]",
        "(ppl - baseline[level]) / ppl",
        ("tests/test_cli.py::test_fluency_diffs_are_relative_to_the_baseline",),
    ),
    Mutant(
        "fallback-discount-0.7",
        "src/covbias/lm.py",
        "_FALLBACK_DISCOUNT = 0.75",
        "_FALLBACK_DISCOUNT = 0.7",
        (
            "tests/test_lm.py::test_discount_fallback_when_counts_are_one_sided",
            "tests/test_lm.py::test_train_matches_the_tuple_estimator_bit_for_bit",
        ),
    ),
    Mutant(
        "select_extremes-float-floor",
        "src/covbias/detect.py",
        "k = num * len(records) // (100 * den)",
        "k = int(ratio_percent * len(records) / 100)",
        ("tests/test_detect.py::test_select_extremes_floors_a_float_ratio_at_its_binary_value",),
    ),
    Mutant(
        "tune_offset-mid-not-strictly-between",
        "src/covbias/detect.py",
        "mid if lo < mid < hi else lo",
        "mid",
        (
            "tests/test_detect.py::test_tune_offset_is_exact_at_extreme_magnitudes[rounded]",
            "tests/test_detect.py::test_tuned_offset_is_the_best_partition_at_every_magnitude",
        ),
    ),
    Mutant(
        "contexts_index-interns-a-zero",
        "src/covbias/lm.py",
        "    if 0.0 not in values:\n",
        "    if True:\n",
        ("tests/test_lm.py::test_the_index_keeps_signed_zero_weights_and_contexts_without_events",),
    ),
    Mutant(
        "column-get-misses-the-last-row",
        "src/covbias/lm.py",
        "values[i] if i < rows and keys[i] == key else None",
        "values[i] if i < rows - 1 and keys[i] == key else None",
        (
            "tests/test_lm.py::test_every_lookup_path_matches_the_tuple_oracle_bit_for_bit[switch]",
            "tests/test_lm.py::test_hand_built_uniform_model_scores_uniformly",
        ),
    ),
    Mutant(
        "load-skips-check_model",
        "src/covbias/lm.py",
        "                _check_model(lp, bo, base, discounts)\n",
        "",
        ("tests/test_lm.py::test_load_rejects_invalid_models",),
    ),
    Mutant(
        "load-takes-any-metadata-flags",
        "src/covbias/lm.py",
        """                if flags != _FLAGS:
                    raise reader.fail(f"metadata flags must be {_FLAGS}, got {flags}")
""",
        "",
        (
            "tests/test_lm.py::test_training_metadata_round_trips_in_format_2_only",
            "tests/test_lm.py::test_load_rejects_metadata_flagged_absent[unknown flag]",
        ),
    ),
    Mutant(
        "index-drops-a-row",
        "src/covbias/lm.py",
        "lp[k] = dict(zip(lp[k].keys(), lp[k].values()))",
        "lp[k] = dict(zip(lp[k].keys()[1:], lp[k].values()[1:]))",
        (
            "tests/test_lm.py::test_scoring_builds_the_index_after_one_event_per_12_rows",
            "tests/test_lm.py::test_the_index_keeps_signed_zero_weights_and_contexts_without_events",
        ),
    ),
    Mutant(
        "random_split-float-floor",
        "src/covbias/divergence.py",
        "k = num * n_lines // den",
        "k = int(fraction * n_lines)",
        ("tests/test_divergence.py::test_random_split_floors_a_float_fraction_at_its_binary_value",),
    ),
    Mutant(
        "backoff-weight-regrouped",
        "src/covbias/lm.py",
        "weights = list(map(truediv, map(mul, repeat(dk), types), totals))",
        "weights = list(map(mul, repeat(dk), map(truediv, types, totals)))",
        ("tests/test_lm.py::test_train_matches_the_tuple_estimator_bit_for_bit",),
    ),
    Mutant(
        # beta(h) * p as dk * types * lower / total: the division by c(h) taken last
        "backoff-mass-regrouped",
        "src/covbias/lm.py",
        "p = map(add, discounted, map(mul, row_weights, lower_p))",
        "p = map(add, discounted, map(truediv, map(mul, map(mul, repeat(dk), chain.from_iterable("
        "map(repeat, types, types))), lower_p), chain.from_iterable(map(repeat, totals, types))))",
        ("tests/test_lm.py::test_train_matches_the_tuple_estimator_bit_for_bit",),
    ),
    Mutant(
        # a column whose sum is not finite is refused at its first row, with no search
        "check_model-skips-the-row-search",
        "src/covbias/lm.py",
        "row = next((i for i, x in enumerate(values) if not -math.inf < x <= 0.0), None)",
        "row = 0",
        (
            "tests/test_lm.py::test_values_whose_sum_overflows_still_load",
            "tests/test_lm.py::test_load_faults_keep_their_text_and_row",
        ),
    ),
    Mutant(
        "word_fmeasure-reads-untagged-lines",
        "src/covbias/fmeasure.py",
        """        if tags is None:
            raise DataError(f"line {line_no}: target side has no POS annotations")
""",
        "",
        ("tests/test_fmeasure.py::test_a_line_without_reference_tags_is_a_data_error",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's fragment in its file under root."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.fragment)
    if count != 1:
        raise MutantError(
            f"{mutant.name}: the fragment occurs {count} times in {mutant.path}, not once"
        )
    path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")


def run(mutant: Mutant) -> list[str]:
    """The mutant's tests that did not fail; an empty list means it was killed."""
    with tempfile.TemporaryDirectory(prefix="covbias-mutant-") as workdir:
        root = Path(workdir)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for directory in ("src", "tests"):
            shutil.copytree(ROOT / directory, root / directory, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        apply(mutant, root)
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        # wide columns, so that no summary line is cut short
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1", COLUMNS="10000")
        # Plain asserts: a failing assert still fails its test, and with no
        # bytecode written, rewriting them (the plugins' modules too) costs
        # about 2 s a run.
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "--assert=plain", "-q",
             "--tb=no", "-rf", *mutant.tests],
            cwd=root, env=env, capture_output=True, text=True, check=False,
        )
    if child.returncode not in (0, 1):  # 2 and up: interrupted, a usage error, no tests
        raise MutantError(
            f"{mutant.name}: pytest exited {child.returncode}\n{child.stdout}{child.stderr}"
        )
    failed = [
        line[len("FAILED "):].split(" - ", 1)[0]
        for line in child.stdout.splitlines()
        if line.startswith("FAILED ")
    ]
    return [
        test
        for test in mutant.tests
        if not any(node == test or node.startswith(test + "[") for node in failed)
    ]


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    status = 0
    for mutant in [by_name[name] for name in names] or MUTANTS:
        try:
            survivors = run(mutant)
        except MutantError as exc:
            print(f"error     {exc}", file=sys.stderr)
            return 2
        if survivors:
            print(f"survived  {mutant.name}: {', '.join(survivors)} passed")
            status = 1
        else:
            print(f"killed    {mutant.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
