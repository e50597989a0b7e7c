"""Benchmark of the covbias command line on seeded synthetic corpora.

Run from the root of a checkout; the program is taken from its src/:

    python3 bench/run.py --workload detect-score --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

A run generates the workload's inputs from the seed, runs the set-up phase
SETUP_REPEATS times, then repeats the measured phase in whole rounds until
--seconds have passed, checking every output of every round. Each covbias
invocation is a child process. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones (medians over rounds, and over set-ups for setup_s);
with --trace 1 they are the per-layer figures of one set-up and one round,
taken in-process under the tracer, plus per-subcommand wall times of child
processes. --smoke runs every workload's traced run, which includes one
set-up and one round as child processes with every check, at a tiny scale.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from harness import Runner, Tally, run_phase
from tracer import self_times
from workloads import SCALES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# untraced and traced in-process rounds for trace.overhead_pct, per mode
OVERHEAD_ROUNDS = 2
MIB = 1024 * 1024
SUBCOMMANDS = (
    "train-lm", "perplexity", "score-pairs", "tune-offset", "classify", "select", "jsdiv",
    "random-split", "fmeasure", "abstract", "fluency", "tag", "split-finetune", "merge-augment",
)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "corpus.read_mono.s": "s",
    "corpus.read_parallel.s": "s",
    "corpus.read_parallel.pairs_per_s": "1/s",
    "corpus.write_parallel.s": "s",
    "corpus.write_parallel.mb_per_s": "MB/s",
    "lm.train.s": "s",
    "lm.train.tokens_per_s": "1/s",
    "lm.save.s": "s",
    "lm.save.mb": "MB",
    "lm.load.s": "s",
    "lm.load.rows_per_s": "1/s",
    "lm.load.rss_mb": "MB",
    "lm.rows": "count",
    "lm.logprob.s": "s",
    "lm.logprob.events_per_s": "1/s",
    "lm.perplexity.s": "s",
    "detect.score_pair.s": "s",
    "detect.score_pair.pairs_per_s": "1/s",
    "detect.tune_offset.s": "s",
    "detect.select_extremes.s": "s",
    "divergence.divergence_report.s": "s",
    "divergence.divergence_report.tokens_per_s": "1/s",
    "divergence.random_split.s": "s",
    "fmeasure.word_fmeasure.s": "s",
    "fmeasure.word_fmeasure.tokens_per_s": "1/s",
    "abstraction.abstract_corpus.s": "s",
    "abstraction.fluency_report.s": "s",
    "dataprep.bias_tag.s": "s",
    "dataprep.finetune_split.s": "s",
    "dataprep.merge_augment.s": "s",
    "fileio.read_tsv.s": "s",
    "fileio.read_tsv.rows_per_s": "1/s",
    "fileio.atomic_write.s": "s",
    "cli.startup.s": "s",
    "cli.invocations": "count",
    "cli.glue.s": "s",
    **{f"cli.{name}.s": "s" for name in SUBCOMMANDS},
    "trace.plain_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_pct": "%",
}


def _phase_totals(calls) -> tuple[float, float, float]:
    return (
        sum(c.wall_s for c in calls),
        sum(c.cpu_s for c in calls),
        max((c.rss_mb for c in calls), default=0.0),
    )


def _median_phase(repeats) -> tuple[float, float, float]:
    """Wall and CPU: the sum over steps of each step's median across repeats of
    the phase. Peak RSS: the highest of the steps' medians.

    Neighbours on a shared machine slow the CPU in bursts of a few seconds;
    a per-step median discards a burst that hits one step of one repeat,
    where a median of phase totals would need most repeats to be clean.
    """
    steps = max(len(calls) for calls in repeats)
    per_step = [[calls[i] for calls in repeats if i < len(calls)] for i in range(steps)]
    return (
        sum(statistics.median(c.wall_s for c in step) for step in per_step),
        sum(statistics.median(c.cpu_s for c in step) for step in per_step),
        max(statistics.median(c.rss_mb for c in step) for step in per_step),
    )


@contextlib.contextmanager
def _session(root: str, workload: str, seed: int, scale: str, label: str):
    """A fresh work directory with the workload's inputs, and a runner for it."""
    workdir = os.path.join(HERE, "work", label)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    size = SCALES[scale][workload]
    WORKLOADS[workload].make_inputs(workdir, seed, size)
    tally = Tally()
    runner = Runner(root, workdir, tally)
    try:
        # byte-compiles the package before anything is timed
        run_phase(tally, runner.cli, "--version")
        yield workdir, size, tally, runner
    finally:
        runner.close()


def measure(root, name, seed, seconds):
    """The untraced run: end-to-end metrics."""
    with _session(root, name, seed, "full", name) as (workdir, size, tally, runner):
        path = functools.partial(os.path.join, workdir)
        return _measure(WORKLOADS[name], size, tally, runner, path, seed, seconds, SETUP_REPEATS)


def _measure(workload, size, tally, runner, path, seed, seconds, setups_wanted):
    # Set-ups are spread over the run, one before each round and the rest after
    # the last, so that one slow spell of the machine meets few of them.
    setups = []

    def set_up() -> None:
        start = len(runner.log)
        run_phase(tally, workload.setup, runner, path, size)
        setups.append(runner.log[start:])

    set_up()
    run_phase(tally, workload.check_setup, runner, path, size, seed)
    rounds = []
    while not rounds or sum(_phase_totals(calls)[0] for calls in rounds) < seconds:
        if rounds and len(setups) < setups_wanted:
            set_up()
        start = len(runner.log)
        run_phase(tally, workload.measure, runner, path, size, seed)
        rounds.append(runner.log[start:])
    while len(setups) < setups_wanted:
        set_up()
    wall, cpu, rss = _median_phase(rounds)
    values = {"wall_s": wall, "cpu_s": cpu, "setup_s": _median_phase(setups)[0], "peak_rss_mb": rss}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return tally, metrics, {"rounds": len(rounds)}


def _in_process(root, tally, mode, name, scale, workdir, seed, pairs=0):
    """One fresh process running tracer.py in the given mode; returns its JSON."""
    out = os.path.join(workdir, f"{mode}.json")
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), mode, name, scale, workdir,
            str(seed), str(pairs), out]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(argv, env=env, cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tally.attempted += 1
        tally.fail(f"tracer.py {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return {"attempted": 0, "failed": 0, "messages": [], "spans": [],
                "rounds": {"plain": [], "traced": []}, "resident_growth": [0]}
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _overhead(rounds: dict[str, list[float]]) -> dict:
    """Traced against untraced in-process rounds: medians, and whether the gap
    is larger than the untraced rounds' own spread (else it is noise)."""
    plain, traced = rounds["plain"], rounds["traced"]
    if not plain:
        return {"plain_s": 0.0, "traced_s": 0.0, "pct": 0.0, "plain_spread_pct": 0.0, "resolved": False}
    p, t = statistics.median(plain), statistics.median(traced)
    spread = 100 * (max(plain) - min(plain)) / p
    pct = 100 * (t - p) / p
    return {"plain_s": p, "traced_s": t, "pct": pct, "plain_spread_pct": spread,
            "resolved": abs(pct) > spread}


def trace(root, name, seed, scale="full", label=None):
    """The traced run: per-layer metrics, written with the spans to the work directory.

    At the smoke scale it skips the repeated start-up timing and the overhead
    rounds, which check nothing that the rest does not.
    """
    smoke = scale == "smoke"
    workload = WORKLOADS[name]
    with _session(root, name, seed, scale, label or name) as (workdir, size, tally, runner):
        path = functools.partial(os.path.join, workdir)
        startup_repeats = 1 if smoke else STARTUP_REPEATS
        for _ in range(startup_repeats):
            run_phase(tally, runner.cli, "--version")
        startup = statistics.median(c.wall_s for c in runner.log[-startup_repeats:])
        start = len(runner.log)
        _measure(workload, size, tally, runner, path, seed, 0, 1)
        calls = runner.log[start:]

    resident = _in_process(root, tally, "resident", name, scale, workdir, seed)
    traced = _in_process(root, tally, "traced", name, scale, workdir, seed,
                         0 if smoke else OVERHEAD_ROUNDS)
    tally.attempted += traced["attempted"]
    tally.failed += traced["failed"]
    tally.messages += traced["messages"]
    overhead = _overhead(traced["rounds"])

    spans = traced["spans"]
    t = self_times(spans)

    def s(key: str) -> float:
        return t.get(key, {}).get("s", 0.0)

    def units(key: str) -> int:
        return t.get(key, {}).get("units", 0)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    loads = [sp for sp in spans if sp["name"] == "lm.load"]
    values = {
        "corpus.read_mono.s": s("corpus.read_mono"),
        "corpus.read_parallel.s": s("corpus.read_parallel"),
        "corpus.read_parallel.pairs_per_s": rate(t.get("corpus.read_parallel", {}).get("count", 0),
                                                 s("corpus.read_parallel")),
        "corpus.write_parallel.s": s("corpus.write_parallel"),
        "corpus.write_parallel.mb_per_s": rate(units("corpus.write_parallel") / MIB, s("corpus.write_parallel")),
        "lm.train.s": s("lm.train"),
        "lm.train.tokens_per_s": rate(units("lm.train"), s("lm.train")),
        "lm.save.s": s("lm.save"),
        "lm.save.mb": units("lm.save") / MIB,
        "lm.load.s": s("lm.load"),
        "lm.load.rows_per_s": rate(units("lm.load"), s("lm.load")),
        "lm.load.rss_mb": statistics.median(resident["resident_growth"]) / MIB,
        "lm.rows": max((sp["units"] for sp in loads), default=0),
        "lm.logprob.s": s("lm.logprob"),
        "lm.logprob.events_per_s": rate(units("lm.logprob"), s("lm.logprob")),
        "lm.perplexity.s": s("lm.perplexity"),
        "detect.score_pair.s": s("detect.score_pair"),
        "detect.score_pair.pairs_per_s": rate(t.get("detect.score_pair", {}).get("count", 0),
                                              s("detect.score_pair")),
        "detect.tune_offset.s": s("detect.tune_offset"),
        "detect.select_extremes.s": s("detect.select_extremes"),
        "divergence.divergence_report.s": s("divergence.divergence_report"),
        "divergence.divergence_report.tokens_per_s": rate(
            units("divergence.divergence_report/corpus.read_parallel"), s("divergence.divergence_report")),
        "divergence.random_split.s": s("divergence.random_split"),
        "fmeasure.word_fmeasure.s": s("fmeasure.word_fmeasure"),
        "fmeasure.word_fmeasure.tokens_per_s": rate(units("fmeasure.word_fmeasure"), s("fmeasure.word_fmeasure")),
        "abstraction.abstract_corpus.s": s("abstraction.abstract_corpus"),
        "abstraction.fluency_report.s": s("abstraction.fluency_report"),
        "dataprep.bias_tag.s": s("dataprep.bias_tag"),
        "dataprep.finetune_split.s": s("dataprep.finetune_split"),
        "dataprep.merge_augment.s": s("dataprep.merge_augment"),
        "fileio.read_tsv.s": s("fileio.read_tsv"),
        "fileio.read_tsv.rows_per_s": rate(units("fileio.read_tsv"), s("fileio.read_tsv")),
        "fileio.atomic_write.s": s("fileio.atomic_write") + s("fileio.atomic_write_bytes"),
        "cli.startup.s": startup,
        "cli.invocations": len(calls),
        "cli.glue.s": sum(v["s"] for k, v in t.items() if k.startswith("cli.") and "/" not in k),
        **{f"cli.{sub}.s": sum(c.wall_s for c in calls if c.command == sub) for sub in SUBCOMMANDS},
        "trace.plain_s": overhead["plain_s"],
        "trace.traced_s": overhead["traced_s"],
        "trace.overhead_pct": overhead["pct"],
    }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    with open(path("layers.json"), "w", encoding="utf-8") as handle:
        json.dump({"self_times": t, "overhead": overhead, "rounds": traced["rounds"],
                   "metrics": metrics}, handle, indent=1)
    return tally, metrics, {"subprocess_s": _phase_totals(calls)[0], "overhead": overhead}


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


def smoke(root: str) -> int:
    """Every workload's traced run at the smoke scale: all steps, all checks."""
    ok = True
    expected_layers = None
    spec = os.path.join(root, "BENCHMARK.json")
    if os.path.isfile(spec):
        with open(spec, encoding="utf-8") as handle:
            expected_layers = [m["name"] for m in json.load(handle)["per_layer"]]
    for name in WORKLOADS:
        started = time.perf_counter()
        tally, metrics, _ = trace(root, name, 1, "smoke", f"smoke-{name}")
        if expected_layers is not None and list(metrics) != expected_layers:
            tally.fail("per-layer names differ from BENCHMARK.json")
        ok = ok and tally.failed == 0
        print(f"{name}: attempted={tally.attempted} failed={tally.failed} "
              f"({time.perf_counter() - started:.1f} s)")
        for message in tally.messages:
            print(f"  {message}")
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads at a tiny scale")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "covbias", "cli.py")):
        print("bench: run from the root of a covbias checkout (src/covbias not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    if args.trace:
        tally, metrics, info = trace(root, args.workload, args.seed)
    else:
        tally, metrics, info = measure(root, args.workload, args.seed, args.seconds)
    for message in tally.messages:
        print(message, file=sys.stderr)
    print(json.dumps(info))
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
