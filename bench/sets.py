"""Run one workload once per seed and report the spread of each end-to-end metric.

    python3 bench/sets.py --workload detect-score --seeds 1-10

Each run is the command of BENCHMARK.json with its run_seconds and --trace 0.
For each metric it prints the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. The result lines of
the runs are appended to bench/work/sets-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_path = os.path.join(HERE, "work", f"sets-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    results = []
    for seed in args.seeds:
        command = [sys.executable, *spec["command"][1:], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {shown}")
    if len(results) < 2:
        return 0
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "within a third" if spread < bound / 3 else "within" if spread <= bound else "OVER"
        print(f"{name:12s} median={median:.4f} spread={spread:.4f} bound={bound} ({verdict})")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
