#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload paper --runs 10 [--first-seed 1]

Runs perfbench/run.py --trace 0 once per seed and prints, for each
end-to-end metric, the median of the runs and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: run not correct" % seed)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = metrics.quartile_spread(vals)
        print("%-26s median %-12.6g spread %.4f  bound %.2f  %s"
              % (m["name"], metrics.median(vals), spread, m["bound"],
                 "ok" if spread < m["bound"] / 3 else
                 ("within bound" if spread <= m["bound"] else "TOO WIDE")))


if __name__ == "__main__":
    main()
