#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py

Run it from the root of a checkout. For each of SETS sets and each workload
in BENCHMARK.json it runs perfbench/run.py RUNS times for run_seconds each,
each time with another seed (set k uses seeds 1000*k+1 .. 1000*k+RUNS), and
reports per set each end-to-end metric's median and quartiles
(statistics.quantiles(values, n=4)) and its spread, the distance between
the quartiles as a share of the median.

It flags a metric when
  * its spread in a set exceeds the metric's bound in BENCHMARK.json, or
  * a later set's median is worse than the first set's by more than the
    bound (in the metric's "better" direction).
Spreads above a third of the bound are marked "loose". Exits 1 if anything
is flagged or a run fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # seeds per set
SETS = 2


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    flagged = []
    for workload in [w["name"] for w in spec["workloads"]]:
        medians = {}
        for k in range(SETS):
            rows = []
            for r in range(RUNS):
                seed = 1000 * k + r + 1
                values = run_once(workload, seed, spec["run_seconds"])
                if values is None:
                    flagged.append(f"{workload} seed {seed}: run failed")
                    print(f"{workload} seed {seed}: FAILED", flush=True)
                    continue
                rows.append(values)
            if len(rows) < 2:
                continue
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                values = [row[name] for row in rows]
                median, q1, q3, spread = summarize(values)
                note = ""
                if spread > bound:
                    note = "SPREAD OVER BOUND"
                    flagged.append(f"{workload} set {k} {name} spread "
                                   f"{spread:.3f} > {bound}")
                elif spread > bound / 3:
                    note = "loose"
                if k > 0 and name in medians:
                    worse = worse_by(medians[name], median, metric["better"])
                    if worse > bound:
                        note += " MEDIAN DRIFT"
                        flagged.append(f"{workload} set {k} {name} median "
                                       f"{worse:+.3f} worse than set 0")
                medians.setdefault(name, median)
                print(f"{workload:14s} set {k} {name:12s} median {median:14.6g}"
                      f"  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}"
                      f" (bound {bound}) {note}", flush=True)
    for line in flagged:
        print("FLAG:", line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
