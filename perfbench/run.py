#!/usr/bin/env python3
"""Runs one workload of the MSRA benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark (perfbench/
CMakeLists.txt, which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build, runs the msra_perfbench binary, checks its result against
BENCHMARK.json and prints the result as the last line of stdout: one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics, with --trace 1 the per-layer
metrics; the traced run also writes its spans to
.bench_out/trace-<workload>-<seed>.json (Chrome trace-event JSON).

Exits non-zero, without a result line, when the build fails or the result
does not match BENCHMARK.json, and non-zero after the result line when an
output check of the workload failed (correct is then false).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # a run must end within 180 s ...
FIRST_RUN_LIMIT_S = 880  # ... or 900 s when it also builds the benchmark
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds msra_perfbench; returns the binary's path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "msra_perfbench",
              "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "msra_perfbench")


def check_result(result, expected):
    """Raises ValueError unless `result` has the contract's shape and
    exactly the metrics (names and units) of `expected`."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        raise ValueError(f"metric names {sorted(set(metrics) ^ set(want))} "
                         "differ from BENCHMARK.json")
    for name, metric in metrics.items():
        if not NAME.match(name):
            raise ValueError(f"bad metric name {name}")
        if set(metric) != {"value", "unit"} or metric["unit"] != want[name]:
            raise ValueError(f"metric {name} has the wrong shape or unit")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    start = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    built = time.monotonic() - start
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    limit = FIRST_RUN_LIMIT_S if built > 10 else RUN_LIMIT_S
    budget = limit - (time.monotonic() - start)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {budget:.0f} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        check_result(result, spec["per_layer" if args.trace else "end_to_end"])
    except ValueError as error:  # json.JSONDecodeError is a ValueError
        fail(f"bad result ({error}); exit code {done.returncode}")
    if result["correct"] != (done.returncode == 0):
        fail(f"exit code {done.returncode} disagrees with correct="
             f"{result['correct']}")
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
