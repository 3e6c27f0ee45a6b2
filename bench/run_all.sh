#!/usr/bin/env bash
# Runs the figure benchmarks and collects machine-readable summaries
# (BENCH_fig6.json ... BENCH_fig10.json and the feature benches) in one place.
#
# Usage:   bench/run_all.sh [BUILD_DIR] [OUT_DIR]
# Default: BUILD_DIR=build, OUT_DIR=bench-results
# Env:     MSRA_FULL_SCALE=1 for the paper's Table 2 scale.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
BENCH_DIR="${BUILD_DIR}/bench"

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

run() {
  local name="$1" fig="$2"
  echo "==> ${name}"
  "${BENCH_DIR}/${name}" --json "${OUT_DIR}/BENCH_${fig}.json"
  echo
}

run bench_fig6_localdisk  fig6
run bench_fig7_remotedisk fig7
run bench_fig8_remotetape fig8
run bench_fig9_astro3d    fig9
run bench_fig10_postproc  fig10
run bench_migration       migration
run bench_contention      contention
run bench_fleet           fleet
run bench_cache           cache
run bench_cluster         cluster
run bench_qos             qos
run bench_flow            flow

echo "Summaries:"
ls -l "${OUT_DIR}"/BENCH_*.json

# Parity guard: the simulated testbed is deterministic, so the figure
# summaries must be byte-identical to the committed baselines. Any drift
# means a code change altered the virtual-time model — intended changes
# must re-commit bench/baselines/. (The baselines hold the reduced-scale
# numbers, so the guard only applies without MSRA_FULL_SCALE.)
if [[ "${MSRA_FULL_SCALE:-0}" != "1" ]]; then
  BASELINE_DIR="$(dirname "$0")/baselines"
  drift=0
  for fig in fig6 fig7 fig8 fig9 fig10 migration contention fleet cache cluster qos flow; do
    if ! diff -u "${BASELINE_DIR}/BENCH_${fig}.json" \
                 "${OUT_DIR}/BENCH_${fig}.json"; then
      echo "PARITY DRIFT: ${fig} differs from ${BASELINE_DIR}" >&2
      drift=1
    fi
  done
  if [[ "${drift}" != "0" ]]; then
    echo "bench parity check FAILED (see diffs above)" >&2
    exit 1
  fi
  echo "bench parity check passed: summaries match committed baselines"
fi
