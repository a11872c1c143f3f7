#!/usr/bin/env bash
# run_benchmarks.sh — regenerate BENCH_campaign.json and
# BENCH_solver.json, the perf trajectories later changes regress against.
#
# Usage: bench/run_benchmarks.sh [--allow-debug] [build-dir]
#
# Refuses non-Release build trees: debug numbers are useless as a
# baseline and have silently polluted the checked-in JSON before. The
# guard reads CMakeCache.txt because the JSON's own
# context.library_build_type reports how the google-benchmark LIBRARY
# was built (preinstalled as debug here), not how this repo's code was
# compiled. The bench binaries additionally self-stamp
# context.repo_build_type ("release" iff compiled with NDEBUG), and
# every bench/check_*.py gate refuses JSON without a "release" stamp —
# so even a file produced by bypassing this script can't become a
# committed baseline. Pass --allow-debug to measure a debug build
# anyway (throwaway local profiling only — the gates will reject it).
#
# BENCH_campaign.json (perf_campaign), measured the way the CI overhead
# step measures it — 5 repetitions, min_time 0.3, random interleaving —
# so the committed record and the CI gate agree:
#   - BM_Campaign/N             campaign::run_campaign wall-clock at N
#                               worker threads (16 routes x parallel)
#   - BM_CampaignMetrics/N      the same campaign with a metrics registry
#                               attached (instrumentation overhead)
#   - BM_CampaignTraced/N       metrics + the span tracer enabled (the
#                               tracing-on overhead check_overhead.py
#                               also holds to the < 5% budget)
#   - BM_ObsCounterAdd etc.     obs primitive micro-costs, including
#                               BM_ObsSketchRecord and the
#                               BM_TraceSpan{Enabled,Disabled} pair
# BENCH_solver.json (perf_solver):
#   - BM_MpcForward[Backward]/h rollout + adjoint micro-costs
#   - BM_OtemSolve/h            full augmented-Lagrangian control steps
#   - BM_LtvControlStep/{h,w}   LTV-QP control step (banded KKT), cold
#                               vs warm —
#                               admm_iters_mean / admm_iters_median are
#                               what bench/check_warm_start.py gates on;
#                               stage_ops_per_iter (ADMM block ops
#                               per iteration), polish_ops_per_round
#                               (polish block ops per working-set
#                               round) and the warm admm_iters_mean
#                               (against committed per-horizon
#                               ceilings) are what
#                               bench/check_banded.py gates on;
#                               solve_p50_us / solve_p95_us /
#                               solve_p99_us are sketch-derived per-solve
#                               latency quantiles (the ECU tail budget)
# Derive the headline numbers as
#   campaign speedup = real_time(threads=1) / real_time(threads=8)
#   warm-start win = 1 - admm_iters_median(w=1) / admm_iters_median(w=0)
# CI gates:
#   python3 bench/check_overhead.py BENCH_campaign.json  (< 5% overhead)
#   python3 bench/check_warm_start.py BENCH_solver.json --min-percent 85
#                                                        (>= 85% fewer iters)
#   python3 bench/check_banded.py BENCH_solver.json      (O(H) block ops,
#                                                        iters <= ceilings)
set -euo pipefail

ALLOW_DEBUG=0
if [[ "${1:-}" == "--allow-debug" ]]; then
  ALLOW_DEBUG=1
  shift
fi

BUILD_DIR="${1:-build}"
CAMPAIGN_BIN="$BUILD_DIR/bench/perf_campaign"
SOLVER_BIN="$BUILD_DIR/bench/perf_solver"

for BIN in "$CAMPAIGN_BIN" "$SOLVER_BIN"; do
  if [[ ! -x "$BIN" ]]; then
    echo "error: $BIN not found — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

# Baselines must come from an optimised build.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
if [[ "$BUILD_TYPE" != "Release" && "$ALLOW_DEBUG" != 1 ]]; then
  echo "error: $BUILD_DIR is built as '${BUILD_TYPE:-unknown}', not Release." >&2
  echo "Benchmark baselines from unoptimised builds are meaningless;" >&2
  echo "reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass" >&2
  echo "--allow-debug for throwaway local numbers (do not commit them)." >&2
  exit 1
fi

# The CI overhead step's repetitions, min_time and interleaving: the
# overhead gate compares minima across repetitions, and a single
# repetition of each row is too noisy to hold a 5 % budget.
"$CAMPAIGN_BIN" \
  --benchmark_out=BENCH_campaign.json \
  --benchmark_out_format=json \
  --benchmark_repetitions=5 \
  --benchmark_min_time=0.3 \
  --benchmark_enable_random_interleaving=true

echo "wrote BENCH_campaign.json"

"$SOLVER_BIN" \
  --benchmark_out=BENCH_solver.json \
  --benchmark_out_format=json \
  --benchmark_min_time=0.5

echo "wrote BENCH_solver.json"
