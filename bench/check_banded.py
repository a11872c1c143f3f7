#!/usr/bin/env python3
"""Fail when the banded KKT path stops being O(H), or exceeds its iteration ceilings.

Reads a google-benchmark JSON file (as written by perf_solver with
--benchmark_out) and inspects the warm BM_LtvControlStep/{horizon}/1
rows. Two block-operation counters are gated, each the number of
fixed-size stage-block kernel applications (block Cholesky factor +
solve sweeps, stage matvecs) per unit of work:

  stage_ops_per_iter    ADMM block ops per ADMM iteration
  polish_ops_per_round  polish block ops per working-set round

They are counted apart so neither cost is amortised over the other's
denominator. On the block-tridiagonal factorisation both are linear in
the horizon by construction, so each counter divided by the horizon
must be the SAME constant at every horizon. A superlinear regression —
someone sneaking a dense operation back onto the hot path — shows up as
that constant growing with H and fails the gate.

Third, the iteration gate: admm_iters_mean of the warm
BM_LtvControlStep/H/1 row must not exceed the committed ceiling for that
horizon (DENSE_ITERATION_CEILINGS below). The ceilings are the last
measured warm mean iteration counts of the condensed dense LTV path on
the same control-step sequence, from BENCH_solver.json as committed just
before that path was deleted (Release build, 4-CPU Xeon host): the
banded solver must stay at least as iteration-efficient as the path it
replaced. A banded horizon with no ceiling fails the gate.

The gates run on exact COUNTS, not wall-clock: counts are
machine-independent, so loaded CI runners can't flake them (same policy
as check_warm_start.py).

Solution agreement with an independent condensed (dense) transcription
is property-tested in tests/test_banded_kkt.cpp, which the
solver-perf-smoke CI job runs alongside this gate.

Usage: check_banded.py BENCH_solver.json [--max-ratio-spread 1.35]

Exit code 1 when a counter's per-horizon constants spread by more than
--max-ratio-spread (max/min), when fewer than two horizons are present
(a renamed benchmark can't silently disable the gate), when a banded
horizon exceeds (or lacks) its iteration ceiling, or when the JSON was
not produced from a Release build of this repo.
"""

import argparse
import re
import sys

import checklib

NAME_RE = re.compile(r"^BM_LtvControlStep/(\d+)/1\b")
OPS_COUNTERS = ("stage_ops_per_iter", "polish_ops_per_round")
# Warm mean ADMM iterations per control step of the deleted dense LTV
# path, from the last BENCH_solver.json that measured it (Release,
# 4-CPU Xeon host).
DENSE_ITERATION_CEILINGS = {10: 134.81, 30: 198.48, 60: 372.5}


def collect(benchmarks):
    """horizon -> warm BM_LtvControlStep row."""
    out = {}
    for b in checklib.iteration_rows(benchmarks):
        m = NAME_RE.match(b["name"])
        if m:
            out[int(m.group(1))] = b
    return out


def check_linear(banded, counter, budget):
    """Print the per-horizon constants of `counter`; True on failure."""
    print(f"{'horizon':>7}  {counter:>22}  {'/H':>8}")
    constants = {}
    for horizon in sorted(banded):
        ops = float(banded[horizon].get(counter, 0.0))
        if ops <= 0.0:
            print(f"error: horizon {horizon} reports no {counter} "
                  "— the banded path did not run", file=sys.stderr)
            return True
        constants[horizon] = ops / horizon
        print(f"{horizon:>7}  {ops:>22.1f}  {constants[horizon]:>8.2f}")
    spread = max(constants.values()) / min(constants.values())
    print(f"{counter} per-horizon constant spread (max/min): "
          f"{spread:.3f} (budget {budget:g})")
    if spread > budget:
        print(f"error: {counter} is not growing linearly in the horizon",
              file=sys.stderr)
        return True
    return False


def check_iterations(banded):
    """Warm step mean ADMM iterations <= the committed ceiling."""
    failed = False
    print(f"{'horizon':>7}  {'banded iters':>12}  {'ceiling':>12}")
    for horizon in sorted(banded):
        ours = float(banded[horizon].get("admm_iters_mean", float("nan")))
        if horizon not in DENSE_ITERATION_CEILINGS:
            print(f"error: no iteration ceiling for horizon {horizon}",
                  file=sys.stderr)
            failed = True
            continue
        ceiling = DENSE_ITERATION_CEILINGS[horizon]
        flag = ""
        if not ours <= ceiling:
            flag = "  <-- above the ceiling"
            failed = True
        print(f"{horizon:>7}  {ours:>12.1f}  {ceiling:>12.1f}{flag}")
    if failed:
        print("error: the banded warm step must not need more ADMM "
              "iterations than the committed ceiling", file=sys.stderr)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--max-ratio-spread", type=float, default=1.35)
    args = ap.parse_args()

    data = checklib.load_release_bench(args.bench_json)
    banded = collect(data["benchmarks"])
    if len(banded) < 2:
        print("error: need warm BM_LtvControlStep rows at >= 2 horizons "
              f"in {args.bench_json}", file=sys.stderr)
        return 1

    failed = False
    for counter in OPS_COUNTERS:
        failed |= check_linear(banded, counter, args.max_ratio_spread)
    failed |= check_iterations(banded)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
