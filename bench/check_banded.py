#!/usr/bin/env python3
"""Fail when the banded KKT path stops being O(H), or out-iterates dense.

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

Third, the iteration gate: the warm banded step must need no more ADMM
iterations than the dense oracle on the same sequence, i.e.
admm_iters_mean of BM_LtvControlStep/H/1 <= that of
BM_LtvControlStepDense/H/1 at every banded horizon present. A missing
dense row fails the gate.

The gates run on exact COUNTS, not wall-clock: counts are
machine-independent, so loaded CI runners can't flake them (same policy
as check_warm_start.py).

Also asserts the dense oracle rows report zero stage ops — the counters
must not leak across paths. Solution agreement between the two paths is
property-tested in tests/test_banded_kkt.cpp, which the
solver-perf-smoke CI job runs alongside this gate.

Usage: check_banded.py BENCH_solver.json [--max-ratio-spread 1.35]

Exit code 1 when a counter's per-horizon constants spread by more than
--max-ratio-spread (max/min), when fewer than two horizons are present
(a renamed benchmark can't silently disable the gate), when a banded
horizon out-iterates (or lacks) its dense row, or when the JSON was not
produced from a Release build of this repo.
"""

import argparse
import re
import sys

import checklib

NAME_RE = re.compile(r"^(BM_LtvControlStep(?:Dense)?)/(\d+)/1\b")
OPS_COUNTERS = ("stage_ops_per_iter", "polish_ops_per_round")


def collect(benchmarks):
    """bench name -> {horizon -> row}."""
    out = {}
    for b in checklib.iteration_rows(benchmarks):
        m = NAME_RE.match(b["name"])
        if m:
            out.setdefault(m.group(1), {})[int(m.group(2))] = b
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


def check_iterations(banded, dense):
    """Banded warm step <= dense warm step on mean ADMM iterations."""
    failed = False
    print(f"{'horizon':>7}  {'banded iters':>12}  {'dense iters':>12}")
    for horizon in sorted(banded):
        ours = float(banded[horizon].get("admm_iters_mean", float("nan")))
        if horizon not in dense or "admm_iters_mean" not in dense[horizon]:
            print(f"error: no BM_LtvControlStepDense/{horizon}/1 row with "
                  "admm_iters_mean to compare against", file=sys.stderr)
            failed = True
            continue
        theirs = float(dense[horizon]["admm_iters_mean"])
        flag = ""
        if not ours <= theirs:
            flag = "  <-- banded out-iterates dense"
            failed = True
        print(f"{horizon:>7}  {ours:>12.1f}  {theirs:>12.1f}{flag}")
    if failed:
        print("error: the banded warm step must not need more ADMM "
              "iterations than the dense oracle", file=sys.stderr)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json")
    ap.add_argument("--max-ratio-spread", type=float, default=1.35)
    args = ap.parse_args()

    data = checklib.load_release_bench(args.bench_json)
    rows = collect(data["benchmarks"])

    banded = rows.get("BM_LtvControlStep", {})
    dense = rows.get("BM_LtvControlStepDense", {})
    if len(banded) < 2:
        print("error: need warm BM_LtvControlStep rows at >= 2 horizons "
              f"in {args.bench_json}", file=sys.stderr)
        return 1

    failed = False
    for counter in OPS_COUNTERS:
        failed |= check_linear(banded, counter, args.max_ratio_spread)
    failed |= check_iterations(banded, dense)

    for horizon, row in sorted(dense.items()):
        for counter in OPS_COUNTERS:
            ops = float(row.get(counter, 0.0))
            if ops != 0.0:
                print(f"error: dense path reports {ops} {counter} at "
                      f"horizon {horizon}; the counter leaked",
                      file=sys.stderr)
                failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
