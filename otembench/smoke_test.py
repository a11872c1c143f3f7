#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a short length.

    python3 otembench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json, and
for serve-stream, in both modes it runs otembench/run.py with --seconds 1
and requires that the last output line is the result object with exactly
the keys
correct/attempted/failed/metrics, that every metric BENCHMARK.json names
for that mode is present with its unit and a finite value, and that
every correctness check passed. It then runs the benchmark in a
directory holding only BENCHMARK.json and the benchmark's own files and
requires a non-zero exit without a result line. Exits non-zero on the
first failure. Takes a few minutes (the minimum work per workload is
fixed, and the first run builds).
"""
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, args, timeout):
    return subprocess.run([sys.executable, "otembench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


def fail(message):
    print(f"smoke_test: FAIL {message}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # serve-stream is not in BENCHMARK.json but stays runnable (README.md).
    for workload in [w["name"] for w in spec["workloads"]] + ["serve-stream"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)], 900)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-3000:])
                fail(f"{label}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{label}: correctness checks failed")
            if result["attempted"] < 1:
                fail(f"{label}: nothing attempted")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None:
                    fail(f"{label}: metric {m['name']} missing")
                if got["unit"] != m["unit"]:
                    fail(f"{label}: {m['name']} unit {got['unit']}")
                if not math.isfinite(got["value"]):
                    fail(f"{label}: {m['name']} not finite")
            if sorted(result["metrics"]) != sorted(m["name"] for m in spec[key]):
                fail(f"{label}: unexpected metrics emitted")
            print(f"smoke_test: ok {label} ({len(spec[key])} metrics)")

    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, ["--workload", spec["workloads"][0]["name"], "--seed", "7",
                      "--seconds", "1", "--trace", "0"], 180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("benchmark without the library sources did not fail cleanly")
    print("smoke_test: ok bare directory fails without a result")


if __name__ == "__main__":
    main()
