#!/usr/bin/env python3
"""Build and run the OTEM repository benchmark for one workload.

    python3 otembench/run.py --workload serve-stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The script configures and builds
otembench/ (a CMake package that compiles ../src in Release) into
.bench_build/otembench, runs the benchmark binary, checks that it emitted every
metric BENCHMARK.json names for the chosen mode (end-to-end with
--trace 0, per-layer with --trace 1), stamps the host context and
prints the result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The full result document, host context included, is written to
.bench_build/results/. Exit status: 0 when every correctness check
passed, 1 when one failed (the result line still prints), 2 on a build,
usage or runtime error (no result line).
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "otembench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"otembench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    # Configure every time (a no-op when nothing changed) so a build tree
    # left by an older otembench/CMakeLists.txt picks up its targets.
    run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "otembench",
               "-j", jobs], timeout=850)
    return os.path.join(BUILD_DIR, "otembench")


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return list(os.getloadavg())


def cpu_times():
    """The aggregate 'cpu' line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ... in clock ticks (None elsewhere)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of all CPU time the hypervisor gave to other guests while
    the benchmark ran: the noise a virtual host adds that load average
    cannot see."""
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total > 0 else 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_digest():
    """SHA-256 over the library and benchmark sources (stands in for the
    commit when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # The binary refuses unknown workloads; besides those BENCHMARK.json
    # lists it runs serve-stream (README.md, "Workloads").
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    if os.path.exists(out_path):
        os.remove(out_path)

    load_before = loadavg()
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--out", out_path],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    load_after = loadavg()
    steal = steal_pct(cpu_before, cpu_times())
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        fail(f"benchmark exited with {proc.returncode}")
    with open(out_path) as f:
        doc = json.load(f)

    ncpu = cpus()
    host = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": ncpu,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "build": doc.get("build"),
        # A fixed CPU loop timed before and after the workload [ms].
        "calibration_ms": doc.get("calibration_ms"),
        "steal_pct": steal,
        # Busy: the 1-minute load was already above 3/4 of the CPUs before
        # the run started, or the hypervisor took more than 5% of the CPU
        # time during it. Reported, never hidden or retried away.
        "host_busy": load_before[0] > 0.75 * ncpu or (steal or 0.0) > 5.0,
    }
    doc["host"] = host
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
    if host["host_busy"]:
        print(f"otembench: WARNING host busy (loadavg {load_before[0]:.2f} "
              f"on {ncpu} CPUs before the run, steal {steal or 0.0:.1f}% "
              f"during it)", file=sys.stderr)
    print("host: " + json.dumps(host, sort_keys=True))

    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            fail(f"benchmark did not emit metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))
    return 0 if doc["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
