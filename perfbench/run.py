#!/usr/bin/env python3
"""End-to-end benchmark of the ppr library: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload in one
single-threaded process, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, a layer that does not run on the workload reading 0,
and the run also writes a Chrome trace under .bench_out/.

Steadiness mode runs one workload N times, each in its own process with
its own seed, and prints the median, quartiles and spread (interquartile
range over median) of every end-to-end metric:

    python3 perfbench/run.py --steady 10 --workload NAME --seconds S
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testbed_sweep", "stream_window")
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 100


def note(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ppr", "link.h")):
        note("perfbench: no ppr sources next to perfbench/ (src/ is missing)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            note(f"perfbench: build step failed: {err}")
            return None
        if proc.returncode != 0:
            note(proc.stdout[-4000:])
            note(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def validate_trace(path):
    """Checks the Chrome trace with the repository's trace validator."""
    validator = os.path.join(ROOT, "bench", "validate_trace.py")
    proc = subprocess.run([sys.executable, validator, "--chrome", path,
                           "--min-events", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120)
    if proc.returncode != 0:
        note(proc.stdout[-2000:])
    return proc.returncode == 0


def run_once(args):
    binary = build()
    if binary is None:
        return 1
    end_to_end, per_layer = metric_spec()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(
            ROOT, ".bench_out", f"trace_{args.workload}_{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        note("perfbench: workload did not finish in time")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        note(f"perfbench: benchmark binary exited {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and not args.trace:
            note(f"perfbench: end-to-end metric {m['name']} missing")
            result["correct"] = False
        value = got["value"] if got else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        if not validate_trace(trace_path):
            result["correct"] = False
        width = max(len(name) for name in metrics)
        print(f"per-layer metrics, workload {args.workload} "
              "(0 = layer not run by this workload):")
        for name, m in metrics.items():
            print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def steady(args):
    """Runs the workload args.steady times in separate processes."""
    if build() is None:
        return 1
    end_to_end, _ = metric_spec()
    values = {m["name"]: [] for m in end_to_end}
    shares = []
    for i in range(args.steady):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            note(f"seed {seed}: run failed")
            return 1
        result = json.loads(lines[-1])
        note(f"seed {seed}: " + json.dumps(result))
        if not result["correct"]:
            note(f"seed {seed}: output checks failed")
            return 1
        shares.append(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"workload {args.workload}: {args.steady} runs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.steady - 1}")
    print(f"  failed share per run: {sorted(set(shares))}")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"  {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bounds[name]:>6}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run N times, one process and seed each, and "
                             "print the spread of each end-to-end metric")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return steady(args) if args.steady else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
