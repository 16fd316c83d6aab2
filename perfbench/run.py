#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_case1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --aa 5 [--seconds 30]

A workload run configures and builds perfbench/ (which compiles the
library sources under src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the benchmark
binary and passes its output through.  The last line of standard
output is the result object.  Traced runs also leave a Chrome trace
and a per-layer summary in <build>/out/.

--aa N runs two interleaved sets (A B A B ...) of N runs of every
workload on one build, each run with its own seed, and prints for
each workload and end-to-end metric each set's median and quartiles,
the gap between the medians and the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return out


def bench_command(out, workload, seed, seconds, trace):
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    return [os.path.join(out, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", results,
            "--golden", os.path.join(ROOT, "tests", "golden",
                                     "optimizer_case_study.golden")]


def run_once(out, workload, seed, seconds, trace, capture):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run(
            bench_command(out, workload, seed, seconds, trace), cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aa_mode(out, runs, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = seconds or spec["run_seconds"]
    values = {(w, s): {n: [] for n in names}
              for w in workloads for s in "AB"}
    seed = 100
    for i in range(runs):
        for set_name in "AB":
            for w in workloads:
                seed += 1
                code, text = run_once(out, w, seed, seconds, 0, True)
                lines = text.strip().splitlines()
                result = json.loads(lines[-1]) if code == 0 and lines \
                    else None
                if not result or not result["correct"]:
                    sys.exit("perfbench: %s seed %d failed" % (w, seed))
                for n in names:
                    values[(w, set_name)][n].append(
                        result["metrics"][n]["value"])
                print("run %d%s %s seed %d done" % (i + 1, set_name, w,
                                                    seed), flush=True)
    print("%-15s %-16s %-31s %-31s %8s %9s %6s" % (
        "workload", "metric", "A median [q1, q3] spread",
        "B median [q1, q3] spread", "gap", "all-spread", "bound"))
    for w in workloads:
        for n in names:
            a = values[(w, "A")][n]
            b = values[(w, "B")][n]
            cells = []
            for v in (a, b):
                q1, med, q3 = quartiles(v)
                cells.append("%9.4g [%9.4g, %9.4g] %5.3f" % (
                    med, q1, q3, (q3 - q1) / med))
            ma = statistics.median(a)
            mb = statistics.median(b)
            q1, med, q3 = quartiles(a + b)
            print("%-15s %-16s %s %s %+8.3f %9.3f %6.2f" % (
                w, n, cells[0], cells[1], (mb - ma) / ma,
                (q3 - q1) / med, bounds[n]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N")
    args = parser.parse_args()

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    if args.aa:
        aa_mode(out, args.aa, args.seconds)
        return
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_once(out, args.workload, args.seed, args.seconds or 10,
                       args.trace, False)
    sys.exit(code)


if __name__ == "__main__":
    main()
