#!/usr/bin/env python3
"""Wall-clock Apply benchmark: build, self-test, run one workload, verify.

Usage (from the repository root):

    python3 perfbench/run.py --workload coulomb-k10 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the repository sources it compiles) into
.bench_build/perfbench with CMake in Release mode, runs the metric
derivation self-test, then runs mh_perfbench with the given arguments.
With --trace 1 the span trace is written to .bench_build/traces/ and
validated with mh_trace_analyze --check. All of mh_perfbench's report lines
are echoed; the last stdout line is the result JSON
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
TARGETS = ["mh_perfbench", "mh_perfbench_selftest", "mh_trace_analyze"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources not found at " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
        stdout=sys.stderr)
    if made.returncode != 0:
        fail("build failed")


def run(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    selftest = run([os.path.join(BUILD, "mh_perfbench_selftest")])
    print(selftest.stdout, end="")
    cmd = [os.path.join(BUILD, "mh_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        trace_path = os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    bench = run(cmd)
    lines = bench.stdout.rstrip("\n").split("\n")
    if bench.returncode != 0 or not lines[-1].startswith("{"):
        print("\n".join(lines), file=sys.stderr)
        fail("mh_perfbench exited with %d" % bench.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["correct"] = bool(result["correct"]) and selftest.returncode == 0

    if trace_path is not None:
        check = run([os.path.join(BUILD, "mh_trace_analyze"), trace_path,
                     "--check"])
        tail = check.stdout.strip().split("\n")[-1] if check.stdout else ""
        print("trace %s: %s" % (os.path.relpath(trace_path, ROOT), tail))
        result["correct"] = result["correct"] and check.returncode == 0

    print(json.dumps(result))


if __name__ == "__main__":
    main()
