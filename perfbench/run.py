#!/usr/bin/env python3
"""Builds and runs the qclab-cpp end-to-end job benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qasm-jobs --seed 1 --seconds 10 --trace 0

The library and the benchmark binary are built from the checkout's sources
into .bench_build/ on first use (Release, CMake).  The binary runs one
workload as a closed loop with one client and prints the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1);
the last line of standard output is one JSON object.  Build logs go to
standard error.  --self-test checks that a corrupted result is counted as
failed and prints no metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qclab_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "qclab", "qclab.hpp")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
        run_logged(["cmake", "--build", BUILD_DIR, "-j", "2",
                    "--target", "qclab_perfbench"])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    # The OpenMP pool is capped at a fixed size so runs are comparable.
    threads = min(4, os.cpu_count() or 1)
    env = dict(os.environ, OMP_NUM_THREADS=str(threads), OMP_DYNAMIC="false")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.self_test:
        cmd.append("--self-test")
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        fail(f"benchmark exited with {result.returncode}")
    if args.self_test:
        sys.stdout.write(result.stdout)
        return
    # Guard against the binary's metric list drifting from BENCHMARK.json.
    report = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if sorted(report["metrics"]) != sorted(names):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(report['metrics']) ^ set(names))}")
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
