#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of an InstantDB checkout.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

Builds perfbench (CMake, Release) from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs the benchmark's self-tests,
then the workload. Standard output ends with the result line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every run also writes its full result (run description, both metric kinds)
to <build dir>/results/ and, traced, its spans to <build dir>/traces/;
perfbench/report.py summarizes them. Exits non-zero when the build, the
self-tests or a correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", cmake_dir, "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return cmake_dir


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("PERFBENCH_GIT_SHA", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmake_dir = build(build_dir)
    if cmake_dir is None:
        log("build failed")
        return 1
    selftest = subprocess.run([os.path.join(cmake_dir, "perfbench_selftest"),
                               os.path.join(build_dir, f"selftest-{os.getpid()}")],
                              stdout=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        log("self-tests failed")
        return 1

    results = os.path.join(build_dir, "results")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(results, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    data_dir = os.path.join(build_dir, f"data-{os.getpid()}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [os.path.join(cmake_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--data-dir", data_dir,
           "--out", os.path.join(results, stem + ".json"),
           "--git-sha", git_sha()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(traces, stem + ".csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
