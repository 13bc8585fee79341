#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mouse_flows --seed 1 --seconds 10 --trace 0

Builds the rlir library with the repository's own CMake (tests, benches and
examples off), installs it under .bench_build/rlir-install, builds perfbench/
against the installed package (find_package(rlir)), then runs pipeline_bench
with the given arguments. Build output goes to .bench_build/build.log; the
benchmark's output, ending in one JSON line, goes to stdout. Exits non-zero
when the build fails or the benchmark's checks fail.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = "4"
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    lib = os.path.join(BUILD, "rlir")
    install = os.path.join(BUILD, "rlir-install")
    bench = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(lib, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=Release",
                      "-DRLIR_BUILD_TESTS=OFF", "-DRLIR_BUILD_BENCH=OFF",
                      "-DRLIR_BUILD_EXAMPLES=OFF"])
    steps.append(["cmake", "--build", lib, "-j", JOBS])
    steps.append(["cmake", "--install", lib, "--prefix", install])
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bench,
                      "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_PREFIX_PATH=" + install])
    steps.append(["cmake", "--build", bench, "-j", JOBS])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, check=True)
            except (OSError, subprocess.CalledProcessError) as e:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build step failed (%s); log: %s\n" % (e, log_path))
                sys.exit(1)
    return os.path.join(bench, "pipeline_bench")


def main():
    exe = build()
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
