#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <train|train_dist|eval|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures the
repository's own top-level CMake project with perfbench/hook.cmake injected
and builds only the `perfbench` target (and the libraries it links) in
.bench_build/. It configures again when that tree lacks the hook or was
configured from another source directory. So the benchmark measures the
default build the tier-1 tests prove. The last stdout line is the result
JSON; build output goes to stderr. Exits non-zero when the build fails, a
correctness check fails, or the run does not finish in time.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HOOK = os.path.join(HERE, "hook.cmake")
RUN_TIMEOUT_S = 170


def cache_entries():
    """The CMake cache of BUILD as {name: value}, or {} when there is none."""
    entries = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                name, sep, value = line.rstrip("\n").partition("=")
                if sep and not name.startswith(("#", "//")):
                    entries[name.split(":")[0]] = value
    except OSError:
        pass
    return entries


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from a checkout "
                 "of the repository" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    cache = cache_entries()
    home = cache.get("CMAKE_HOME_DIRECTORY")
    if home is not None and os.path.realpath(home) != ROOT:
        # A tree configured from another source directory cannot be
        # reconfigured for this one.
        shutil.rmtree(BUILD)
        cache = {}
    steps = []
    if cache.get("CMAKE_PROJECT_INCLUDE") != HOOK:
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_PROJECT_INCLUDE=" + HOOK])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    build()
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
             "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
