#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 \\
        --trace 0

Run it from the root of a checkout. The engine and the driver are built
with CMake into $CARGO_TARGET_DIR (default .bench_build) on every call;
after the first call the build is an up-to-date check. Build output goes
to stderr, so the driver's JSON result stays the last line of stdout.
The exit status is the driver's: 0 when every operation succeeded and
every check held.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve_hot", "serve_cold", "sweep_heavy")


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("perfbench: %s is not a checkout of the repository "
              "(no CMakeLists.txt and src/)" % root, file=sys.stderr)
        return None
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", binary_dir, "--target", "perfbench",
              "-j", jobs]]
    # Once configured, `cmake --build` re-runs the configure step itself
    # when a CMakeLists.txt changes. A build directory copied from another
    # checkout would silently build that checkout's sources: refuse it.
    cache = os.path.join(binary_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        steps.insert(0, ["cmake", "-S", source, "-B", binary_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    else:
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(source):
            print("perfbench: %s was configured for another source tree; "
                  "remove it" % binary_dir, file=sys.stderr)
            return None
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--state-dir", os.path.join(build_dir, "state"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
