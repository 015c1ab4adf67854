#!/usr/bin/env python3
"""Build and run the solver-service benchmark.

Usage (from the repository root):

    python3 solverbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Configures and builds solverbench/ (which compiles the simulator
library from src/) into $CARGO_TARGET_DIR/solverbench, or
.bench_build/solverbench when that variable is unset, then runs one
workload. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. The exit code is the benchmark's; a
failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "solverbench")
    if not build(build_dir):
        print("solverbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "solverbench")
    cmd = [binary] + sys.argv[1:] + ["--workdir",
                                     os.path.join(root, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
