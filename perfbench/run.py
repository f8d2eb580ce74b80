#!/usr/bin/env python3
"""Builds and runs the ATMULT end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1> [--reference] [--inject estimate:<k>]

The first run configures and builds perfbench/ (which compiles the library
from src/) with CMake in <build>/perfbench, where <build> is
$CARGO_TARGET_DIR or .bench_build; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. A traced run (--trace 1) also writes its Chrome trace to
<build>/perfbench/trace-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found; "
             "run from the repository root")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if result.returncode != 0:
            fail(f"build step {' '.join(step)} exited {result.returncode}")


def option(args, name):
    """Value following `name` in args, or None."""
    if name in args:
        index = args.index(name)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    if option(args, "--trace") not in (None, "0"):
        name = f"trace-{option(args, '--workload')}-{option(args, '--seed')}.json"
        args = args + ["--trace-out", os.path.join(build_dir, name)]
    sys.stdout.flush()
    try:
        result = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S,
                                check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"benchmark run failed: {error}")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
