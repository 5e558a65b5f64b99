#!/usr/bin/env python3
"""Build the Airfoil benchmark in Release and run one workload.

Usage, from the root of the repository:

    python3 airbench/run.py --workload airfoil_paper --seed 1 \
        --seconds 45 --trace 0

Configures and builds airbench/ (which pulls in the program's libraries
from src/) under .bench_build/airbench, then runs the binary with the same
arguments. Build output goes to standard error; the binary's report goes
to standard output and ends with the one-line JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "airbench"
RUN_TIMEOUT_S = 175


def sh(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not (ROOT / "src" / "airfoil" / "CMakeLists.txt").is_file():
        print(f"airbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Configure once; the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    configured = (BUILD / "CMakeCache.txt").is_file() or \
        sh(["cmake", "-S", str(HERE), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release"])
    return configured and sh(["cmake", "--build", str(BUILD), "-j", jobs])


def main(argv):
    if not build():
        return 1
    args = list(argv)
    # Name the trace file after the run; the binary validates the values.
    parser = argparse.ArgumentParser(add_help=False)
    for flag in ("--workload", "--seed", "--trace"):
        parser.add_argument(flag, default="")
    known, _ = parser.parse_known_args(argv)
    if known.trace == "1":
        trace = BUILD / f"trace-{known.workload}-{known.seed}.json"
        args += ["--trace-file", str(trace)]
    proc = subprocess.Popen([str(BUILD / "airbench")] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"airbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
