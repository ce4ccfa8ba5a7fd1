#!/usr/bin/env python3
"""Builds the session benchmark from the repository's sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-color --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (Release). Build output goes to
stderr; the benchmark's report goes to stdout, ending with one JSON line.
A --trace 1 run also writes the first traced pass as Chrome trace JSON to
.bench_build/perfbench/trace_<workload>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "session_bench")


def build():
    """Configures and builds the benchmark; raises on failure."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace_{args.workload}.json")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
