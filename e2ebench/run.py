#!/usr/bin/env python3
"""Builds and runs the replay-pinned end-to-end benchmark.

    python3 e2ebench/run.py --workload cold_state --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
e2ebench/ (which compiles the repository's src/ libraries) into
.bench_build/e2ebench; later runs only rebuild what changed. Build output goes
to stderr. The benchmark's last stdout line is its JSON result, and the full
result (spans too, with --trace 1) is written to
.bench_out/<workload>.seed<seed>.trace<trace>.json for layer_table.py.
Exits nonzero without a result when the build fails, and nonzero after the
result when a block fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s.seed%d.trace%d.json" % (args.workload, args.seed, args.trace))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
