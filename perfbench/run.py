#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each call configures and builds the
library and the valmod_perfbench program under .bench_build/perfbench (or
under $CARGO_TARGET_DIR/perfbench when that is set); only the first call
compiles everything, later ones rebuild what changed. Build output goes to stderr,
so the last stdout line is the program's result object. Extra arguments
(--tiny, --perturb) pass through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "valmod_perfbench", "-j4"]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out_dir, "valmod_perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
