#!/usr/bin/env python3
"""Build and run the ATC benchmark on one workload.

    python3 atcbench/run.py --workload lossless|lossy|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds the
benchmark (and the library it links) under $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark program. Build output goes to standard
error; the program's standard output, whose last line is the JSON result,
is passed through, and so is its exit status. See atcbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "atcbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "atcbench", "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("atcbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    work = os.path.join(build_root, "work", f"{args.workload}-{args.seed}")
    program = [
        os.path.join(build, "atcbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    return subprocess.run(program).returncode


if __name__ == "__main__":
    sys.exit(main())
