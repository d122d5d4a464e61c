#!/usr/bin/env python3
"""Builds and runs the lightweb benchmark (perfbench/lwbench).

    python3 perfbench/run.py --workload <paper_get|paper_publish|browse> \
        --seed N --seconds S --trace 0|1

Run from the repository root. lwbench is compiled from the repository's
sources with CMake into $CARGO_TARGET_DIR (default .bench_build); an
up-to-date build is a no-op. Build output goes to stderr; the last line of
stdout is the benchmark's JSON result. Traced runs also leave their span
dump and layer table in .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds lwbench; returns the binary's path."""
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                 "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "lwbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lwbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        # On timeout, subprocess.run kills the child and waits for it.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"run.py: lwbench exited with {done.returncode}",
              file=sys.stderr)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
