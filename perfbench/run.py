#!/usr/bin/env python3
"""Builds the RITM benchmark (ritm_perfbench) from source and runs one workload.

    python3 perfbench/run.py --workload handshake|serve|revocation_day \
        --seed N --seconds S --trace 0|1

The library and ritm_perfbench are built with CMake into .bench_build/ next to
this directory (the first run compiles; later runs only re-check). The
benchmark's output is passed through unchanged: human-readable lines, then the
result JSON as the last line. The exit code is non-zero when the build
fails, the run fails, or any correctness check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ritm_perfbench")
WORKLOADS = ("handshake", "serve", "revocation_day")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds ritm_perfbench; returns False (log on stderr) on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "ritm_perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
                return False
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(f"run.py: build step failed: {' '.join(cmd)}\n{tail}",
                      file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
