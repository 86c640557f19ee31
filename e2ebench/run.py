#!/usr/bin/env python3
"""Builds the mra end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload analytic|serve|commit_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every run configures and builds e2ebench/
(which compiles ../src) into .bench_build/e2ebench in Release mode; the
first run builds everything, later runs rebuild incrementally.  Then
run.py replaces itself with the benchmark binary, which prints its result
as the last stdout line: one JSON object with the keys correct, attempted,
failed and metrics.  Extra flags (--scale, --work-dir) pass through to the
binary.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "mra_e2ebench")
BUILD_TIMEOUT_S = 850


def build():
    """Configures and builds incrementally; build output to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time when several runs start together.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring an already configured tree takes well under a second,
        # and a configure that failed once is retried.
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "mra_e2ebench",
                  "-j", str(os.cpu_count() or 1)]]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    build()
    args = sys.argv[1:]
    # exec, not a child: no process outlives run.py, and the binary's exit
    # code is the run's.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, [BINARY] + args)


if __name__ == "__main__":
    main()
