#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/zbench.exe with dune
(the first build compiles the libraries it links), runs it, and prints
its result: one JSON line with "correct", "attempted", "failed" and
"metrics" as the last line of standard output. Exits non-zero, printing
no result, when the build fails or the run fails its correctness gate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sc_payments", "cross_chain", "state_soak")
EXE = os.path.join("_build", "default", "perfbench", "zbench.exe")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/zbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 1

    run = subprocess.run(
        [EXE, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=175)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print("run.py: run failed (exit %d)" % run.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
