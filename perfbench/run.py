#!/usr/bin/env python3
"""DARCO speed benchmark: build the driver, run one workload, print JSON.

    python3 perfbench/run.py --workload hot|churn|timed|campaign \
        --seed N --seconds S --trace 0|1

Builds libdarco from ../src and the driver into .bench_build/perfbench
(first run only; later runs are an up-to-date check), then runs the
driver, whose last line of standard output is the result object. At
the default seed the results are checked against expected/<workload>.txt;
at any other seed every repetition must reproduce the first one.
--set key=value (repeatable) adds a config key to every simulation; the
self-tests use it to inject a translation fault. See NOTES.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["hot", "churn", "timed", "campaign"]
DEFAULT_SEED = 1


def build():
    """Configure once, then let cmake bring the driver up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--set", action="append", default=[],
                    metavar="KEY=VALUE")
    args = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == DEFAULT_SEED:
        cmd += ["--expected",
                os.path.join(HERE, "expected", args.workload + ".txt")]
    for kv in args.set:
        cmd += ["--set", kv]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
