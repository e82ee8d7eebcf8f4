#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs per workload.

    python3 perfbench/steadiness.py [--seconds S]

Runs every workload in BENCHMARK.json ten times per set, each run
--seconds long (default: BENCHMARK.json's run_seconds). Run i of set
A uses seed 100+i and run i of set B seed 200+i; the two sets
alternate which goes first, so slow drift of the host hits both
alike. For every end-to-end metric of every workload it prints each
set's median, quartiles, quartile spread (IQR / median) and max/min
ratio, and the change from set A's median to set B's in the metric's
worse direction, against the bound in BENCHMARK.json. The quartiles
are Python's statistics.quantiles(values, n=4). Every run must report
correct results; a failed run is listed and counts against the check.
Exit status is 0 only when every spread and every median change is
within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "maxmin": max(values) / min(values) if min(values) else
            float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    values = {(s, w): {} for s in "AB" for w in workloads}
    failures = []
    for i in range(RUNS):
        for w in workloads:
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                seed = (100 if s == "A" else 200) + i
                res = run_once(w, seed, seconds)
                ok = res is not None and res["correct"] and \
                    res["failed"] == 0
                if not ok:
                    failures.append((w, seed))
                if res is None:
                    continue
                for name, m in res["metrics"].items():
                    values[(s, w)].setdefault(name, []).append(m["value"])
                print(f"run {i} set {s} {w} seed {seed} ok={ok} " +
                      " ".join(f"{k}={m['value']:.6g}"
                               for k, m in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    steady = not failures
    print(f"{RUNS} runs per set, {seconds:g} s each; spread = "
          "IQR/median; shift = set B median vs set A, worse direction")
    print(f"{'workload':9s} {'metric':12s} {'set':3s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'max/min':>7s}  "
          "shift vs bound")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = {}
            for s in "AB":
                vals = values[(s, w)].get(name, [])
                if len(vals) < 2:
                    steady = False
                    continue
                sums[s] = summary(vals)
            for s, st in sums.items():
                within = st["spread"] <= bound
                steady &= within
                print(f"{w:9s} {name:12s} {s:3s} {st['median']:10.5g} "
                      f"{st['q1']:10.5g} {st['q3']:10.5g} "
                      f"{st['spread']:7.3f} {st['maxmin']:7.3f}  "
                      f"{'ok' if within else 'TOO WIDE'}")
            if len(sums) == 2:
                a, b = sums["A"]["median"], sums["B"]["median"]
                worse = (a - b) if m["better"] == "higher" else (b - a)
                shift = worse / a if a else float("inf")
                within = shift <= bound
                steady &= within
                print(f"{'':9s} {name:12s} B-A shift {shift:+.3f} "
                      f"(bound {bound}) {'ok' if within else 'FAIL'}")
    for w, seed in failures:
        print(f"FAILED RUN: {w} seed {seed}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
