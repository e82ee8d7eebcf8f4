#!/usr/bin/env python3
"""Self-tests of the DARCO speed benchmark.

    python3 perfbench/selftest.py [-v]

Each test runs the benchmark through run.py at the default seed, so
every simulation is checked against the committed expected results.
The paper-shape test compares medians only, never absolute numbers.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot", "churn", "timed", "campaign"]


def bench(workload, seconds=0, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    for kv in extra:
        cmd += ["--set", kv]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}: "
                             f"{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def value(res, name):
    return res["metrics"][name]["value"]


class PerfbenchSelfTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = bench("hot", trace=trace)
            got = [(k, m["unit"]) for k, m in res["metrics"].items()]
            want = [(m["name"], m["unit"]) for m in spec[key]]
            self.assertEqual(got, want)

    def test_fault_injection_reports_failures(self):
        # Flipped conditional exits in every translation: reference
        # validation must catch them as failed operations, not a crash.
        for w in ("hot", "campaign"):
            res = bench(w, extra=["debug.flip_cond_exits=true"])
            self.assertFalse(res["correct"], w)
            self.assertGreater(res["failed"], 0, w)
            self.assertLessEqual(res["failed"], res["attempted"], w)

    def test_traced_runs_reproduce_expected_results(self):
        traced = {}
        for w in WORKLOADS:
            res = bench(w, trace=1)
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            self.assertGreater(res["attempted"], 0, w)
            traced[w] = res
        for w, res in traced.items():
            timing = [k for k in res["metrics"]
                      if k.startswith(("timing.", "power."))]
            for k in timing:
                if w == "timed":
                    self.assertGreater(value(res, k), 0, k)
                else:
                    self.assertEqual(value(res, k), 0, (w, k))
        # The timing adapter forwards every trace record; records are
        # host-level, so they are not guest instructions.
        expected = {}
        with open(os.path.join(HERE, "expected", "timed.txt")) as f:
            for line in f:
                if line.startswith("#"):
                    continue
                k, v = line.rstrip("\n").split("=", 1)
                expected[k] = v
        records = sum(int(v) for k, v in expected.items()
                      if k.endswith(".timing.core.instructions"))
        self.assertEqual(value(traced["timed"], "timing.records"), records)
        self.assertGreater(
            value(traced["timed"], "timing.records_per_guest"), 1)
        self.assertGreaterEqual(
            value(traced["churn"], "tol.translations_per_minst"),
            10 * value(traced["hot"], "tol.translations_per_minst"))

    def test_paper_section_6a_shape(self):
        # Functional simulation outruns timing-enabled simulation, and
        # the reference emulator outruns the co-designed functional run.
        hot, timed, xemu = [], [], []
        for _ in range(3):
            hot.append(value(bench("hot", seconds=2), "guest_mips"))
            timed.append(value(bench("timed", seconds=2), "guest_mips"))
            xemu.append(value(bench("hot", seconds=2, trace=1),
                              "xemu.mips"))
        self.assertGreater(statistics.median(hot),
                           statistics.median(timed))
        self.assertGreater(statistics.median(xemu),
                           statistics.median(hot))


if __name__ == "__main__":
    unittest.main()
