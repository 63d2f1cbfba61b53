#!/usr/bin/env python3
"""Smoke tests for the benchmark harness: every workload, traced and
untraced, in --smoke mode (tiny sizes, a few seconds each).
They check the result line's shape and that every correctness check
passed; they say nothing about performance.

    python3 perfbench/test_smoke.py          (from the root of a checkout)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, cwd=None):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "4", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=cwd)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        r = bench(workload, trace)
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        lines = r.stdout.strip().splitlines()
        self.assertTrue(lines[0].startswith("machine "), lines[0])
        out = json.loads(lines[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], r.stdout)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        self.assertEqual(set(out["metrics"]), set(want))
        for name, m in out["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], float, name)
            if not trace:
                self.assertGreater(m["value"], 0, name)

    def test_spec_matches_harness(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_refuses_without_source(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as d:
            r = bench("verify", 0, cwd=d)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


for _w in run.WORKLOADS:
    for _t in (0, 1):
        setattr(Smoke, f"test_{_w.replace('-', '_')}_trace{_t}",
                lambda self, w=_w, t=_t: self.check(w, t))


if __name__ == "__main__":
    unittest.main(verbosity=2)
