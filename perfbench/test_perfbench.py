#!/usr/bin/env python3
"""The benchmark's own tests: the short mode of every workload, untraced
and traced, must emit every metric BENCHMARK.json declares, each with its
unit, and finish with failed_ratio 0.

    python3 perfbench/test_perfbench.py        (from the checkout root)
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

# End-to-end metrics the report prints with their units but
# BENCHMARK.json does not gate (see README.md).
PRINTED_ONLY = ("mine_tail_ms", "mines_per_s", "hit_p50_ms", "hit_p99_ms",
                "hits_per_s", "failed_ratio")


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(SPEC["run_seconds"]), "--trace",
         str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


class ShortModeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, stderr = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines) + stderr)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_ratio is 0
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for spec in declared:
            value = result["metrics"][spec["name"]]
            self.assertEqual(value["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(value["value"], (int, float), spec["name"])
        report = "\n".join(lines[:-1])
        for spec in declared:
            self.assertIn(spec["name"], report)
        if not trace:
            printed = {line.split()[0]: line.split()[1:3] for line in lines
                       if line.split() and line.split()[0] in PRINTED_ONLY}
            self.assertEqual(sorted(printed), sorted(PRINTED_ONLY))
            for name, (value, unit) in printed.items():
                self.assertTrue(unit, name)
                float(value)
            self.assertEqual(float(printed["failed_ratio"][0]), 0.0)


def add_cases():
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (spec["name"], trace)
            setattr(ShortModeTest, name,
                    lambda self, w=spec["name"], t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
