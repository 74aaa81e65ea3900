#!/usr/bin/env python3
"""Schema check for the benchmark.

A short run of every workload in BENCHMARK.json must print, as its last
line, a result whose metrics are exactly the end-to-end metrics (untraced)
or the per-layer metrics (traced), each with its unit; end-to-end values
must be positive. Also checks BENCHMARK.json's own shape.

Run from anywhere: `python3 perfbench/test_schema.py` (builds the program
on first use, so the first workload may take minutes).
"""

import json
import os
import re
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def short_run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", "2", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {out.returncode}:\n"
                             f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SpecShape(unittest.TestCase):
    def test_keys_names_units_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class ShortRuns(unittest.TestCase):
    def check(self, trace, key):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = short_run(w["name"], trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(r["correct"], True)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), set(expected))
                for name, unit in expected.items():
                    m = r["metrics"][name]
                    self.assertEqual(set(m), {"value", "unit"})
                    self.assertEqual(m["unit"], unit, name)
                    self.assertIsInstance(m["value"], (int, float), name)
                    if key == "end_to_end":
                        self.assertGreater(m["value"], 0, name)

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
