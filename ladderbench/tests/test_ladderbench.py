#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 ladderbench/tests/test_ladderbench.py

They build the benchmark through run.py (the first run takes about a
minute) and then run every workload shrunk to a 32^3 cube for 4 steps.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = ["--edge", "32", "--steps", "4", "--seconds", "1"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT):
    """Runs run.py; returns (exit code, parsed last stdout line or None, stderr)."""
    proc = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


class NamesMatchBenchmarkJson(unittest.TestCase):
    def test_declared_names_and_units_are_well_formed(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT, m["name"])

    def test_binary_knows_exactly_the_declared_workloads(self):
        code, result, err = run_bench("--workload", "no-such-workload", "--seed", "1",
                                      "--seconds", "1", "--trace", "0")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        listed = err.split("workloads:")[-1].split()
        self.assertEqual(sorted(listed), sorted(w["name"] for w in load_spec()["workloads"]))

    def test_every_workload_prints_exactly_the_declared_metrics(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = run_bench("--workload", w["name"], "--seed", "5",
                                                  "--trace", str(trace), *SMALL)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertIsInstance(m["value"], (int, float), name)


class CorrectnessGate(unittest.TestCase):
    def test_flipped_cell_counts_as_one_failed_solve(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                code, result, err = run_bench("--workload", "dram320-t1", "--seed", "5",
                                              "--trace", trace, "--corrupt-solve", "2",
                                              *SMALL)
                self.assertEqual(code, 0, err)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertGreater(result["attempted"], 1)
                self.assertIn("differs from the reference", err)

    def test_gate_passes_on_two_seeds(self):
        # References are rebuilt from --seed, so every seed must pass.
        for seed in ("1", "2"):
            code, result, err = run_bench("--workload", "dram320-t2", "--seed", seed,
                                          "--trace", "0", *SMALL)
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"], err)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "ladderbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join("ladderbench", "run.py"), "--workload",
                 "dram320-t1", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
