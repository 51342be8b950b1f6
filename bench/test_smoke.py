"""Smoke test of the benchmark itself: every workload at tiny length, plain
and traced, with the output checked against BENCHMARK.json.

    python3 bench/test_smoke.py        (about a minute)
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest

from paths import BENCH, RESULTS, ROOT
from run import WORKLOAD_NAMES

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


class SmokeTest(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 100)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(got, expected)
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], (int, float))
        record = json.loads((RESULTS / f"{workload}-seed3-trace{trace}.json").read_text())
        for key in ("why", "seed", "python", "nproc"):
            self.assertIn(key, record)
        return result, record

    def test_end_to_end_metrics(self):
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result, _ = self.run_workload(workload, 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)

    def test_per_layer_metrics(self):
        for workload in WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                result, record = self.run_workload(workload, 1)
                wall = result["metrics"]["trace.wall_s"]["value"]
                self.assertAlmostEqual(record["raw"]["self_s_sum"], wall, delta=1e-6 * wall)

    def test_workloads_are_declared(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOAD_NAMES))
        self.assertEqual(SPEC["paths"], [BENCH.name])

    def test_refuses_without_sources(self):
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, f"{bare}/{BENCH.name}",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
