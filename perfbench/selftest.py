"""The benchmark's own checks.

    python3 perfbench/selftest.py

Runs the smoke workload (seconds, not minutes) and checks that work
counters repeat exactly between runs, that a corrupted golden record is
counted as a failed operation, that the verify-o6 negative control really
fails verification, that the benchmark refuses to run without the engine
source, and the self-time arithmetic of the trace.  It is kept out of the
repository's pytest collection on purpose: the engine's test suite stays
exactly the engine's.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / f"selftest-{os.getpid()}"


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def copy_benchmark(root: Path) -> Path:
    """A copy of the benchmark under ROOT, without outputs; returns its run.py."""
    shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root / HERE.name / "run.py"


def smoke(trace=0, seed=1, cwd=ROOT, script=HERE / "run.py"):
    proc = bench(
        "--workload", "smoke", "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        cwd=cwd, script=script,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_smoke_is_correct_and_counters_repeat(self):
        first = smoke(trace=1, seed=1)
        second = smoke(trace=1, seed=2)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 4)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        self.assertEqual(set(first["metrics"]), {m["name"] for m in per_layer})
        counters = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
        self.assertEqual(
            sorted(counters),
            sorted(tracing.COUNTERS),
        )
        for name in counters:
            self.assertIsNotNone(first["metrics"][name]["value"], name)
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_result_line_has_the_end_to_end_metrics(self):
        result = smoke(trace=0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in end_to_end})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_corrupted_golden_record_is_a_counted_failure(self):
        root = SCRATCH / "corrupted"
        script = copy_benchmark(root)
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
        golden = root / HERE.name / "records" / "sweep-o4" / "D4.json"
        text = golden.read_text()
        self.assertIn('"coeff": "', text)
        golden.write_text(text.replace('"coeff": "', '"coeff": "-', 1))
        result = smoke(cwd=root, script=script)
        self.assertFalse(result["correct"])
        passes = result["attempted"] // 4
        self.assertGreaterEqual(passes, 1)
        self.assertEqual(result["failed"], passes)

    def test_perturbed_record_fails_verification(self):
        primform, cli = worker.import_engine()
        record = json.loads(
            worker.golden_path("verify-o6", worker.PERTURBED_O6).read_text()
        )
        good = SCRATCH / "good.json"
        good.write_bytes(worker.canonical(record))
        self.assertEqual(worker.verify_via_cli(cli, good), 0)
        perturbed, _ = worker.perturb(record, random.Random(7))
        bad = SCRATCH / "bad.json"
        bad.write_bytes(worker.canonical(perturbed))
        self.assertEqual(worker.verify_via_cli(cli, bad), 1)

    def test_refuses_to_run_without_the_engine(self):
        bare = SCRATCH / "bare"
        script = copy_benchmark(bare)
        proc = bench(
            "--workload", "sweep-o4", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare, script=script,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_self_time_subtracts_children_and_series_products(self):
        # case [0, 10] holds 3 s of products; its child solve [2, 5] holds 1 s.
        spans = [
            ["case", 0.0, 10.0, None, "c", 3.0],
            ["primitive.solve", 2.0, 5.0, 0, "c", 1.0],
        ]
        metrics = tracing.summarize(spans, 7, 3.0, {"primitive.j_terms": 5}, set())
        self.assertAlmostEqual(metrics["case.self_s"], 10.0 - 3.0 - (3.0 - 1.0))
        self.assertAlmostEqual(metrics["primitive.solve.self_s"], 3.0 - 1.0)
        self.assertAlmostEqual(metrics["primitive.solve_s"], 3.0)
        self.assertEqual(metrics["algebra.series_mul_calls"], 7)

    def test_a_vanished_name_reports_null(self):
        metrics = tracing.summarize([], 0, 0.0, {}, {"primitive.solve", "algebra.series_mul"})
        self.assertIsNone(metrics["primitive.solve_s"])
        self.assertIsNone(metrics["algebra.series_mul_s"])
        self.assertIsNone(metrics["algebra.series_mul_calls"])
        self.assertEqual(metrics["milnor.basis_s"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
