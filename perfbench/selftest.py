"""The benchmark's own tests: tiny inputs pass, corrupted inputs fail.

Run from the root of a checkout (about two minutes):

    python3 perfbench/selftest.py

Every workload runs once untraced and once traced on tiny inputs and must
report no failed op. Fault cases corrupt a generated input and must report
failures. A copy of the benchmark without the program must exit non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


class TinyRuns(unittest.TestCase):
    def test_every_workload_passes_untraced_and_traced(self):
        for name in WORKLOADS:
            for trace, units in (("0", END_TO_END), ("1", PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    code, result, log = bench("--workload", name, "--seed", "7",
                                              "--size", "tiny", "--trace", trace)
                    self.assertEqual(code, 0, log)
                    self.assertTrue(result["correct"], log)
                    self.assertEqual(result["failed"], 0, log)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for metric, entry in result["metrics"].items():
                        self.assertEqual(entry["unit"], units[metric])

    def test_faults_are_caught(self):
        for name in ("der-corpus", "diarize-5min", "separate-60s", "resample-20min"):
            with self.subTest(workload=name):
                code, result, log = bench("--workload", name, "--seed", "7",
                                          "--size", "tiny", "--fault")
                self.assertEqual(code, 0, log)
                self.assertFalse(result["correct"], log)
                self.assertGreater(result["failed"], 0, log)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertLessEqual(max(m["bound"] for m in spec["end_to_end"]), 0.25)

    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, result, log = bench("--workload", "der-corpus", "--seed", "1", cwd=bare)
            self.assertNotEqual(code, 0, log)
            self.assertIsNone(result, log)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
