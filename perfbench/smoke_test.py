"""Smoke test of the benchmark: every workload at smoke size, untraced and
traced, must pass its correctness gates and emit every metric by name.

    python3 perfbench/smoke_test.py        # from the repository root

Takes about a minute.  It also checks that the benchmark refuses to run,
without printing a result, in a directory holding only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd or run.ROOT, "perfbench", "run.py"),
         *args], cwd=cwd or run.ROOT, capture_output=True, text=True,
        timeout=300)


class SmokeTest(unittest.TestCase):

    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], names[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        return result["metrics"]

    def test_workloads(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                args = ["--workload", w, "--seed", "0", "--seconds", "1",
                        "--size", "tiny"]
                plain = self.check_result(bench(*args, "--trace", "0"),
                                          run.END_TO_END)
                self.assertGreater(plain["wall_s"]["value"], 0)
                # Two traced runs: the second fails if an exact count moved.
                for _ in range(2):
                    self.check_result(bench(*args, "--trace", "1"),
                                      run.PER_LAYER)

    def test_refuses_without_program(self):
        os.makedirs(run.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = bench("--workload", "paper", "--seed", "0", "--seconds",
                         "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
