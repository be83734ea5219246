"""Self-tests of the benchmark harness (not of the package).

    python3 -m pytest perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        self.assertEqual(run.smoke(), 0)

    def test_last_line_follows_the_result_schema(self):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "queries",
             "--seed", "3", "--seconds", "0.2", "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(sorted(line),
                         ["attempted", "correct", "failed", "metrics"])
        spec = run.load_spec()
        self.assertEqual(sorted(line["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.lib = run.import_tamari()

    def run_pass(self, workload):
        run.warm_up(self.lib, workload)
        return run.run_passes(workload, passes=1)

    def test_corrupted_expected_answer_is_a_failed_operation(self):
        for name in workloads.BUILDERS:
            workload = workloads.BUILDERS[name](self.lib, 5, tiny=True)
            clean = self.run_pass(workload)
            self.assertEqual(clean.wrong, 0, name)
            victim = next(op for op, (_, ok) in zip(workload.passes[0],
                                                    clean.ops) if ok)
            honest = victim.expect
            victim.expect = lambda: ("corrupted", honest())
            corrupted = self.run_pass(workload)
            self.assertEqual(corrupted.wrong, 1, name)
            self.assertEqual(corrupted.failed, clean.failed + 1, name)

    def test_same_seed_same_inputs(self):
        digests = {run.inputs_digest(workloads.build_series(self.lib, seed,
                                                            tiny=True))
                   for seed in (4, 4, 5)}
        self.assertEqual(len(digests), 2)

    def test_random_objects_are_valid(self):
        rng = random.Random(1)
        for n in range(12):
            self.lib.trees.from_dyck(workloads.random_dyck(rng, n))
            for m in (1, 2, 3):
                self.lib.mtamari.BallotPath(
                    m, workloads.random_ballot(rng, m, n))

    def test_mtamari_formula_matches_brute_force(self):
        for m in (1, 2, 3):
            for n in range(4):
                series = self.lib.mtamari.phi_m_series(m, n)
                self.assertEqual(
                    series.y_coefficient(n).subs(x=1).constant(),
                    workloads.mtamari_interval_count(m, n))


class BareCheckoutTest(unittest.TestCase):
    def test_exits_nonzero_with_only_the_benchmark_files(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "series",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
