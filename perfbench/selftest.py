"""Self-test of the benchmark's own checks, small enough to run in seconds.

    python3 perfbench/selftest.py

It shows that the answer check rejects a corrupted solution, that failed
solves are recorded instead of ending the run, that the default seed
reproduces the acceptance inputs' exact counts, and that every metric named
in BENCHMARK.json is printed with its unit in both trace modes.
"""

import json
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import run  # first: it pins BLAS to one thread and puts src/ on the path

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from nltgcr import BreakdownError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (iters_to_tol, fevals_to_tol) of the acceptance configurations.
DEFAULT_SEED_COUNTS = {
    "bratu-m10": (372, 412),
    "bratu-m1": (440, 486),
    "lj-cluster": (102, 205),
    "newton-krylov": (21, 1004),
}


class AnswerCheck(unittest.TestCase):
    def test_rejects_corrupted_solution(self):
        inst = workloads.WORKLOADS["bratu-m1"](workloads.DEFAULT_SEED)
        x, _ = inst.solve(inst.problem, inst.x0)
        self.assertIsNone(workloads.check_answer(inst, x))
        corrupted = x.copy()
        corrupted[len(x) // 2] += 1e-6
        self.assertIn("relative residual", workloads.check_answer(inst, corrupted))

    def test_rejects_lj_start(self):
        inst = workloads.WORKLOADS["lj-cluster"](workloads.DEFAULT_SEED)
        self.assertIsNotNone(workloads.check_answer(inst, inst.x0))


class FailureIsolation(unittest.TestCase):
    def test_exception_is_recorded(self):
        inst = workloads.WORKLOADS["bratu-m1"](workloads.DEFAULT_SEED)

        def breaks(prob, x0):
            raise BreakdownError("window restarts exhausted")

        out = run.solve_once(replace(inst, solve=breaks))
        self.assertTrue(out.failure.startswith("BreakdownError"))

    def test_max_iters_exit_is_a_failure(self):
        inst = workloads.WORKLOADS["bratu-m1"](workloads.DEFAULT_SEED)
        out = run.solve_once(replace(inst, solve=_five_iters))
        self.assertTrue(out.failure.startswith("max_iters exit"))


def _five_iters(prob, x0):
    from nltgcr import SolverOptions, nltgcr_solve

    return nltgcr_solve(prob, x0, SolverOptions(max_iters=5, restart_every=None))


class DefaultSeed(unittest.TestCase):
    def test_counts_match_acceptance_inputs(self):
        for name, expected in DEFAULT_SEED_COUNTS.items():
            inst = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
            out = run.solve_once(inst)
            self.assertIsNone(out.failure, name)
            self.assertEqual((out.iters, out.fevals), expected, name)

    def test_other_seeds_change_only_the_start(self):
        a = workloads.WORKLOADS["lj-cluster"](workloads.DEFAULT_SEED)
        b = workloads.WORKLOADS["lj-cluster"](workloads.HELD_OUT_SEED)
        gap = np.abs(a.x0 - b.x0).max()
        self.assertTrue(0.0 < gap <= workloads.X0_PERTURBATION)


class PrintedMetrics(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "bratu-m1",
                 "--seed", "1", "--seconds", "0.01", "--trace", trace],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            lines = out.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertEqual(set(last["metrics"]), {m["name"] for m in listed})
            table = {ln.split()[0]: ln.split()[1:] for ln in lines if ln.startswith("  ")}
            for m in listed:
                self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])
                self.assertEqual(table[m["name"]][-1], m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
