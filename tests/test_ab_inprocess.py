"""benchmarks/ab_inprocess.py's interval of the median ratio and its record,
loaded by path."""

import importlib.util
import json
import os
import random
import statistics
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load():
    # ab_inprocess imports ab_pairs from its own directory.
    sys.path.insert(0, str(BENCHMARKS))
    try:
        path = BENCHMARKS / "ab_inprocess.py"
        spec = importlib.util.spec_from_file_location("ab_inprocess", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


ab = _load()


def _series(n, phi, seed):
    """n ratios around 1.0 whose noise is AR(1) with coefficient phi."""
    rng = random.Random(seed)
    e, out = 0.0, []
    for _ in range(n):
        e = phi * e + rng.gauss(0.0, 0.01)
        out.append(1.0 + e)
    return out


def test_block_interval_is_wider_on_correlated_pairs():
    ratios = _series(300, 0.9, seed=1)
    block = ab.block_length(len(ratios))
    lo, hi = ab.bootstrap_median(ratios, block)
    lo1, hi1 = ab.bootstrap_median(ratios, 1)
    assert block > 1
    assert hi - lo > hi1 - lo1


def test_block_interval_contains_the_median_of_independent_pairs():
    ratios = _series(300, 0.0, seed=2)
    lo, hi = ab.bootstrap_median(ratios, ab.block_length(len(ratios)))
    assert lo <= statistics.median(ratios) <= hi
    assert lo <= 1.0 <= hi


def test_a_tree_without_git_is_described_by_its_sources(tmp_path):
    # A `git archive` copy names no commit, but its src/ is still counted.
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("a = 1\nb = 2\n")
    assert ab.describe(tmp_path) == {"directory": tmp_path.name, "commit": None,
                                      "uncommitted_changes": None, "src_lines": 2}


# A checkout's perfbench/workloads.py, reduced to what ab_inprocess reads.
# Its iterations report the BLAS thread count the interpreter started with,
# and its fevals the interpreter's process id.
FAKE_WORKLOADS = """
import array, os, types

def _solve(problem, x0):
    sum(range(100))
    return array.array("d", [1.0]), types.SimpleNamespace(records=[])

WORKLOADS = {"toy": lambda seed: types.SimpleNamespace(problem=None, x0=None, tol=1e-8,
                                                       solve=_solve)}

def first_to_tol(trace, tol):
    return types.SimpleNamespace(iter=int(os.environ["OPENBLAS_NUM_THREADS"]),
                                 fevals=os.getpid())

def check_answer(inst, x):
    return None
"""


def test_each_case_is_recorded_from_two_fresh_interpreters(tmp_path, monkeypatch):
    for side in ab.SIDES:
        (tmp_path / side / "src" / "nltgcr").mkdir(parents=True)
        (tmp_path / side / "src" / "nltgcr" / "__init__.py").write_text("")
        (tmp_path / side / "perfbench").mkdir()
        (tmp_path / side / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    monkeypatch.setattr(ab, "describe", lambda path: {"directory": path.name})
    monkeypatch.delenv(ab.RUN_MARK, raising=False)
    out = tmp_path / "ab.json"
    argv = ["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
            "--seconds", "0", "--label", "t", "--out", str(out), "toy", "toy:7"]
    assert ab.main(argv) == 0
    cases = json.loads(out.read_text())["inprocess"]["t"]["cases"]
    assert sorted(cases) == ["toy:0", "toy:7"]
    pids = set()
    for case in cases.values():
        runs = case["runs"]
        assert len(runs) == ab.RUNS == 2
        assert case["ratio_medians"] == [r["ratio"]["median"] for r in runs]
        assert case["ratio_median_ci95s"] == [r["ratio_median_ci95"] for r in runs]
        for r in runs:
            assert r["pairs"] >= ab.MIN_PAIRS and r["identical_results"]
            assert r["iters_to_tol"] == {"before": 1, "after": 1}
            pids.add(r["fevals_to_tol"]["before"])
    # Four runs, four interpreters, none of them this one.
    assert len(pids) == 4 and os.getpid() not in pids
