"""The benchmark's four workloads (perfbench/workloads.py) reach tolerance at
the default seed in the (iterations, fevals) that perfbench/selftest.py
records, so a change that moves a count fails in the tier-1 suite too."""

import ast
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


def _default_seed_counts():
    """selftest.py's DEFAULT_SEED_COUNTS, read from its source: importing it
    would import run.py, which pins BLAS threads for the whole process."""
    for node in ast.parse((PERFBENCH / "selftest.py").read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DEFAULT_SEED_COUNTS":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/selftest.py defines no DEFAULT_SEED_COUNTS")


DEFAULT_SEED_COUNTS = _default_seed_counts()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_counts_match_the_selftest(name):
    inst = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    x, trace = inst.solve(inst.problem, inst.x0)
    reached = workloads.first_to_tol(trace, inst.tol)
    assert reached is not None
    assert workloads.check_answer(inst, x) is None
    assert (reached.iter, reached.fevals) == DEFAULT_SEED_COUNTS[name]
