"""benchmarks/ab_inprocess.py's interval of the median ratio, loaded by path."""

import importlib.util
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
