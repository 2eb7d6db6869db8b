"""Time each numpy kernel on the benchmark problem sizes.

Run:  PYTHONPATH=src python benchmarks/kernel_bench.py
Prints the best per-call time over 5 repeats of 20 calls.
"""

import timeit

import numpy as np

from nltgcr import kernels


def _time(fn, *args, repeat=5, number=20):
    best = min(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number))
    return best / number


def main():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((100, 100))
    p = rng.standard_normal((100, 100))
    pos = rng.standard_normal((108, 3)) * 2.0

    cases = [
        ("bratu_residual 100x100", kernels.bratu_residual, (u, 0.5, 0.01)),
        ("bratu_jv 100x100", kernels.bratu_jv, (u, p, 0.5, 0.01)),
        ("lj_energy 108 atoms", kernels.lj_energy, (pos,)),
        ("lj_gradient 108 atoms", kernels.lj_gradient, (pos,)),
        ("lj_min_pair_distance 108", kernels.lj_min_pair_distance, (pos,)),
    ]
    header = f"{'kernel':<26}{'numpy (us)':>12}"
    print(header)
    print("-" * len(header))
    for name, fn, args in cases:
        print(f"{name:<26}{_time(fn, *args) * 1e6:>12.1f}")


if __name__ == "__main__":
    main()
