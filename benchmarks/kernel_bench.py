"""Time each numpy kernel and the window Gram-Schmidt step on the benchmark sizes.

Run:  PYTHONPATH=src python benchmarks/kernel_bench.py
Prints the median per-call time over 15 repeats of 20 calls, with the
interquartile range of those repeats, so each row shows its own noise.
BLAS runs on one thread, as in the solve benchmark (perfbench/run.py).

Informational only: no gate reads these numbers, and they have no
machine-speed reference, so a row drifts by up to about 40 % between runs
on unchanged code. Compare kernels with perfbench/run.py, which adjusts for
machine speed.
"""

import os

# Before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import timeit  # noqa: E402

import numpy as np  # noqa: E402

from nltgcr import kernels  # noqa: E402
from nltgcr.core import WindowPair  # noqa: E402
from nltgcr.linear import orthogonalize_pair  # noqa: E402


def _time(fn, *args, repeat=15, number=20):
    per_call = np.array(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number)) / number
    q1, med, q3 = np.percentile(per_call, [25, 50, 75])
    return med, q3 - q1


def _window_args(k, n, rng):
    """orthogonalize_pair's arguments against a full k-pair window, as the
    direction step passes them: n x k views of the WindowPair row buffers."""
    w = WindowPair(k)
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    for v in Q.T:
        w.push(rng.standard_normal(n), v)
    return rng.standard_normal(n), rng.standard_normal(n), w.p_matrix(), w.v_matrix(), 0, k


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
    # The window shapes of bratu-m1, bratu-m10 and newton-krylov.
    for k in (1, 10, 50):
        cases.append((f"orthogonalize_pair k={k}", orthogonalize_pair, _window_args(k, 10**4, rng)))
    header = f"{'kernel':<28}{'median (us)':>12}{'IQR (us)':>10}"
    print("Informational, not gated: rows drift up to about 40 % between runs.")
    print(header)
    print("-" * len(header))
    for name, fn, args in cases:
        med, iqr = _time(fn, *args)
        print(f"{name:<28}{med * 1e6:>12.1f}{iqr * 1e6:>10.1f}")


if __name__ == "__main__":
    main()
