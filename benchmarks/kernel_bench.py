"""Time each numpy kernel, the window Gram-Schmidt step under the norm-drop
rule that every solve runs, the direction step on windows it built, the
same step in the residual basis (no p update), a window push at capacity
and the two residual line searches on the benchmark sizes.

Run:  PYTHONPATH=src python benchmarks/kernel_bench.py
Prints the median per-call time over 15 repeats of 20 calls, with the
interquartile range of those repeats, so each row shows its own noise.
Next to it is the median adjusted for machine speed: the machine-speed
reference of the solve benchmark (perfbench/reference.py) runs just before
and just after each row, and the median is scaled by REF_NOMINAL_S over the
mean of those two reference times. BLAS runs on one thread, as in the solve
benchmark (perfbench/run.py).

Informational only: no gate reads these numbers.
"""

import os
import sys
from pathlib import Path

# Before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import functools  # noqa: E402
import itertools  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

from nltgcr import kernels  # noqa: E402
from nltgcr.core import LineSearchOptions, WindowPair  # noqa: E402
from nltgcr.linear import add_direction, orthogonalize_pair  # noqa: E402
from nltgcr.linesearch import backtrack, backtrack_linearized  # noqa: E402
from nltgcr.problems import BratuProblem, LennardJonesProblem  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from reference import adjust, reference  # noqa: E402


def _time(fn, *args, repeat=15, number=20):
    """Raw median, IQR and adjusted median of the per-call time."""
    before = reference()
    per_call = np.array(timeit.repeat(lambda: fn(*args), repeat=repeat, number=number)) / number
    ref_s = 0.5 * (before + reference())
    q1, med, q3 = np.percentile(per_call, [25, 50, 75])
    return med, q3 - q1, adjust(med, ref_s)


def _window_args(k, n, rng):
    """orthogonalize_pair's arguments against a full k-pair window, as the
    direction step passes them: n x k views of the WindowPair row buffers.
    The v rows are orthonormal, as in every window add_direction builds, and
    the random v keeps most of its norm, so the call takes one pass."""
    w = WindowPair(k)
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    for v in Q.T:
        w.push(rng.standard_normal(n), v)
    return rng.standard_normal(n), rng.standard_normal(n), w.p_matrix(), w.v_matrix(), 0, k


def _add_direction_case(k, n, rng, residual_basis=False):
    """add_direction against a full k-pair window that add_direction built.

    Each call takes the next of 2k + 1 random v rows, so every call keeps
    most of ||v||, takes one pass, pushes and evicts the oldest pair. With
    residual_basis the step skips its p update, as in a Newton-Krylov inner
    solve (which never evicts; a push costs the same either way).
    """
    w = WindowPair(k)
    pool = itertools.cycle(rng.standard_normal((2 * k + 1, n)))
    p = rng.standard_normal(n)
    step = dict(r0_norm=float(np.linalg.norm(p)), residual_basis=residual_basis)
    for _ in range(k):
        add_direction(w, p, next(pool), **step)
    return lambda: add_direction(w, p, next(pool), **step), ()


def _full_window(k, n, rng):
    """WindowPair.push's arguments against a full k-pair window: every timed
    push evicts the oldest pair. The direction step hands push the norm it
    measured (v_norm), so push does not measure v again."""
    w = WindowPair(k)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(k):
        w.push(rng.standard_normal(n), v)
    return w, rng.standard_normal(n), v


def _linearized_case(n, rng):
    """backtrack_linearized as a LIN step of bratu-m1 calls it: a one-pair
    window gives Vy = y v with y = <v, r>, and the first trial is accepted."""
    r = rng.standard_normal(n)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    y = float(v @ r)
    search = functools.partial(backtrack_linearized, rnorm2=float(r @ r))
    args = (r, y * v, y * y, LineSearchOptions())
    assert search(*args).steps == 1
    return search, args


def _bratu_backtrack_args():
    """backtrack on Bratu 100x100's f from the all-ones start of the bratu
    workloads, along the short step d = -1e-5 r (descent, as Bratu's J is
    negative definite), which the first trial accepts: one f evaluation per
    call."""
    bp = BratuProblem(grid_n=100, lam=0.5)
    x = np.ones(bp.dim)
    r = -bp.f(x)
    d = -1e-5 * r
    args = (bp.f, x, d, r, float(r @ bp.jv(x, d)), LineSearchOptions())
    assert backtrack(*args).steps == 1
    return args


def main():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((100, 100))
    p = rng.standard_normal((100, 100))
    # The lj-cluster workload's 108-atom start at seed 0 (perfbench/workloads.py).
    pos = LennardJonesProblem(
        cells_per_side=3, perturbation_scale=0.05, rng_seed=7
    ).initial_positions().reshape(-1, 3)

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
    # The whole direction step of bratu-m10 (k = 10) and newton-krylov (k = 50).
    for k in (10, 50):
        cases.append((f"add_direction k={k}", *_add_direction_case(k, 10**4, rng)))
    # The same step in the residual basis of the Newton-Krylov inner solve.
    for k in (10, 50):
        cases.append((f"add_direction residual k={k}",
                      *_add_direction_case(k, 10**4, rng, residual_basis=True)))
    # The eviction cost of bratu-m10 / lj-cluster (m = 10) and newton-krylov (m = 50).
    for k in (10, 50):
        w, p_new, v_new = _full_window(k, 10**4, rng)
        cases.append((f"WindowPair.push full m={k}", functools.partial(w.push, v_norm=1.0),
                      (p_new, v_new)))
    # The LIN search of bratu-m1 / bratu-m10 and the NL search on Bratu's f.
    cases.append(("backtrack_linearized n=1e4", *_linearized_case(10**4, rng)))
    cases.append(("backtrack bratu 100x100", backtrack, _bratu_backtrack_args()))
    header = f"{'kernel':<28}{'median (us)':>12}{'IQR (us)':>10}{'adjusted (us)':>15}"
    print("Informational, not gated.")
    print(header)
    print("-" * len(header))
    for name, fn, args in cases:
        med, iqr, adjusted = _time(fn, *args)
        print(f"{name:<28}{med * 1e6:>12.1f}{iqr * 1e6:>10.1f}{adjusted * 1e6:>15.1f}")


if __name__ == "__main__":
    main()
