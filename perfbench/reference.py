"""A fixed reference computation that measures how fast the machine runs
right now, so that solve and set-up times can be adjusted for it.

On a shared host the same solve runs up to twice as slow for stretches of
seconds to minutes, and a slow stretch can cover a whole benchmark run, so
no statistic over one run's raw solve times stays steady across runs. The
reference below runs between solves, in the same process. It does not use
the library, so a change to the library moves the solve time but not the
reference time, while a change in machine speed moves both. An adjusted
time is

    measured seconds * REF_NOMINAL_S / (reference seconds around it)

that is, the time on a machine that runs the reference in REF_NOMINAL_S.
The reference mixes the three kinds of work a solve does, in about equal
parts: interpreter-bound Python, numpy calls on short vectors, and numpy
temporaries of a few hundred KiB.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of reference() on a 2.0 GHz Intel Xeon vCPU (numpy with
# OpenBLAS, one BLAS thread) during a quiet stretch. Only ratios against it
# are gated, so its value just sets the scale of the adjusted times.
REF_NOMINAL_S = 0.030

_RNG = np.random.default_rng(20230601)
# One Lennard-Jones-sized pair array (108 x 108 x 3 doubles, 280 KiB) and one
# Bratu-sized vector (100 x 100 grid).
_PAIRS = _RNG.standard_normal((108, 108, 3))
_VEC = _RNG.standard_normal(100 * 100)


def _python_loop(n: int = 120_000) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def _small_numpy(n: int = 500) -> float:
    x = _VEC.copy()
    s = 0.0
    for _ in range(n):
        x = 0.999 * x + 0.001 * _VEC
        s += float(np.dot(x, _VEC))
    return s


def _large_temporaries(n: int = 20) -> float:
    s = 0.0
    for _ in range(n):
        d = _PAIRS - _PAIRS[:, ::-1]
        r2 = np.einsum("ijk,ijk->ij", d, d) + 1.0
        q = r2 ** -3
        s += float((d * q[:, :, None]).sum())
    return s


def adjust(seconds: float, ref_s: float) -> float:
    """A time measured next to a reference run of ref_s seconds, scaled to a
    machine that runs the reference in REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def reference() -> float:
    """Run the reference computation once and return its wall time."""
    t0 = time.perf_counter()
    _python_loop()
    _small_numpy()
    _large_temporaries()
    return time.perf_counter() - t0
