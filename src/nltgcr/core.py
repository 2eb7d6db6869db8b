"""Shared data model: problems, solver options, direction windows, traces,
and the Jacobian-vector probe with its feval accounting."""

from __future__ import annotations

import csv
import io
import math
import operator
import time
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

VARIANTS = ("nonlinear", "linearized", "adaptive")
MODES = ("NL", "LIN")


class BreakdownError(RuntimeError):
    """No search direction could be built: nlTGCR's seed collapsed or its
    window restarts ran out, or a Newton-Krylov inner solve broke down
    before its first step. drive attaches the last x and frozen trace."""


class DivergenceError(RuntimeError):
    """Iteration diverged (residual norm grew past the divergence bound).

    Raised by drive for guarded solves, with the last x and frozen trace.
    """


class NotDescentError(RuntimeError):
    """Line search was handed a non-descent direction (slope <= 0)."""


class NonFiniteError(RuntimeError):
    """A function evaluation produced NaN or Inf; drive attaches the last x
    and frozen trace."""


# Every way a solve can fail after x0; ValueError covers evaluations outside a
# problem's domain (exp overflow). drive attaches the last x and frozen trace.
SOLVE_FAILURES = (BreakdownError, DivergenceError, NonFiniteError, NotDescentError, ValueError)
# A guarded solve gives up once ||f(x)|| exceeds this multiple of ||f(x0)||.
DIVERGENCE_FACTOR = 1e8


def check_finite(v, what="vector"):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite entries")
    return v


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the vector v is finite. Its sum of squares is
    finite unless an entry is NaN or inf or the sum overflows (numpy warns
    then), so the entries are scanned only when it is not."""
    return math.isfinite(v @ v) or bool(np.all(np.isfinite(v)))


@dataclass
class NonlinearProblem:
    """Function oracle for f(x) = 0.

    eval_f must be deterministic within a process. exact_jv, when given,
    returns J(x) @ p and must agree with the finite-difference probe.
    eval_phi is the scalar objective for problems where f is its gradient.
    """

    dim: int
    eval_f: Callable[[np.ndarray], np.ndarray]
    exact_jv: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    eval_phi: Optional[Callable[[np.ndarray], float]] = None
    name: str = ""


@dataclass(frozen=True)
class LineSearchOptions:
    """Backtracking parameters: sufficient decrease c1, shrink factor tau."""

    c1: float = 1e-4
    tau: float = 0.8
    max_backtracks: int = 30
    alpha0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise ValueError("c1 must be in (0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError("alpha0 must be in (0, 1]")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


@dataclass(frozen=True)
class SolverOptions:
    """Configuration for the windowed conjugate-residual solver.

    window_m is the number of retained (p, v) direction pairs. The variant
    selects how the residual is updated each iteration: "nonlinear"
    re-evaluates f, "linearized" uses the algebraic recursion with the
    Jacobian frozen at the sweep origin, and "adaptive" switches between
    the two based on the angular distance of the two residuals.
    """

    window_m: int = 1
    tol_rel: float = 1e-10
    max_iters: int = 300
    restart_every: Optional[int] = 50
    variant: str = "nonlinear"
    adaptive_threshold: float = 0.01
    adaptive_check_period: int = 10
    linesearch: Optional[LineSearchOptions] = None
    truncated_update: bool = False

    def __post_init__(self):
        if self.window_m < 1:
            raise ValueError("window_m must be >= 1")
        if self.tol_rel <= 0.0:
            raise ValueError("tol_rel must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.adaptive_threshold < 2.0:
            raise ValueError("adaptive_threshold must be in (0, 2)")
        if self.adaptive_check_period < 1:
            raise ValueError("adaptive_check_period must be >= 1")
        if self.restart_every is not None and self.restart_every < 1:
            raise ValueError("restart_every must be >= 1 or None")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


class WindowPair:
    """Sliding window of paired directions (p_i, v_i), v_i = J(x_i) p_i.

    The pairs are rows of two preallocated (capacity, n) buffers used as a
    ring: at capacity, push overwrites the oldest pair's rows in place and
    advances `head`, the storage row of the oldest pair, so eviction moves
    no rows. p_matrix() and v_matrix() return the window oldest to newest as
    n x k matrices with one column per pair: views of the buffers until the
    ring wraps, copies after. rows() hands the hot path the (k, n) row
    blocks in storage order, where sums over the window (V^T r, P y,
    Gram-Schmidt) need no reordering; logical() puts a per-pair array back
    in window order. No caller may hold a view across a push. The v rows
    must be orthonormal, as in every window linear.add_direction builds
    (the caller orthogonalizes; push divides by the scale it is given).
    A window holds P rows for all its pairs or for none: a pair pushed with
    p None has only its v row, and the P buffer is allocated at the first
    pair pushed with a p, or when add_p_rows gives v-only pairs their rows.
    `gain` is the largest ||v|| / ||p|| of a raw pair that
    linear.add_direction has seen since the last clear: the operator's
    scale, against which a v' at rounding level collapses.
    The v rows are stored in the precision the last clear set (float64
    before any; push rounds each row to it), the P rows in float64.
    """

    NORMALIZATION_TOL = 1e-10

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # Sized to the vector length at the first push (P: with a p).
        self._p = np.empty((capacity, 0))
        self._v = np.empty((capacity, 0))
        self._has_p = True
        self._len = 0
        self.head = 0
        self.gain = 0.0

    def __len__(self):
        return self._len

    def push(self, p: np.ndarray, v: np.ndarray, scale: float = 1.0, *,
             v_norm: Optional[float] = None) -> None:
        """Append the pair (p / scale, v / scale); ||v|| / scale must be 1.
        With p None the pair has no P row, which a window allows only while
        its pairs have none. `v_norm` is ||v|| when the caller has measured
        it already."""
        if p is not None and p.shape != v.shape:
            raise ValueError("p and v must have the same length")
        if self._len and (p is None) == self._has_p:
            raise ValueError("a window holds P rows for all its pairs or for none")
        n = v.shape[0]
        if n != self._v.shape[1]:
            if self._len:
                raise ValueError("dimension mismatch with existing window columns")
            self._v = np.empty((self.capacity, n), self._v.dtype)
        nv = (float(np.linalg.norm(v)) if v_norm is None else v_norm) / scale
        # Written so that a NaN norm fails too.
        if not abs(nv - 1.0) <= self.NORMALIZATION_TOL:
            raise ValueError(f"v is not normalized: ||v|| = {nv!r}")
        if self._len == self.capacity:
            row = self.head
            self.head = (row + 1) % self.capacity
        else:
            row = self._len
            self._len += 1
        self._has_p = p is not None
        if self._has_p:
            if self._p.shape[1] != n:
                self._p = np.empty((self.capacity, n))
            np.divide(p, scale, out=self._p[row])
        np.divide(v, scale, out=self._v[row])

    def add_p_rows(self) -> np.ndarray:
        """Give every pair of a window without P rows one, allocating the
        P buffer if need be; returns them as the (k, n) row block, in
        storage order, for the caller to fill."""
        if self._has_p:
            raise ValueError("the window holds P rows already")
        if self._p.shape[1] != self._v.shape[1]:
            self._p = np.empty(self._v.shape, np.float64)
        self._has_p = True
        return self._p[: self._len]

    def clear(self, dtype=np.float64) -> None:
        """Empty the window and store its v rows in `dtype` (float64 or
        float32) from here on, dropping a buffer of the other precision."""
        dtype = np.dtype(dtype)
        if dtype not in (np.float64, np.float32):
            raise ValueError(f"v rows must be float64 or float32, got {dtype}")
        if dtype != self._v.dtype:
            self._v = np.empty((self.capacity, 0), dtype)
        self._len = 0
        self.head = 0
        self._has_p = True
        self.gain = 0.0

    @property
    def newest_slot(self) -> int:
        """Storage row of the newest pair."""
        return (self.head + self._len - 1) % self.capacity

    def rows(self):
        """(P, V): the pairs as (k, n) row blocks, in storage order; P is
        None when the pairs have no P rows."""
        return self._p[: self._len] if self._has_p else None, self._v[: self._len]

    def logical(self, a: np.ndarray) -> np.ndarray:
        """A per-pair array in storage order, reordered oldest to newest."""
        h = self.head
        return np.concatenate((a[h:], a[:h])) if h else a

    def p_matrix(self) -> np.ndarray:
        if not self._has_p:
            raise ValueError("the window holds no P rows")
        return self.logical(self._p[: self._len]).T

    def v_matrix(self) -> np.ndarray:
        return self.logical(self._v[: self._len]).T

    def orthonormality_defect(self) -> float:
        """Max-norm deviation of V^T V from the identity."""
        if not self._len:
            return 0.0
        V = self.rows()[1]
        G = V @ V.T - np.eye(self._len)
        return float(np.abs(G).max())


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    fevals: int
    resnorm: float
    step_size: float
    mode: str
    wallclock_s: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


CSV_HEADER = "iter,fevals,resnorm,step_size,mode,wallclock_s"


class ConvergenceTrace:
    """Per-iteration convergence log; immutable once the solve finalizes it.

    The rows are kept in columns: iter and fevals as int64, resnorm,
    step_size and wallclock_s as float64, and the mode as one byte, its
    index in MODES. That is 41 bytes a row, where a TraceRecord object
    kept per row took over 200. `records` and final() build TraceRecords
    from the columns when asked.
    """

    def __init__(self):
        self._iter = array("q")
        self._fevals = array("q")
        self._resnorm = array("d")
        self._step_size = array("d")
        self._wallclock_s = array("d")
        self._mode = bytearray()
        self._frozen = False

    def __len__(self):
        return len(self._iter)

    def append(self, rec: TraceRecord) -> "ConvergenceTrace":
        if self._frozen:
            raise RuntimeError("trace is frozen after the solve completed")
        if self._fevals and rec.fevals < self._fevals[-1]:
            raise ValueError(
                f"fevals must be nondecreasing: {rec.fevals} < {self._fevals[-1]}"
            )
        # Every field is converted before any column grows, so a row that
        # does not fit the columns leaves the trace as it was.
        it, fevals = operator.index(rec.iter), operator.index(rec.fevals)
        resnorm, step, wall = float(rec.resnorm), float(rec.step_size), float(rec.wallclock_s)
        mode = MODES.index(rec.mode)
        self._iter.append(it)
        self._fevals.append(fevals)
        self._resnorm.append(resnorm)
        self._step_size.append(step)
        self._wallclock_s.append(wall)
        self._mode.append(mode)
        return self

    def freeze(self) -> "ConvergenceTrace":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _columns(self):
        """The six columns in TraceRecord's field order, modes as strings."""
        modes = (MODES[m] for m in self._mode)
        return (self._iter, self._fevals, self._resnorm, self._step_size, modes,
                self._wallclock_s)

    @property
    def records(self) -> List[TraceRecord]:
        """The rows as TraceRecords, built anew on each access."""
        return list(map(TraceRecord, *self._columns()))

    def resnorms(self) -> np.ndarray:
        return np.array(self._resnorm, dtype=np.float64)

    def fevals(self) -> np.ndarray:
        return np.array(self._fevals, dtype=int)

    def final(self) -> TraceRecord:
        return TraceRecord(self._iter[-1], self._fevals[-1], self._resnorm[-1],
                           self._step_size[-1], MODES[self._mode[-1]], self._wallclock_s[-1])

    def fevals_to_relative(self, threshold: float) -> Optional[int]:
        """Cumulative fevals when resnorm/resnorm0 first drops to threshold."""
        if not self._resnorm:
            return None
        r0 = self._resnorm[0]
        if r0 == 0.0:
            return self._fevals[0]
        for resnorm, fevals in zip(self._resnorm, self._fevals):
            if resnorm <= threshold * r0:
                return fevals
        return None

    def to_csv(self, path=None) -> str:
        """Serialize as CSV; resnorm carries 17 significant digits."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for it, fevals, resnorm, step, mode, wall in zip(*self._columns()):
            buf.write(f"{it},{fevals},{resnorm:.16e},{step:.16e},{mode},{wall:.6f}\n")
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path) -> "ConvergenceTrace":
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            expected = CSV_HEADER.split(",")
            if reader.fieldnames != expected:
                raise ValueError(f"bad trace header: {reader.fieldnames}")
            for row in reader:
                trace.append(
                    TraceRecord(
                        iter=int(row["iter"]),
                        fevals=int(row["fevals"]),
                        resnorm=float(row["resnorm"]),
                        step_size=float(row["step_size"]),
                        mode=row["mode"],
                        wallclock_s=float(row["wallclock_s"]),
                    )
                )
        return trace


# Relative step of the forward-difference probe (scaled by 1 + ||x||_inf).
FRECHET_EPS_SCALE = 1e-7


class EvalCounter:
    """Counts function evaluations against a problem oracle.

    All solvers charge costs through this wrapper so their traces share one
    accounting convention: each eval_f call is one feval, and so is each
    forward-difference Jacobian-vector probe; with exact_jv every probe is
    the problem's exact product and free.
    """

    def __init__(self, prob: NonlinearProblem, exact_jv: bool = False):
        if exact_jv and prob.exact_jv is None:
            raise ValueError("exact_jv=True but the problem has no exact_jv")
        self.prob = prob
        self.exact_jv = exact_jv
        self.count = 0

    def f(self, x: np.ndarray) -> np.ndarray:
        """f(x), charged one feval. A result not of x's shape raises
        ValueError, a non-finite one NonFiniteError."""
        self.count += 1
        fx = self.prob.eval_f(x)
        if np.shape(fx) != x.shape:
            raise ValueError(f"f(x) has shape {np.shape(fx)}, expected {x.shape}")
        if not all_finite(fx):
            raise NonFiniteError("f(x) is not finite")
        return fx

    def jv(self, x: np.ndarray, p: np.ndarray, r: np.ndarray, *,
           p_norm: Optional[float] = None, x_inf: Optional[float] = None) -> np.ndarray:
        """Approximate J(x) @ p, reusing the residual r = -f(x) the caller holds.

        Takes one forward difference (f(x + eps p) + r) / eps with
        eps = FRECHET_EPS_SCALE * (1 + ||x||_inf) / ||p||_2, charged 1 feval
        once f(x + eps p) is known to be finite. Negation is exact and a - b
        is a + (-b), so that is (f(x + eps p) - f(x)) / eps to the bit. With
        exact_jv it returns the problem's exact_jv instead, free. `p_norm`
        is ||p||_2 and `x_inf` is ||x||_inf when the caller has measured
        them already.
        """
        if self.exact_jv:
            jv = self.prob.exact_jv(x, p)
            if np.shape(jv) != p.shape:
                raise ValueError(f"J(x) p has shape {np.shape(jv)}, expected {p.shape}")
            if not all_finite(jv):
                raise NonFiniteError("J(x) p is not finite")
            return jv
        if p_norm is None:
            # np.linalg.norm(p) to the bit, without its overhead.
            p_norm = math.sqrt(p @ p)
        if p_norm == 0.0:
            raise ValueError("cannot probe along a zero direction")
        if x_inf is None:
            x_inf = float(np.abs(x).max())
        eps = FRECHET_EPS_SCALE * (1.0 + x_inf) / p_norm
        shifted = eps * p
        shifted += x
        f_shift = self.prob.eval_f(shifted)
        if not all_finite(f_shift):
            raise NonFiniteError("f(x + eps*p) is not finite")
        jv = f_shift + r
        jv /= eps
        self.count += 1
        return jv

    # slope probes through _probe, not jv, so a wrapper put around jv by
    # name (a tracer's) sees the Jacobian-vector probes alone.
    _probe = jv

    def slope(self, x: np.ndarray, r: np.ndarray, d: np.ndarray) -> float:
        """<J(x)^T r, d> = <r, J(x) d> from one probe whose base is r = -f(x),
        so no f(x) is formed. A positive value means d is a descent
        direction for phi = 0.5 ||f||^2."""
        return float(r @ self._probe(x, d, r))

    def phi(self, x: np.ndarray) -> float:
        """Objective evaluation, charged like a function evaluation."""
        if self.prob.eval_phi is None:
            raise ValueError("problem has no eval_phi")
        self.count += 1
        val = float(self.prob.eval_phi(x))
        if not np.isfinite(val):
            raise NonFiniteError("phi(x) is not finite")
        return val


def drive(prob, x0, opts, steps, *args, exact_jv=False, guard=False, start_mode="NL"):
    """Run one solve: its start, stopping rule, trace and failure state.

    Checks x0, evaluates f(x0) and records it as iteration 0 (in start_mode),
    returning at once when it is zero. Then pulls iterations from the
    generator steps(ev, x0, f(x0), target, opts, *args), which yields
    (x, resnorm, step_size, mode) once per iteration, and records each.
    Stops at resnorm <= target = opts.tol_rel * ||f(x0)|| or after
    opts.max_iters iterations, and never resumes the generator after its
    last record. With guard, a resnorm above DIVERGENCE_FACTOR * ||f(x0)||
    raises DivergenceError.

    Every SOLVE_FAILURES error raised after x0 is checked leaves with the
    last yielded x (x0 before the first) and the frozen trace. Returns
    (x, trace).
    """
    x = check_finite(np.asarray(x0, dtype=float), "x0").copy()
    if x.shape != (prob.dim,):
        raise ValueError(f"x0 must have length {prob.dim}")
    ev = EvalCounter(prob, exact_jv)
    trace = ConvergenceTrace()
    t0 = time.perf_counter()

    def record(it, resnorm, step, mode):
        trace.append(TraceRecord(it, ev.count, resnorm, step, mode, time.perf_counter() - t0))

    try:
        fx = ev.f(x)
        r0n = float(np.linalg.norm(fx))
        record(0, r0n, 0.0, start_mode)
        if r0n == 0.0:
            return x, trace.freeze()
        target = opts.tol_rel * r0n
        iterations = steps(ev, x, fx, target, opts, *args)
        del fx  # f(x0) lives only as long as the solver's generator keeps it
        for it, (x, resnorm, step, mode) in enumerate(iterations, 1):
            record(it, resnorm, step, mode)
            if resnorm <= target:
                break
            if guard and resnorm > DIVERGENCE_FACTOR * r0n:
                raise DivergenceError(f"residual grew to {resnorm:.3e} from {r0n:.3e}")
            if it == opts.max_iters:
                break
    except SOLVE_FAILURES as err:
        err.x, err.trace = x, trace.freeze()
        raise
    return x, trace.freeze()
