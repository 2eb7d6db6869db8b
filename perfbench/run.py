"""Solve benchmark: four fixed workloads through nltgcr_solve and
newton_krylov_solve, every answer checked, end-to-end metrics with tracing
off and per-layer metrics from a separate traced run.

Run from the repository root (no install needed; src/ is put on the path):

    python3 perfbench/run.py --workload bratu-m1 --seed 0 --seconds 25 --trace 0

Workloads, metric names, units and bounds live in BENCHMARK.json at the
repository root; every metric listed there for the chosen --trace mode is
printed with its unit, and the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. A record of the run
(provenance, failures, every computed value, and for traced runs the spans
of the first traced solve) is written to .perfbench_out/.

The benchmark is one closed-loop client: a single process runs one solve
after another, BLAS pinned to one thread. Seed 0 reproduces the acceptance
inputs; seed 9001 is held out for checking later claims.

--trace 0: set up once here, run one solve under tracemalloc for
  peak_mem_mb, then solve back to back for --seconds while setting up
  SETUP_SAMPLES times in fresh interpreters. Between solves and set-ups the
  fixed reference computation of reference.py runs, and each solve or
  set-up time is adjusted by the mean of the two reference times around it.
  On a shared host the machine runs up to twice as slow for stretches of
  seconds to minutes, which moved even the fastest raw solve of a run by
  30 % between runs. The gated times setup_s, solve_s.adjusted and
  iter_ms.adjusted are medians of adjusted times; the raw medians and the
  raw tail solve time are printed and recorded next to them.
--trace 1: alternate untraced and traced solves for --seconds. Per-layer
  figures are medians over the traced solves; trace.overhead_frac compares
  the traced and untraced median solve times. BENCHMARK.json lists the
  layer metrics every workload exercises. Layer times that are zero by
  construction on some workload (a kernel of the other problem, the window
  under newton-krylov, the inner TGCR under nltgcr) are printed and
  recorded with the rest but not listed there.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
# A fresh-process set-up that takes this long has hung.
CHILD_TIMEOUT_S = 120
MIB = 1024.0 * 1024.0


def setup(workload: str, seed: int):
    """Import the library, build the inputs and call each kernel once.

    Returns (instance, seconds spent).
    """
    t0 = time.perf_counter()
    import workloads  # first import pulls in numpy and nltgcr

    inst = workloads.WORKLOADS[workload](seed)
    inst.problem.eval_f(inst.x0)
    if inst.energy is not None:
        inst.energy(inst.x0)
    return inst, time.perf_counter() - t0


def setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


@dataclass
class Outcome:
    seconds: float
    failure: Optional[str] = None
    iters: Optional[int] = None
    fevals: Optional[int] = None
    layers: Optional[Dict[str, float]] = None
    # Mean time of the reference computation run just before and just after
    # this solve; set for the timed solves only.
    ref_s: Optional[float] = None


def solve_once(inst, tracer=None) -> Outcome:
    """One timed solve plus its answer check. A failure is recorded, never raised."""
    import tracing
    import workloads

    gc.collect()
    prob = inst.problem if tracer is None else tracing.traced_problem(tracer, inst.problem)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            x, trace = inst.solve(prob, inst.x0)
        else:
            tracer.reset()
            with tracing.instrument(tracer):
                root = tracer.begin(inst.root)
                try:
                    x, trace = inst.solve(prob, inst.x0)
                finally:
                    tracer.end(root)
    except Exception as err:  # a failed solve must not end the run
        traceback.print_exc(file=sys.stderr)
        return Outcome(time.perf_counter() - t0, f"{type(err).__name__}: {err}")
    seconds = time.perf_counter() - t0
    reached = workloads.first_to_tol(trace, inst.tol)
    if reached is None:
        return Outcome(seconds, f"max_iters exit above tolerance after {len(trace) - 1} iterations")
    failure = workloads.check_answer(inst, x)
    layers = None
    if tracer is not None and failure is None:
        try:
            layers = tracing.summarize(tracer, trace)
        except tracing.AccountingError as err:
            failure = f"AccountingError: {err}"
    return Outcome(seconds, failure, reached.iter, reached.fevals, layers)


def peak_alloc_mb(inst) -> Tuple[float, Outcome]:
    """Peak traced allocation of one solve, in its own untimed pass."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outcome = solve_once(inst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / MIB, outcome


def tail(values: List[float]):
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile); with ten or fewer samples, the minimum.
    """
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def timed_loop(inst, args):
    """Solve back to back for args.seconds, with the reference computation
    between solves and SETUP_SAMPLES fresh-process set-ups spread evenly
    through the same window, so that set-ups and solves sample the same
    machine conditions.

    Returns the timed solves and a list of (set-up seconds, mean reference
    seconds around that set-up).
    """
    import reference

    setups: List[Tuple[float, float]] = []
    timed: List[Outcome] = []
    start = time.perf_counter()
    probes = [start + args.seconds * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    before = reference.reference()
    deadline = start + args.seconds
    while probes or not timed or time.perf_counter() < deadline:
        if probes and time.perf_counter() >= probes[0]:
            probes.pop(0)
            seconds = setup_in_fresh_process(args.workload, args.seed)
            after = reference.reference()
            setups.append((seconds, 0.5 * (before + after)))
        else:
            outcome = solve_once(inst)
            after = reference.reference()
            outcome.ref_s = 0.5 * (before + after)
            timed.append(outcome)
        before = after
    return timed, setups


def end_to_end(outcomes: List[Outcome], timed: List[Outcome], setups, peak_mb: float):
    """Timings come from the timed solves; solved_frac counts every solve.
    Set-up and solve times are gated adjusted for machine speed."""
    from reference import adjust

    ok = [o for o in timed if o.failure is None]
    # A solve that failed early would otherwise pass for a fast one.
    times = [o.seconds for o in ok] or [o.seconds for o in timed]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(adjust(t, r) for t, r in setups),
        "setup_s.raw": statistics.median(t for t, _ in setups),
        "solve_s.adjusted": statistics.median(adjust(o.seconds, o.ref_s) for o in ok) if ok else 0,
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": tail_s,
        "iter_ms.adjusted": statistics.median(adjust(1e3 * o.seconds / o.iters, o.ref_s) for o in ok)
        if ok else 0,
        "iter_ms.p50": statistics.median(1e3 * o.seconds / o.iters for o in ok) if ok else 0,
        "reference_s.p50": statistics.median(o.ref_s for o in timed),
        "iters_to_tol": statistics.median(o.iters for o in ok) if ok else 0,
        "fevals_to_tol": statistics.median(o.fevals for o in ok) if ok else 0,
        "peak_mem_mb": peak_mb,
        "solved_frac": sum(o.failure is None for o in outcomes) / len(outcomes),
    }
    details = {
        "timed_solves": len(timed),
        "solve_s.tail_percentile": tail_pct,
        "setup_s.samples": [t for t, _ in setups],
        "reference_s.around_setups": [r for _, r in setups],
    }
    return metrics, details


def per_layer(untraced: List[Outcome], traced: List[Outcome]):
    layers = [o.layers for o in traced if o.layers is not None]
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {}
    p50_untraced = statistics.median(o.seconds for o in untraced)
    p50_traced = statistics.median(o.seconds for o in traced)
    metrics["trace.overhead_frac"] = p50_traced / p50_untraced - 1.0
    details = {"untraced_solves": len(untraced), "traced_solves": len(traced)}
    return metrics, details


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def provenance() -> dict:
    import numpy as np
    from nltgcr import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "backend": kernels.active_backend(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def spans_record(spans) -> dict:
    """Spans of one traced solve, times in microseconds from its start."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][2]
    rows = [[index[n], parent, round((a - t0) * 1e6, 3), round((b - t0) * 1e6, 3)]
            for n, parent, a, b in spans]
    return {"names": names, "columns": ["name", "parent", "start_us", "end_us"], "spans": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    if not (ROOT / "src" / "nltgcr" / "__init__.py").is_file():
        sys.exit(f"no src/nltgcr under {ROOT}: run from a checkout of the repository")
    inst, first_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    import tracing

    outcomes: List[Outcome] = []
    if args.trace == 0:
        peak_mb, first = peak_alloc_mb(inst)
        outcomes.append(first)
        timed, setups = timed_loop(inst, args)
        outcomes += timed
        values, details = end_to_end(outcomes, timed, setups, peak_mb)
        wanted = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        outcomes.append(solve_once(inst))  # warm-up
        untraced: List[Outcome] = []
        traced: List[Outcome] = []
        first_spans = None
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(solve_once(inst))
            traced.append(solve_once(inst, tracer))
            if first_spans is None:
                first_spans = tracer.spans
        outcomes += untraced + traced
        values, details = per_layer(untraced, traced)
        details["spans"] = spans_record(first_spans)
        wanted = spec["per_layer"]

    failures = [o.failure for o in outcomes if o.failure is not None]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = not failures and not missing

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "failures": failures,
        "values": values,
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"solves {len(outcomes)}  failed {len(failures)}")
    for name in sorted(values):
        # Besides the listed metrics: the median and tail solve times, and
        # layer times that BENCHMARK.json leaves out.
        unit = units.get(name, "ms" if name.startswith("iter_ms") else "s")
        print(f"  {name:<44} {values[name]:>16.6g} {unit}")
    for f in sorted(set(failures)):
        print(f"  FAILED ({failures.count(f)}x): {f}")
    if missing:
        print(f"  MISSING metrics: {missing}")
    summary = {k: v for k, v in record.items() if k not in ("values", "spans")}
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
