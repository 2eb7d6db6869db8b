"""Before/after solve times of two checkouts, paired inside one interpreter.

Run from anywhere, naming two checkout directories of the repository:

    python3 benchmarks/ab_inprocess.py --before ../parent --after ../change \
        --seconds 60 --label ab --out BENCH_tag.json lj-cluster lj-cluster:9001

Each case is WORKLOAD or WORKLOAD:SEED (seed 0 by default). Both
checkouts' src/nltgcr trees are loaded under two package names, and each
side's perfbench/workloads.py is loaded by path, with `nltgcr` bound to
that side's package while it loads; nothing under perfbench/ needs to know.
A pair is one solve per side, back to back, alternating which side goes
first, and its figure is the ratio after/before of the two solve times.
Pairs run for --seconds per case, and at least MIN_PAIRS of them: one
solve's time moves by 10-20 % on a shared host, so the median ratio needs
a few hundred pairs to settle within 1 %.
Both solves of a pair see the same machine within a second, so no
machine-speed reference is needed. Every solve's answer is checked with
the workload's own check, outside the timed region.

The script re-runs itself once so that BLAS runs on one thread and glibc's
malloc thresholds are pinned (ab_pairs.PINNED_ENV) before the interpreter
starts. Both sides share one heap and one BLAS, so a change in allocation
pattern can still move the other side's times; set-up time, peak memory
and import time need a fresh process (ab_pairs.py).

The record goes under "inprocess" -> LABEL in --out, next to ab_pairs.py's
cases, which it leaves alone. Per case it holds each pair's ratio, their
median and quartiles, how many pairs the after side won (ratio below 1), a
moving-block bootstrap 95 % interval of the median ratio and its block
length, each side's median solve time, its iterations and fevals to
tolerance, and whether the two sides' final x, residual norms and fevals
are byte-identical.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import importlib.util
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

from ab_pairs import PINNED_ENV, describe, quartiles

# Set before the interpreter starts: BLAS reads its thread count, and glibc
# its malloc thresholds, when they load. Nothing here imports numpy; the
# checkouts' packages do, after the re-run.
ENV = {**PINNED_ENV, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIDES = ("before", "after")
BOOTSTRAP_SAMPLES = 4000
WARMUP_SOLVES = 2
MIN_PAIRS = 10


def load_module(name: str, path: Path, package_dir: Path = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, side: str):
    """The side's workloads module, built on its own copy of the package."""
    pkg_dir = checkout / "src" / "nltgcr"
    package = load_module(f"nltgcr_{side}", pkg_dir / "__init__.py", pkg_dir)
    saved = sys.modules.get("nltgcr")
    sys.modules["nltgcr"] = package
    try:
        return load_module(f"workloads_{side}", checkout / "perfbench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["nltgcr"]
        else:
            sys.modules["nltgcr"] = saved


def solve(workloads, inst):
    """One timed solve, then its answer check. Returns (seconds, result)."""
    gc.collect()
    t0 = time.perf_counter()
    x, trace = inst.solve(inst.problem, inst.x0)
    seconds = time.perf_counter() - t0
    reached = workloads.first_to_tol(trace, inst.tol)
    failure = workloads.check_answer(inst, x) if reached else "not solved to tolerance"
    if failure:
        raise RuntimeError(failure)
    digest = hashlib.sha256(x.tobytes())
    digest.update(array.array("d", [r.resnorm for r in trace.records]).tobytes())
    digest.update(array.array("q", [r.fevals for r in trace.records]).tobytes())
    return seconds, (reached.iter, reached.fevals, digest.hexdigest())


def block_length(n: int) -> int:
    """Bootstrap block length for n pairs: n^(1/3), the order Hall, Horowitz
    & Jing (Biometrika 82, 1995) give for block-bootstrap variances."""
    return max(1, round(n ** (1 / 3)))


def bootstrap_median(values, block=1, seed=0):
    """A percentile moving-block bootstrap 95 % interval of the median.

    A resample joins blocks of `block` consecutive values, their starts drawn
    with replacement, cut to len(values). The host's slow stretches span
    several pairs, so neighbouring ratios are correlated, and resampling
    them one by one (block = 1) makes the interval too narrow.
    """
    rng = random.Random(seed)
    n = len(values)
    starts = range(n - block + 1)
    meds = []
    for _ in range(BOOTSTRAP_SAMPLES):
        resample = []
        for s in rng.choices(starts, k=-(-n // block)):
            resample.extend(values[s : s + block])
        meds.append(statistics.median(resample[:n]))
    meds.sort()
    return [meds[int(0.025 * BOOTSTRAP_SAMPLES)], meds[int(0.975 * BOOTSTRAP_SAMPLES) - 1]]


def run_case(sides, workload: str, seed: int, seconds: float) -> dict:
    results = {}
    for s in SIDES:
        inst = sides[s].WORKLOADS[workload](seed)
        for _ in range(WARMUP_SOLVES):
            results[s] = solve(sides[s], inst)[1]
    times = {s: [] for s in SIDES}
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < MIN_PAIRS or time.perf_counter() < deadline:
        # Fresh inputs for every pair, so that neither side keeps one heap
        # placement of its start vector for the whole case.
        insts = {s: wl.WORKLOADS[workload](seed) for s, wl in sides.items()}
        for s in SIDES if pairs % 2 == 0 else SIDES[::-1]:
            t, result = solve(sides[s], insts[s])
            if result != results[s]:
                raise RuntimeError(f"{s} side's {workload}:{seed} result changed between solves")
            times[s].append(t)
        pairs += 1
    ratios = [a / b for a, b in zip(times["after"], times["before"])]
    block = block_length(pairs)
    return {
        "pairs": pairs,
        "first_side": "before in even pairs (the first is pair 0), after in odd",
        "ratio_after_over_before": ratios,
        "ratio": quartiles(ratios),
        "after_wins": sum(r < 1.0 for r in ratios),
        "after_losses": sum(r > 1.0 for r in ratios),
        "ratio_median_ci95": bootstrap_median(ratios, block),
        "bootstrap_block": block,
        "solve_s.p50": {s: statistics.median(times[s]) for s in SIDES},
        "iters_to_tol": {s: results[s][0] for s in SIDES},
        "fevals_to_tol": {s: results[s][1] for s in SIDES},
        "identical_results": results["before"][2] == results["after"][2],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--after", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seconds", type=float, default=60.0, help="timing budget per case")
    ap.add_argument("--label", default="ab", help="key of this comparison in --out")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("cases", nargs="+", help="WORKLOAD or WORKLOAD:SEED")
    args = ap.parse_args(argv)

    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    sides = {s: load_side(path, s) for s, path in checkouts.items()}
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    entry = record.setdefault("inprocess", {}).setdefault(args.label, {"cases": {}})
    entry.update({
        **{s: describe(path) for s, path in checkouts.items()},
        "env": ENV,
        "seconds_per_case": args.seconds,
    })
    for case in args.cases:
        workload, _, seed = case.partition(":")
        seed = int(seed or 0)
        result = run_case(sides, workload, seed, args.seconds)
        entry["cases"][f"{workload}:{seed}"] = result
        ci = result["ratio_median_ci95"]
        print(f"{workload}:{seed}: after/before median {result['ratio']['median']:.4f} "
              f"[{ci[0]:.4f}, {ci[1]:.4f}], after won {result['after_wins']}/{result['pairs']}, "
              f"identical results: {result['identical_results']}", flush=True)
        # Written after every case, so a stopped run keeps what it finished.
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], {**os.environ, **ENV})
    sys.exit(main())
