"""Counts and result digests of every benchmark workload, to check that a
change left the solves' bytes alone.

Run from anywhere:

    python3 benchmarks/digests.py --root ../parent --out parent.json
    python3 benchmarks/digests.py --against parent.json

Each case is WORKLOAD or WORKLOAD:SEED; with none given, every workload of
perfbench/workloads.py at seeds 0, 101 and 9001. One line per case gives
its iterations and fevals (the trace's last record) and its digest: the
first 16 hex digits of the sha256 of x's bytes, then the trace's residual
norms as float64, then its fevals as int64. The solves run in --root's
src/nltgcr with its perfbench/workloads.py (default: the checkout holding
this script), with BLAS on one thread, set before numpy loads: a BLAS that
splits its sums across threads can give other bytes from run to run.

--out writes the cases as JSON; --against reads such a file and exits 1
when a case in both differs in any of the three, or is missing from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

SEEDS = (0, 101, 9001)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def digest(x, trace) -> str:
    h = hashlib.sha256(x.tobytes())
    h.update(trace.resnorms().tobytes())
    h.update(trace.fevals().astype("int64").tobytes())
    return h.hexdigest()[:16]


def run_case(workloads, name: str, seed: int) -> dict:
    inst = workloads.WORKLOADS[name](seed)
    x, trace = inst.solve(inst.problem, inst.x0)
    last = trace.final()
    return {"iters": last.iter, "fevals": last.fevals, "digest": digest(x, trace)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="*", help="WORKLOAD or WORKLOAD:SEED (default: all)")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and perfbench/ run the solves")
    ap.add_argument("--out", type=Path, help="write the cases to this JSON file")
    ap.add_argument("--against", type=Path, help="JSON file of an earlier run to compare with")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    specs = args.cases or [f"{w}:{s}" for w in workloads.WORKLOADS for s in SEEDS]
    want = json.loads(args.against.read_text()) if args.against else {}
    got, differ = {}, []
    for spec in specs:
        name, _, seed = spec.partition(":")
        seed = int(seed or 0)
        key = f"{name}:{seed}"
        got[key] = run_case(workloads, name, seed)
        line = f"{key:<18} {got[key]['iters']:>5} {got[key]['fevals']:>6}  {got[key]['digest']}"
        if args.against is not None and want.get(key) != got[key]:
            differ.append(key)
            line += f"  DIFFERS from {want.get(key)}"
        print(line, flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(got, indent=1) + "\n")
    if differ:
        print(f"{len(differ)} of {len(specs)} cases differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads it, in main.
    os.environ.update(THREAD_ENV)
    sys.exit(main())
