"""Before/after pairs of the solve benchmark on two checkouts.

Run from anywhere, naming two checkout directories of the repository:

    python3 benchmarks/ab_pairs.py --before ../parent --after ../change \
        --pairs 10 --out BENCH_tag.json newton-krylov:0 newton-krylov:9001

Each case is WORKLOAD or WORKLOAD:SEED (seed 0 by default). For every case
and pair, `perfbench/run.py --trace 0` runs once in each checkout, in a
fresh interpreter, with that checkout's own perfbench and src. Pairs
alternate which side runs first: on newton-krylov the second run of a pair
reads slower whatever code it runs. Both children get glibc's malloc trim
and mmap thresholds pinned (PINNED_ENV), because a freed buffer otherwise
moves the machine-speed reference that solve_s.adjusted divides by.

The record written to --out holds, per case and for every end-to-end
metric in the before checkout's BENCHMARK.json: the values of each pair,
each side's median and quartiles, and how many pairs the after side won
(ties count for neither side). The raw median solve time and the
machine-speed reference time of each run (RAW_METRICS, from the run's
record in .perfbench_out/) get the same summary, so a change in an
adjusted time can be traced to the solve or to the reference. It also
holds both commits, whether each tree had uncommitted changes, each
side's src/ line count, and the note that the two sides ran from
different directories. Cases already in an existing --out file are kept;
a case run again moves its earlier summaries to its "earlier" list.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# 64 MiB: above every buffer a workload frees, so glibc neither trims the
# heap nor maps a fresh region between solves.
PINNED_ENV = {"MALLOC_TRIM_THRESHOLD_": "67108864", "MALLOC_MMAP_THRESHOLD_": "67108864"}
SIDES = ("before", "after")
RAW_METRICS = (("solve_s.p50", "s", "lower"), ("reference_s.p50", "s", "lower"))
DIRECTORY_NOTE = (
    "The two sides ran from different checkout directories. Two copies of one "
    "commit have read 3.8 % apart on bratu-m10 (solve_s.adjusted, 4/4 pairs) "
    "and 9.5 % apart on lj-cluster (0/5 pairs), so a difference that small "
    "on those workloads is not attributable to the code."
)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    src = checkout / "src"
    return {
        "directory": checkout.name,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(checkout, "status", "--porcelain", "--", "src")),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One `run.py --trace 0`: {metric: value} from its last line, plus
    RAW_METRICS from the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, env={**os.environ, **PINNED_ENV},
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} {workload}:{seed} failed: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    written = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    raw = json.loads(written.read_text())["values"]
    return {**values, **{name: raw[name] for name, _, _ in RAW_METRICS}}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, spec) -> dict:
    out = {}
    raw = [{"name": n, "unit": u, "better": b} for n, u, b in RAW_METRICS]
    for metric in spec["end_to_end"] + raw:
        name = metric["name"]
        before = [p["before"][name] for p in pairs]
        after = [p["after"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (a - b) < 0 for a, b in zip(after, before))
        losses = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        stats = {"before": quartiles(before), "after": quartiles(after)}
        med_b = stats["before"]["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "pairs": {"before": before, "after": after},
            **stats,
            "after_wins": wins,
            "after_losses": losses,
            "change_of_median": (stats["after"]["median"] - med_b) / med_b if med_b else 0.0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--after", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("cases", nargs="+", help="WORKLOAD or WORKLOAD:SEED")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2: each side needs quartiles")

    checkouts = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((checkouts["before"] / "BENCHMARK.json").read_text())
    sides = {side: describe(path) for side, path in checkouts.items()}
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    # The file may hold only ab_inprocess.py's record so far.
    record.setdefault("cases", {})
    if record.get("sides", sides) != sides:
        sys.exit(f"{args.out} holds cases of other checkouts: {record['sides']}")
    record.update({
        "sides": sides,
        "note": DIRECTORY_NOTE,
        "pinned_env": PINNED_ENV,
        "seconds_per_run": args.seconds or spec["run_seconds"],
    })
    for case in args.cases:
        workload, _, seed = case.partition(":")
        seed = int(seed or 0)
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload}:{seed} pair {i + 1}/{args.pairs} ({order[0]} first): "
                  f"solve_s.adjusted {pair['before']['solve_s.adjusted']:.4g} -> "
                  f"{pair['after']['solve_s.adjusted']:.4g}", flush=True)
        key = f"{workload}:{seed}"
        earlier = record["cases"].pop(key, {})
        record["cases"][key] = {
            "pairs": len(pairs),
            "first_side": [p["first"] for p in pairs],
            "metrics": summarize(pairs, spec),
            "earlier": earlier.pop("earlier", []) + ([earlier] if earlier else []),
        }
        # Written after every case, so a stopped run keeps what it finished.
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
