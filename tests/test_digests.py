"""benchmarks/digests.py, run as a script on one workload."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "digests.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), "lj-cluster:0", *args],
                          capture_output=True, text=True, timeout=120)


def test_a_changed_result_fails_the_comparison(tmp_path):
    record = tmp_path / "digests.json"
    first = _run("--out", str(record))
    assert first.returncode == 0, first.stderr
    # The benchmark workload's counts and bytes, with OpenBLAS on x86-64.
    want = {"iters": 102, "fevals": 205, "digest": "6d850e1ff164073e"}
    assert json.loads(record.read_text()) == {"lj-cluster:0": want}
    assert _run("--against", str(record)).returncode == 0

    record.write_text(json.dumps({"lj-cluster:0": {**want, "digest": "0" * 16}}))
    differs = _run("--against", str(record))
    assert differs.returncode == 1
    assert "DIFFERS" in differs.stdout and "1 of 1 cases differ" in differs.stdout
    record.write_text("{}")
    assert _run("--against", str(record)).returncode == 1


def test_counts_only_compares_the_counts_of_the_named_workloads(tmp_path):
    record = tmp_path / "digests.json"
    want = {"iters": 102, "fevals": 205, "digest": "6d850e1ff164073e"}
    flags = ("--counts-only", "newton-krylov", "--counts-only", "lj-cluster")
    record.write_text(json.dumps({"lj-cluster:0": {**want, "digest": "0" * 16}}))
    same_counts = _run("--against", str(record), *flags)
    assert same_counts.returncode == 0, same_counts.stdout + same_counts.stderr
    assert "digest moved" in same_counts.stdout
    # Only the named workloads: without lj-cluster the digest counts again.
    assert _run("--against", str(record), "--counts-only", "newton-krylov").returncode == 1

    record.write_text(json.dumps({"lj-cluster:0": {**want, "fevals": 204}}))
    changed = _run("--against", str(record), *flags)
    assert changed.returncode == 1 and "1 of 1 cases differ" in changed.stdout
    assert _run("--counts-only", "no-such-workload", "--against", str(record)).returncode == 2
