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
