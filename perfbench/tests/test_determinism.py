"""Same-seed runs of every workload agree exactly on quality, ok_frac and
the per-layer work counts (deltas applied, radius rows, rows repaired,
rows encoded, admissions).  Timings are not compared.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(a few minutes: each workload runs twice untraced and twice traced).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("train-e2gcl-cora", "serve-mixed", "stream-replay")
SEED = 3


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_quality(workload):
    first, second = run(workload, 0), run(workload, 0)
    for name in ("quality", "ok_frac"):
        assert first["metrics"][name] == second["metrics"][name], name


# Training records no work counts, only times.
@pytest.mark.parametrize("workload", ("serve-mixed", "stream-replay"))
def test_same_seed_same_counts(workload):
    first, second = run(workload, 1), run(workload, 1)
    counts = [name for name, entry in first["metrics"].items()
              if entry["unit"] == "count"]
    assert any(first["metrics"][name]["value"] for name in counts)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
