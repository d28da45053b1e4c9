"""Smoke test of tools/solve_counts.py at a 16^2 grid, on this checkout's src."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _counts(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_counts.py"), "--src", str(ROOT / "src"),
         "--workload", "cli-io-256", "--seed", "1", "--grid", "16", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_counts_are_deterministic_and_consistent(tmp_path):
    fields = tmp_path / "fields.f64"
    first = _counts("--fields", str(fields))
    # 24 inputs, alternating tw and vav Newton solves
    assert first["solves"] == 24 and first["failures"] == 0 and first["fp_iters"] == 0
    assert fields.stat().st_size == 24 * 2 * 16 * 16 * 8
    # each Newton solve makes a point at its raw and its polished start, and
    # at least one per iteration
    assert first["point_calls"] >= first["newton_iters"] + 2 * first["solves"]
    assert first["newton_iters"] > 0 and first["cg_iters"] > 0
    second = _counts("--against", str(fields))
    assert second.pop("max_field_delta") == 0.0
    assert second == first
