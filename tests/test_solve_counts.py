"""Smoke test of tools/solve_counts.py at a 16^2 grid, on this checkout's src."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import vortexlab.tw
import vortexlab.vav

ROOT = Path(__file__).resolve().parent.parent
ARGS = ("--workload", "cli-io-256", "--seed", "1", "--grid", "16")
SPLIT = ("newton_iters", "cg_iters", "point_calls")


def _counts(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_counts.py"), "--src", str(ROOT / "src"),
         *ARGS, *args],
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
    # the per-model counts add up to the totals
    for key in SPLIT:
        assert first["tw"][key] + first["vav"][key] == first[key] and first["vav"][key] > 0
    assert first["tw"]["point_calls"] >= first["tw"]["newton_iters"] + 2 * 12
    second = _counts("--against", str(fields))
    assert second.pop("max_field_delta") == 0.0
    assert second == first


_OWN = {"tw": vortexlab.tw._Work, "vav": vortexlab.vav._Work}


class _SharedWork:
    """One `_Work` class for both models: its `point` hook is one function,
    which hands the call on to the model's own `_Work`."""

    def __init__(self, problem):
        model = "tw" if isinstance(problem, vortexlab.tw.TWProblem) else "vav"
        self.impl = _OWN[model](problem)

    def point(self, y1, y2):
        return self.impl.point(y1, y2)

    def __getattr__(self, name):
        return getattr(self.impl, name)


def test_a_point_both_models_share_is_counted_once(monkeypatch):
    # A tool that wrapped `point` once per module would wrap this one
    # function twice and count each of its calls twice.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds to it
    path = ROOT / "tools" / "solve_counts.py"
    spec = importlib.util.spec_from_file_location("solve_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    point = _SharedWork.point
    for model in _OWN:
        monkeypatch.setattr(getattr(vortexlab, model), "_Work", _SharedWork)
    shared = tool.count(str(ROOT / "src"), "cli-io-256", 1, grid=16)
    assert shared == _counts()
    # and the wrapped names are put back
    assert _SharedWork.point is point and vortexlab.vav.pcg_pair is vortexlab._linalg.pcg_pair
