"""Smoke test of tools/robust_pool.py at a 16^2 grid, on this checkout's src."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from vortexlab import TorusGeometry, VortexConfiguration
from vortexlab.diagnostics import MODELS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "robust_pool.py"


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds to it
    spec = importlib.util.spec_from_file_location("robust_pool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_pool_counts_every_solve_once_and_repeat():
    args = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--seed", "3",
            "--problems", "2", "--grids", "16"]
    runs = [subprocess.run(args, capture_output=True, text=True) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 1 and runs[1].stdout == runs[0].stdout
    result = json.loads(lines[0])
    outcomes = result["outcomes"]
    assert {m: sorted(v) for m, v in outcomes.items()} == {
        "tw": ["newton"], "vav": ["fixed_point", "newton"]
    }
    misses = 0
    for methods in outcomes.values():
        for starts in methods.values():
            assert sorted(starts) == ["amp10", "unit", "zeros"]
            for tally in starts.values():
                assert sum(tally.values()) == 2
                misses += sum(n for k, n in tally.items() if k != "converged")
    assert len(result["failed"]) == misses


def test_drawn_problems_sit_at_their_margin_over_the_models_bound(monkeypatch):
    # The tool's smallest area is where the library's admissibility turns:
    # each drawn torus is admitted, and the same counts on a torus a hair
    # below that area are not.
    tool = _tool(monkeypatch)
    rng = np.random.default_rng(5)
    for model in ("tw", "vav"):
        for _ in range(20):
            L1, L2, n, sources, margin = tool.draw(rng, model, [64])
            assert margin in tool.MARGINS and 1.0 <= L1 / L2 <= 16.0 + 1e-12
            config = VortexConfiguration(**sources)
            least = tool.smallest_area(model, config.counts())
            assert abs(L1 * L2 - least * margin) <= 1e-9 * least * margin
            admissibility = MODELS[model].admissibility
            assert admissibility(config, TorusGeometry(L1, L2, n, n)).satisfied
            below = least * (1.0 - 1e-9) / (L1 * L2)
            assert not admissibility(config, TorusGeometry(L1 * below, L2, n, n)).satisfied
