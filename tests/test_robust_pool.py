"""Smoke test of tools/robust_pool.py at a 16^2 grid, on this checkout's src."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexlab.vav
from vortexlab import TorusGeometry, VortexConfiguration, solve_vav, vav_problem
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


def test_failed_solves_carry_the_error_class_and_message(monkeypatch):
    # Every vav solve is given a budget of one iteration, so each fails and
    # its `failed` entry names the error and gives its message.
    tool = _tool(monkeypatch)
    solve_vav = vortexlab.vav.solve_vav
    monkeypatch.setattr(
        vortexlab.vav, "solve_vav", lambda problem, **kw: solve_vav(problem, max_iter=1, **kw)
    )
    result = tool.pool(str(ROOT / "src"), 3, 1, [16])
    vav = [entry for entry in result["failed"] if entry[0] == "vav"]
    assert sorted((e[1], e[2]) for e in vav) == sorted(
        (m, s) for m in MODELS["vav"].work.methods for s in tool.AMPLITUDES
    )
    for model, method, start, index, margin, error, message in result["failed"]:
        assert index == 0 and margin in tool.MARGINS
        assert result["outcomes"][model][method][start] == {error: 1}
    for entry in vav:
        assert entry[5] == "MaxIterExceeded"
        assert re.fullmatch(r"no convergence in 1 iterations \(.*\)", entry[6])


def _pool_problem(tool, seed, index):
    """The `vav` problem `index` of the pool of `seed` at the tool's default
    size, rebuilt by replaying the pool's draws, and its grid and margin."""
    for model, i, (L1, L2, n, sources, margin) in tool.draws(seed, tool.PROBLEMS, tool.GRIDS):
        if (model, i) == ("vav", index):
            geom = TorusGeometry(L1, L2, n, n)
            return vav_problem(geom, VortexConfiguration(**sources)), n, margin


def test_vav_pool_problem_converges_from_zeros(monkeypatch):
    # Seed 2, vav problem 10: a 22.13 x 1.43 torus at 128^2, counts
    # (N1, P1, N2, P2) = (20, 12, 6, 15), margin 1.01. Newton without a
    # polish of each trial stopped at iteration 2 with sup 103, "line
    # search failed to find descent".
    problem, n, margin = _pool_problem(_tool(monkeypatch), 2, 10)
    assert (n, margin) == (128, 1.01) and problem.config.counts() == (20, 12, 6, 15)
    sol = solve_vav(problem)
    assert sol.final_residual < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vav_pool_problem_converges_from_a_unit_start_without_a_warning(monkeypatch):
    # Seed 1, vav problem 47, from the pool's unit start. Without a polish of
    # each trial, a refused trial's huge step made grad_sq_packed warn
    # "overflow encountered in square" to the caller.
    problem, n, _ = _pool_problem(_tool(monkeypatch), 1, 47)
    noise = np.random.default_rng((1, 47)).standard_normal((2, n, n))
    sol = solve_vav(problem, x0=(noise[0], noise[1]))
    assert sol.final_residual < 1e-8
