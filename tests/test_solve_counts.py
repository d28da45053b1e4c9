"""Smoke test of tools/solve_counts.py at a 16^2 grid, on this checkout's src."""

import csv
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import vortexlab._linalg
import vortexlab.cli
import vortexlab.kernels
import vortexlab.tw
import vortexlab.vav

ROOT = Path(__file__).resolve().parent.parent
ARGS = ("--workload", "cli-io-256", "--seed", "1", "--grid", "16")
SWEEP_ARGS = ("--workload", "sweep-128", "--seed", "1", "--grid", "16")
FIXED_POINT_ARGS = ("--workload", "fixedpoint-128", "--seed", "1", "--grid", "16")
SPLIT = ("newton_iters", "cg_iters", "point_calls")


def _counts(*args, inputs=ARGS):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "solve_counts.py"), "--src", str(ROOT / "src"),
         *inputs, *args],
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
    # the vav Newton polish shifts the means of its starts
    assert 0 < first["shift_calls"] <= first["shift_tanh"]
    second = _counts("--against", str(fields))
    assert second.pop("max_field_delta") == 0.0
    assert second == first


def test_fixed_point_counts_are_deterministic(tmp_path):
    # the fixed point's shift targets come from the counts too; a second run
    # of the inputs gives the same fields to the bit
    fields = tmp_path / "fields.f64"
    first = _counts("--fields", str(fields), inputs=FIXED_POINT_ARGS)
    assert first["solves"] > 0 and first["failures"] == 0 and first["fp_iters"] > 0
    # two constraint shifts per iteration and two at the start, each with
    # at least one tanh
    assert first["shift_calls"] == 2 * first["fp_iters"] + 2 * first["solves"]
    assert first["shift_tanh"] >= first["shift_calls"]
    second = _counts("--against", str(fields), inputs=FIXED_POINT_ARGS)
    assert second.pop("max_field_delta") == 0.0
    assert second == first


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool adds to it
    path = ROOT / "tools" / "solve_counts.py"
    spec = importlib.util.spec_from_file_location("solve_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sweep_counts_are_deterministic_and_consistent(monkeypatch):
    first = _counts(inputs=SWEEP_ARGS)
    # 48 tw inputs of 8 lengths each, some of them refused
    assert 48 < first["solves"] < 48 * 8 and first["failures"] == 0 and first["fp_iters"] == 0
    assert first["newton_iters"] > 0 and first["cg_iters"] > 0
    for key in SPLIT:
        assert first["tw"][key] + first["vav"][key] == first[key]
    assert first["vav"]["newton_iters"] == 0
    assert first["shift_calls"] == first["shift_tanh"] == 0
    # a second run gives the same counts, and runs each input through
    # `cli.cmd_sweep`, whose solver name the tool wraps: an input's first
    # solve starts from zeros, its second from the first's U and V, and each
    # later one from the secant in 1/|S| through the two solves before it
    calls = []
    solve_tw = vortexlab.cli.solve_tw

    def recorded(problem, x0=None, **kwargs):
        sol = solve_tw(problem, x0=x0, **kwargs)
        calls.append((1.0 / problem.geometry.area, x0, sol))
        return sol

    monkeypatch.setattr(vortexlab.cli, "solve_tw", recorded)
    assert _tool(monkeypatch).count(str(ROOT / "src"), "sweep-128", 1, grid=16) == first
    assert vortexlab.cli.solve_tw is recorded
    assert len(calls) == first["solves"]
    starts = [k for k, (_, x0, _) in enumerate(calls) if x0 is None]
    assert len(starts) == 48
    for begin, end in zip(starts, starts[1:] + [len(calls)]):
        (_, _, a), (_, x0, _) = calls[begin : begin + 2]
        assert x0[0] is a.U.values and x0[1] is a.V.values
        for (s0, _, a), (s1, _, b), (s, x0, _) in zip(*(calls[begin + i : end] for i in range(3))):
            q = (s - s1) / (s1 - s0)
            assert np.array_equal(x0[0], b.U.values + q * (b.U.values - a.U.values))
            assert np.array_equal(x0[1], b.V.values + q * (b.V.values - a.V.values))


def test_the_tools_sweep_iterations_are_those_of_the_clis_sweep_csv(tmp_path, monkeypatch):
    counts = _counts(inputs=SWEEP_ARGS)
    assert counts["failures"] == 0
    workloads = _tool(monkeypatch).workloads
    items = workloads.make_inputs("sweep-128", 1, 16)
    runner = workloads.Runner("sweep-128", items, workloads.Program(str(ROOT / "src")), str(tmp_path))
    runner.setup()
    total = 0
    for k in range(len(items)):
        assert runner.run_op(k) == 0
        with open(tmp_path / "sweep" / "sweep.csv", encoding="utf-8") as fh:
            total += sum(int(row["iterations"]) for row in csv.DictReader(fh) if row["iterations"])
    assert counts["newton_iters"] == total


def _point_calls(trace):
    """The `point` calls of a converged Newton solve: the raw and the
    polished start, and 1 + k for a step of 0.5**k."""
    return 2 + sum(1 + round(-math.log2(e["step"])) for e in trace[1:])


def test_a_point_both_models_share_is_counted_once(monkeypatch):
    # Both models' `_Work` inherit one `point`: a tool that wrapped it once
    # per model would count each of its calls twice. The point calls the
    # solves' own traces imply are the counted ones.
    tool = _tool(monkeypatch)
    point = vortexlab._linalg.NewtonWork.point
    shift = vortexlab.vav._shift
    owners = tool._point_owners(SimpleNamespace(tw=vortexlab.tw, vav=vortexlab.vav))
    assert owners == [vortexlab._linalg.NewtonWork]
    solves = []
    for name in ("solve_tw", "solve_vav"):  # cli-io-256 solves through the CLI
        solve = getattr(vortexlab.cli, name)

        def recorded(problem, *, _solve=solve, **kwargs):
            sol = _solve(problem, **kwargs)
            solves.append(sol)
            return sol

        monkeypatch.setattr(vortexlab.cli, name, recorded)
    counts = tool.count(str(ROOT / "src"), "cli-io-256", 1, grid=16)
    assert counts == _counts()
    assert len(solves) == counts["solves"]
    assert counts["point_calls"] == sum(_point_calls(sol.trace) for sol in solves)
    # and the wrapped names are put back
    assert vortexlab._linalg.NewtonWork.point is point
    assert vortexlab.vav.pcg_pair is vortexlab._linalg.pcg_pair
    assert vortexlab.vav.f_half is vortexlab.kernels.f_half
    assert vortexlab.vav._shift is shift


def test_only_the_tanh_taken_inside_a_shift_is_counted(monkeypatch):
    # The fixed point's convergence check takes fu and fv outside any
    # shift, two tanh per check, at least one check per solve; counting
    # every vav.f_half call would count those too.
    tool = _tool(monkeypatch)
    f_half = vortexlab.vav.f_half
    calls = []

    def recorded(x):
        calls.append(1)
        return f_half(x)

    monkeypatch.setattr(vortexlab.vav, "f_half", recorded)
    counts = tool.count(str(ROOT / "src"), "fixedpoint-128", 1, grid=16)
    assert counts == _counts(inputs=FIXED_POINT_ARGS)
    assert len(calls) >= counts["shift_tanh"] + 2 * counts["solves"]
    assert vortexlab.vav.f_half is recorded


@pytest.mark.parametrize("inputs", [ARGS, SWEEP_ARGS])
def test_the_tool_solves_what_the_benchmark_solves(inputs, tmp_path, monkeypatch):
    # The tool's fields are those of the CLI runs the benchmark makes: a
    # sweep scales its sources as x * L / L1, as `vortexlab sweep` does, and
    # x * (L / L1) differed from it in the last bit on a third of them.
    fields = tmp_path / "fields.f64"
    counts = _counts("--fields", str(fields), inputs=inputs)
    assert counts["failures"] == 0
    workloads = _tool(monkeypatch).workloads
    solved = []
    for name in ("solve_tw", "solve_vav"):
        solve = getattr(vortexlab.cli, name)

        def recorded(problem, *, _solve=solve, **kwargs):
            sol = _solve(problem, **kwargs)
            solved.append(np.stack((sol.U.values, sol.V.values)))
            return sol

        monkeypatch.setattr(vortexlab.cli, name, recorded)
    items = workloads.make_inputs(inputs[1], 1, 16)
    runner = workloads.Runner(inputs[1], items, workloads.Program(str(ROOT / "src")), str(tmp_path))
    runner.setup()
    for k in range(len(items)):
        runner.run_op(k)
    assert len(solved) == counts["solves"]
    assert fields.read_bytes() == b"".join(planes.tobytes() for planes in solved)
