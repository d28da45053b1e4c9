"""The benchmark's traced run still sees the CLI's calls between layers.

perfbench/tracing.py records spans by replacing names on vortexlab's
modules (for example `vortexlab.cli.solve_tw`) for the duration of a run.
If the CLI stops looking those names up at call time, the traced run
silently loses its solver and diagnostics spans; this test catches that.
The benchmark files are loaded by path and not modified.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ("tw.solve_tw", "diagnostics.report_tw", "sources.background")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved = list(sys.path)
    try:
        tracing = _load("tracing")
        program = _load("workloads").Program(str(ROOT / "src"))
    finally:
        sys.path[:] = saved
    return tracing, program


def _recorded(tracer):
    return {tracer.names[i] for i in tracer.name}


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_traced_cli_records_layer_spans(bench, tmp_path, command):
    tracing, program = bench
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "torus": {"L1": 6.0, "L2": 6.0, "n1": 32, "n2": 32},
                "sources": {"zeros_q": [[2.3, 3.1, 1]]},
                "solver": {"model": "tw"},
            }
        )
    )
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--lengths", "5,6"]
    tracer = tracing.Tracer()
    with tracing.Patches(tracer, program):
        assert program.cli.main(argv) == 0
    missing = set(SPANS) - _recorded(tracer)
    assert not missing, f"traced {command} recorded no {sorted(missing)} spans"


def test_traced_fixed_point_shift_counts(bench):
    # two warm-started constraint shifts per iteration, each with a handful
    # of grid-wide tanh evaluations that the traced run attributes to it
    tracing, program = bench
    geom = program.surface.TorusGeometry(4.0, 4.0, 32, 32)
    cfg = program.vl.VortexConfiguration(
        zeros_q=[(1.1, 1.5, 2)], poles_q=[(2.9, 2.6, 1)], zeros_p=[(0.7, 3.1, 1)]
    )
    tracer = tracing.Tracer()
    with tracing.Patches(tracer, program):
        problem = program.vav.vav_problem(geom, cfg)
        sol = program.vav.solve_vav(problem, method="fixed_point")
    names = [tracer.names[i] for i in tracer.name]
    shifts = {k for k, nm in enumerate(names) if nm == "vav._shift"}
    tanh = [
        k
        for k, nm in enumerate(names)
        if nm in ("kernels.f_half", "kernels.df_half") and tracer.parent[k] in shifts
    ]
    assert sol.iterations > 0 and sol.c1 != 0.0 and sol.c2 != 0.0
    assert len(shifts) == 2 * sol.iterations + 2
    assert tanh, "no tanh spans recorded inside vav._shift"
    assert len(tanh) / len(shifts) <= 10.0


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_traced_newton_records_inner_layers(bench, model):
    # the traced run wraps pcg_pair and the pointwise kernels on the model
    # modules; the Newton driver must keep reaching them through those names
    tracing, program = bench
    geom = program.surface.TorusGeometry(6.0, 6.0, 32, 32)
    tracer = tracing.Tracer()
    with tracing.Patches(tracer, program):
        if model == "tw":
            cfg = program.vl.VortexConfiguration(zeros_q=[(2.3, 3.1, 1)])
            program.tw.solve_tw(program.tw.tw_problem(geom, cfg))
        else:
            cfg = program.vl.VortexConfiguration(
                zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)]
            )
            program.vav.solve_vav(program.vav.vav_problem(geom, cfg), method="newton")
    names = [tracer.names[i] for i in tracer.name]
    solver = {k for k, nm in enumerate(names) if nm == f"{model}.solve_{model}"}

    def in_solver(k):
        while k >= 0:
            if k in solver:
                return True
            k = tracer.parent[k]
        return False

    pcg = [k for k, nm in enumerate(names) if nm == "linalg.pcg_pair" and in_solver(k)]
    kern = [k for k, nm in enumerate(names) if nm.startswith("kernels.") and in_solver(k)]
    assert len(solver) == 1
    assert pcg and all(tracer.value[k] > 0 for k in pcg)
    assert kern
