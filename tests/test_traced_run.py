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
