import json
import tracemalloc
import warnings

import numpy as np
import pytest

import vortexlab.cli
from vortexlab import TorusGeometry, VortexConfiguration, solve_tw, tw_problem
from vortexlab.cli import _FMT, _format_rows, _write_fields, cmd_plotdata, main

PI = np.pi


def write_config(path, **overrides):
    data = {
        "torus": {"L1": 6.0, "L2": 6.0, "n1": 32, "n2": 32},
        "sources": {"zeros_q": [[2.3, 3.1, 1]]},
        "solver": {"model": "tw"},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def load_report(out_dir, name="report.json"):
    return json.loads((out_dir / name).read_text())


def test_solve_vacuum(tmp_path):
    cfg = write_config(tmp_path / "run.json", sources={})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = load_report(tmp_path / "out")
    assert report["status"] == "solved"
    assert report["energy"]["value"] == 0.0
    assert report["solver_trace"]["residuals"]["sup"] < 1e-12


def test_solve_report_schema(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    report = load_report(tmp_path / "out")
    assert sorted(report.keys()) == sorted(
        [
            "model",
            "status",
            "inputs",
            "admissibility",
            "solver_trace",
            "quantized_integrals",
            "fluxes",
            "energy",
            "timings",
        ]
    )


def test_solve_bradlow_violation_exit2(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        torus={"L1": 4.0, "L2": 4.0, "n1": 32, "n2": 32},
        sources={"zeros_q": [[1.0, 1.0, 1]], "zeros_p": [[2.0, 2.0, 1]]},
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    report = load_report(tmp_path / "out")
    assert report["status"] == "inadmissible"
    assert report["admissibility"]["violated"] == "Bradlow bound"
    assert report["admissibility"]["margin"] == pytest.approx(16 - 6 * PI, rel=1e-12)


def test_solve_vav_balanced(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        sources={"zeros_q": [[1.7, 2.2, 1]], "poles_q": [[4.3, 3.9, 1]]},
        solver={"model": "vav"},
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = load_report(tmp_path / "out")
    assert report["energy"]["value"] == pytest.approx(8 * PI, rel=1e-14)
    assert abs(report["fluxes"]["chern1"]["value"]) < 1e-6
    assert abs(report["fluxes"]["chern2"]["value"]) < 1e-6


def test_unknown_key_fails_closed(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "torus": {"L1": 6.0, "L2": 6.0, "n1": 32, "n2": 32},
                "sources": {},
                "solver": {"model": "tw"},
                "extras": {},
            }
        )
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_tw_rejects_poles_exit1(tmp_path):
    cfg = write_config(
        tmp_path / "run.json", sources={"poles_q": [[1.0, 1.0, 1]]}
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_missing_config_exit1(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [["bogus"], []], ids=["unknown", "none"])
def test_unknown_or_missing_command_exit2(argv, capsys):
    # argparse refuses these before main dispatches, with its usage on stderr
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: vortexlab" in capsys.readouterr().err


def test_nonconvergence_exit3_with_trace(tmp_path):
    cfg = write_config(tmp_path / "run.json", solver={"model": "tw", "max_iter": 1})
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    report = load_report(tmp_path / "out")
    assert report["status"] == "nonconverged"
    assert report["solver_trace"]["error"] == "MaxIterExceeded"
    assert len(report["solver_trace"]["history"]) >= 1


def test_coordinates_reduced_modulo(tmp_path):
    cfg = write_config(
        tmp_path / "run.json", sources={"zeros_q": [[2.3 + 6.0, 3.1 - 6.0, 1]]}
    )
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = load_report(tmp_path / "out")
    x, y, m = report["inputs"]["sources"]["zeros_q"][0]
    assert x == pytest.approx(2.3, abs=1e-12)
    assert y == pytest.approx(3.1, abs=1e-12)


def test_determinism_modulo_wall_clock(tmp_path):
    cfg = write_config(tmp_path / "run.json", solver={"model": "tw", "seed": 11})
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
    ra = load_report(tmp_path / "a")
    rb = load_report(tmp_path / "b")
    ra.pop("timings")
    rb.pop("timings")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    fa = (tmp_path / "a" / "fields.csv").read_bytes()
    fb = (tmp_path / "b" / "fields.csv").read_bytes()
    assert fa == fb


def test_sweep_threshold_flip(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        sources={"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]},
    )
    code = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--lengths",
            "4,4.4,4.8,5.2,5.6,6",
            "--out",
            str(tmp_path / "sw"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "S,admissible,margin1,margin2,sup_eu,sup_ev,qerr_u,qerr_v,iterations"
    rows = [line.split(",") for line in lines[1:]]
    flags = [int(r[1]) for r in rows]
    areas = [float(r[0]) for r in rows]
    # admissibility flips exactly where |S| crosses 6 pi
    assert flags == [1 if s > 6 * PI else 0 for s in areas]
    assert flags == [0, 1, 1, 1, 1, 1]
    # inadmissible rows carry flag and margins only
    assert rows[0][4] == ""
    assert rows[1][8] != ""


def test_sweep_continues_past_failing_rows(tmp_path):
    # rows whose solve does not converge keep the sweep alive; their result
    # cells stay empty
    cfg = write_config(tmp_path / "run.json", solver={"model": "tw", "max_iter": 1})
    code = main(
        ["sweep", "--config", str(cfg), "--lengths", "5,6", "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(lines) == 2
    for line in lines:
        parts = line.split(",")
        assert parts[1] == "1"
        assert parts[4] == ""


def test_sweep_refuses_a_bad_length_before_any_solve(tmp_path, monkeypatch, capsys):
    def unreachable(problem, **kwargs):
        raise AssertionError("a sweep with a bad length solved")

    monkeypatch.setattr(vortexlab.cli, "solve_tw", unreachable)
    cfg = write_config(tmp_path / "run.json")
    out = tmp_path / "sw"
    argv = ["sweep", "--config", str(cfg), "--lengths", "5,6,-1", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("vortexlab: error: side lengths must be positive")
    assert not out.exists()


@pytest.mark.parametrize("lengths", ["1e-200", "6,1e-200", "1e200"])
def test_a_torus_whose_area_or_wave_numbers_overflow_is_refused(
    tmp_path, monkeypatch, capsys, lengths
):
    # area 0.0 crashed `solve` in `sources.forced` and the sweep at 1/area
    # after solving its 6 row; area inf failed only after numpy warnings, as
    # "field values must be finite". Both are refused before any solve.
    def unreachable(problem, **kwargs):
        raise AssertionError("a run on a refused torus solved")

    monkeypatch.setattr(vortexlab.cli, "solve_tw", unreachable)
    L = lengths.split(",")[-1]
    torus = {"L1": float(L), "L2": float(L), "n1": 32, "n2": 32}
    cfg = write_config(tmp_path / "run.json", torus=torus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("vortexlab: error: the area or a |k|^2")
        base = write_config(tmp_path / "base.json")
        argv = ["sweep", "--config", str(base), "--lengths", lengths, "--out", str(tmp_path / "sw")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("vortexlab: error: the area or a |k|^2")
    assert not (tmp_path / "out").exists() and not (tmp_path / "sw").exists()


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_a_sweep_builds_no_report(tmp_path, monkeypatch, model):
    # a sweep row reads the solution, not a run report: with the report entry
    # points raising, the sweep writes the same sweep.csv
    sources = {"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]}
    if model == "vav":
        sources = {"zeros_q": [[1.7, 2.2, 1], [3.0, 4.5, 1]], "poles_q": [[4.3, 3.9, 1]]}
    cfg = write_config(tmp_path / "run.json", sources=sources, solver={"model": model})
    argv = ["sweep", "--config", str(cfg), "--lengths", "1.5,4,4.5,5,6"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep built a report")

    for name in ("report_tw", "report_vav"):
        monkeypatch.setattr(vortexlab.cli, name, unreachable)
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    csv = (tmp_path / "b" / "sweep.csv").read_text()
    assert csv == (tmp_path / "a" / "sweep.csv").read_text()
    # a refused and a solved row at least
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert {r[1] for r in rows} == {"0", "1"} and all(r[8] for r in rows if r[1] == "1")


def _recorded_sweep(tmp_path, monkeypatch, lengths, nonconverged=(), **overrides):
    """Run a sweep with the model's solver in cli's globals recording each
    call's area, start x0 and solution (None when it raised); a row whose
    area is in `nonconverged` is solved with max_iter=1 and so fails."""
    calls = []
    name = "solve_" + overrides.get("solver", {"model": "tw"})["model"]
    solve = getattr(vortexlab.cli, name)

    def recorded(problem, **kwargs):
        area = problem.geometry.area
        if area in nonconverged:
            kwargs["max_iter"] = 1
        calls.append([area, kwargs.get("x0"), None])
        calls[-1][2] = solve(problem, **kwargs)
        return calls[-1][2]

    monkeypatch.setattr(vortexlab.cli, name, recorded)
    cfg = write_config(tmp_path / "run.json", **overrides)
    argv = ["sweep", "--config", str(cfg), "--lengths", lengths, "--out", str(tmp_path / "sw")]
    assert main(argv) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    return calls, [line.split(",") for line in lines]


def _starts_from(x0, sol):
    return x0[0] is sol.U.values and x0[1] is sol.V.values


def _secant_from(x0, older, last, areas):
    """Whether x0 is, bit for bit, the secant in s = 1/|S| through the
    solutions `older` and `last` at the areas (older, last, row)."""
    s0, s1, s = (1.0 / area for area in areas)
    q = (s - s1) / (s1 - s0)
    pairs = ((older.U.values, last.U.values), (older.V.values, last.V.values))
    want = [F1 + q * (F1 - F0) for F0, F1 in pairs]
    return all(np.array_equal(got, w) for got, w in zip(x0, want, strict=True))


def test_sweep_rows_continue_from_the_last_solved_row(tmp_path, monkeypatch):
    # one q-vortex: sizes with |S| <= 2 pi are refused before any solve
    calls, rows = _recorded_sweep(
        tmp_path, monkeypatch, "2,5,2.2,5.5,6,6.5", nonconverged=(36.0,)
    )
    assert [r[1] for r in rows] == ["0", "1", "0", "1", "1", "1"]
    assert [r[4] == "" for r in rows] == [True, False, True, False, True, False]
    assert [area for area, _, _ in calls] == [25.0, 30.25, 36.0, 42.25]
    (_, first, s5), (_, x55, s55), (_, x6, s6), (_, x65, _) = calls
    assert first is None and s6 is None
    assert _starts_from(x55, s5)
    # the 6 and 6.5 rows are predicted from the 5 and 5.5 solutions: neither
    # the refused 2.2 row nor the failed 6 row breaks the chain
    assert _secant_from(x6, s5, s55, (25.0, 30.25, 36.0))
    assert _secant_from(x65, s5, s55, (25.0, 30.25, 42.25))


def test_a_repeated_length_starts_from_the_last_solution(tmp_path, monkeypatch):
    # the last two solved rows share 1/|S|: no secant, and no division by zero
    calls, rows = _recorded_sweep(tmp_path, monkeypatch, "5,5,5.5")
    assert [r[8] == "" for r in rows] == [False] * 3
    (_, _, first), (_, x5, second), (_, x55, _) = calls
    assert _starts_from(x5, first) and _starts_from(x55, second)


def test_a_sweep_that_jumps_far_past_its_last_two_rows_solves_every_row(tmp_path, monkeypatch):
    # 4.4 and 4.41 lie just over the Bradlow length sqrt(6 pi) = 4.34: the
    # secant to 12 extrapolates by q = 190 times their difference
    sources = {"zeros_q": [[2.3, 3.1, 1]], "zeros_p": [[4.0, 1.0, 1]]}
    calls, rows = _recorded_sweep(tmp_path, monkeypatch, "4.4,4.41,12,40", sources=sources)
    assert [r[1] for r in rows] == ["1"] * 4
    assert [r[8] == "" for r in rows] == [False] * 4
    (a0, _, older), (a1, _, last), (a, x12, _), _ = calls
    assert 180 < (1 / a - 1 / a1) / (1 / a1 - 1 / a0) < 200
    assert _secant_from(x12, older, last, (a0, a1, a))


def test_a_vav_fixed_point_sweep_starts_each_row_from_the_secant(tmp_path, monkeypatch):
    sources = {"zeros_q": [[1.7, 2.2, 1]], "poles_q": [[4.3, 3.9, 1]]}
    solver = {"model": "vav", "method": "fixed_point"}
    calls, rows = _recorded_sweep(
        tmp_path, monkeypatch, "2.8,3,3.2,3.6,4,5", sources=sources, solver=solver
    )
    assert [r[8] == "" for r in rows] == [False] * 6
    assert calls[0][1] is None and _starts_from(calls[1][1], calls[0][2])
    for (a0, _, older), (a1, _, last), (a, x0, _) in zip(calls, calls[1:], calls[2:]):
        assert _secant_from(x0, older, last, (a0, a1, a))


def test_seed_sets_only_the_first_solved_rows_start(tmp_path, monkeypatch):
    solver = {"model": "tw", "seed": 3}
    calls, _ = _recorded_sweep(tmp_path, monkeypatch, "2,5,5.5", solver=solver)
    (_, seeded, s5), (_, x55, _) = calls
    rng = np.random.default_rng(3)
    for got in seeded:
        assert np.array_equal(got, rng.standard_normal((32, 32)))
    assert _starts_from(x55, s5)


def test_continued_sweep_rows_match_cold_solves(tmp_path):
    sources = {"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]}
    cfg = write_config(tmp_path / "run.json", sources=sources)
    lengths = (5.0, 5.5, 6.0, 6.5)
    argv = ["sweep", "--config", str(cfg), "--lengths", ",".join(map(str, lengths))]
    assert main([*argv, "--out", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    for L, line in zip(lengths, lines, strict=True):
        geom = TorusGeometry(L, L, 32, 32)
        scaled = {k: [(x * L / 6.0, y * L / 6.0, m) for x, y, m in v] for k, v in sources.items()}
        sol = solve_tw(tw_problem(geom, VortexConfiguration(**scaled)))
        row = line.split(",")
        for cell, field in ((row[4], sol.u), (row[5], sol.v)):
            cold = np.exp(field.values).max()
            assert abs(float(cell) - cold) <= 1e-9 * cold, (L, cell, cold)


def test_bad_multiplicity_exit1(tmp_path):
    cfg = write_config(tmp_path / "run.json", sources={"zeros_q": [[1.0, 1.0, 0]]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_malformed_section_exit1(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", sources=[[1.0, 1.0, 1]])
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    cfg2 = write_config(tmp_path / "run2.json", solver="tw")
    assert main(["solve", "--config", str(cfg2), "--out", str(tmp_path)]) == 1
    (tmp_path / "run3.json").write_text("not json{")
    assert main(["solve", "--config", str(tmp_path / "run3.json"), "--out", str(tmp_path)]) == 1
    # null or non-integral values, a field-dump name that plotdata would
    # read in the wrong format and unmeetable solver settings are refused at
    # parse time, before any output
    bad = [
        {"torus": {"L1": None, "L2": 6.0, "n1": 32, "n2": 32}},
        {"sources": {"zeros_q": [[None, 3.1, 1]]}},
        {"sources": {"zeros_q": None}},
        {"torus": {"L1": 6.0, "L2": 6.0, "n1": 32.7, "n2": 32}},
        {"solver": {"model": "tw", "max_iter": 3.9}},
        {"solver": {"model": "tw", "seed": 1.5}},
        {"outputs": {"format": "csv", "fields": "f.dat"}},
        {"outputs": {"format": "f64bin", "fields": "f.csv"}},
        {"outputs": {"report": None}},
        # solver settings that no solve can meet are configuration errors,
        # not solver outcomes (json accepts NaN and Infinity)
        {"solver": {"model": "tw", "tol": 0}},
        {"solver": {"model": "tw", "tol": -1e-8}},
        {"solver": {"model": "tw", "tol": float("nan")}},
        {"solver": {"model": "tw", "tol": float("inf")}},
        {"solver": {"model": "tw", "max_iter": -3}},
        {"solver": {"model": "tw", "max_iter": 0}},
        # every number must be finite: an infinite kappa used to end in an
        # OverflowError traceback, and on an inadmissible torus a NaN kappa
        # or coordinate in exit 2 with NaN in report.json
        {"solver": {"model": "tw", "kappa": float("inf")}},
        {"solver": {"model": "tw", "kappa": float("nan")}},
        {"torus": {"L1": float("inf"), "L2": 6.0, "n1": 32, "n2": 32}},
        {"torus": {"L1": 6.0, "L2": float("nan"), "n1": 32, "n2": 32}},
        {"torus": {"L1": 10**400, "L2": 6.0, "n1": 32, "n2": 32}},
        {"sources": {"zeros_q": [[2.3, float("-inf"), 1]]}},
        {
            "torus": {"L1": 2.0, "L2": 2.0, "n1": 32, "n2": 32},
            "solver": {"model": "tw", "kappa": float("nan")},
        },
        # numpy refuses a negative seed, and a kappa under 1 puts the source
        # width under one grid cell (SigmaTooSmall); on an inadmissible torus
        # both used to end in exit 2 with a report
        {"solver": {"model": "tw", "seed": -1}},
        {"solver": {"model": "tw", "kappa": 0.5}},
        {"solver": {"model": "tw", "kappa": 0}},
        # a source wider than the torus (sigma 12 > 6 at 32^2): its Gaussian
        # image sums grow with kappa until a large one exhausts the memory
        {"solver": {"model": "tw", "kappa": 64}},
        {
            "torus": {"L1": 2.0, "L2": 2.0, "n1": 32, "n2": 32},
            "solver": {"model": "tw", "kappa": 64},
        },
        # a zero side used to reach the sources' wrap, x % L1, and end in a
        # ZeroDivisionError traceback
        {"torus": {"L1": 0.0, "L2": 6.0, "n1": 32, "n2": 32}},
        {
            "torus": {"L1": 2.0, "L2": 2.0, "n1": 32, "n2": 32},
            "solver": {"model": "tw", "seed": -1},
        },
        {
            "torus": {"L1": 2.0, "L2": 2.0, "n1": 32, "n2": 32},
            "solver": {"model": "tw", "kappa": 0.5},
        },
        {
            "torus": {"L1": 2.0, "L2": 2.0, "n1": 32, "n2": 32},
            "sources": {"zeros_q": [[float("nan"), 1.1, 1]]},
        },
        # a root that is not an object is written as the whole config
        ["torus", "sources", "solver"],
        {"torus": {"L1": 6.0, "L2": 6.0, "n1": 32}},
        {"solver": {"method": "newton"}},
        {"solver": {"model": "bogus"}},
        {"solver": {"model": "tw", "method": "fixed_point"}},
        {"outputs": {"format": "npy"}},
    ]
    for k, overrides in enumerate(bad):
        out = tmp_path / f"bad{k}"
        if isinstance(overrides, dict):
            cfg = write_config(tmp_path / f"bad{k}.json", **overrides)
        else:
            cfg = tmp_path / f"bad{k}.json"
            cfg.write_text(json.dumps(overrides))
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1, overrides
        assert capsys.readouterr().err.startswith("vortexlab: error: "), overrides
        assert not out.exists(), overrides
    # a --lengths list with no length in it
    out = tmp_path / "sweep"
    good = write_config(tmp_path / "good.json")
    argv = ["sweep", "--config", str(good), "--lengths", ",", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("vortexlab: error: ")
    assert not out.exists()


def test_sweep_vacuum(tmp_path):
    cfg = write_config(tmp_path / "run.json", sources={})
    code = main(
        ["sweep", "--config", str(cfg), "--lengths", "4,5,6", "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        parts = line.split(",")
        assert parts[1] == "1"
        assert abs(float(parts[4]) - 1.0) < 1e-10


def test_fields_csv_and_plotdata_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    fields = tmp_path / "out" / "fields.csv"
    header = fields.read_text().splitlines()[0]
    assert header == "x1,x2,u,v,e_u,e_v,Fhat,Ftilde"
    csv_vals = np.loadtxt(fields, delimiter=",", skiprows=1)
    assert csv_vals.shape == (32 * 32, 8)

    plot = tmp_path / "out" / "plot.dat"
    assert main(["plotdata", "--fields", str(fields), "--out", str(plot)]) == 0
    text = plot.read_text()
    blocks = text.strip("\n").split("\n\n")
    assert len(blocks) == 32
    assert all(len(b.splitlines()) == 32 for b in blocks)
    plot_vals = np.loadtxt(plot)
    np.testing.assert_allclose(plot_vals, csv_vals, rtol=1e-9, atol=1e-15)


def test_plotdata_vacuum_e_u_column(tmp_path):
    cfg = write_config(tmp_path / "run.json", sources={})
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    plot = tmp_path / "out" / "plot.dat"
    main(["plotdata", "--fields", str(tmp_path / "out" / "fields.csv"), "--out", str(plot)])
    vals = np.loadtxt(plot)
    assert np.abs(vals[:, 4] - 1.0).max() == 0.0


def test_plotdata_missing_dump_exit1(tmp_path):
    assert main(["plotdata", "--fields", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p.dat")]) == 1


def test_every_command_returns_the_free_heap_pages(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(vortexlab.cli, "_malloc_trim", calls.append)
    cfg = write_config(tmp_path / "run.json", sources={})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert main(["plotdata", "--fields", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p.dat")]) == 1
    assert calls == [0, 0]


def test_binary_dump_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path / "run.json",
        outputs={"format": "f64bin", "fields": "fields.bin"},
    )
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    bin_path = tmp_path / "out" / "fields.bin"
    sidecar = json.loads((bin_path.parent / "fields.bin.json").read_text())
    assert sidecar["columns"] == ["x1", "x2", "u", "v", "e_u", "e_v", "Fhat", "Ftilde"]
    raw = np.fromfile(bin_path, dtype="<f8").reshape(8, 32, 32)
    plot = tmp_path / "out" / "plot.dat"
    assert main(["plotdata", "--fields", str(bin_path), "--out", str(plot)]) == 0
    vals = np.loadtxt(plot).T.reshape(8, 32, 32)
    np.testing.assert_allclose(vals, raw, rtol=1e-9, atol=1e-15)


# ------------------------------------------------------------ field I/O ----


def _grid_planes(n1, n2, seed=0):
    """A dump's 8 planes: the grid nodes, then standard normals."""
    x1, x2 = TorusGeometry(6.0, 5.0, n1, n2).nodes()
    values = np.random.default_rng(seed).standard_normal((6, n1, n2))
    return np.concatenate([np.stack([x1, x2]), values])


def _oracle_values():
    rng = np.random.default_rng(2024)
    finfo = np.finfo(np.float64)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]
    special += [finfo.tiny, -finfo.tiny, finfo.max, -finfo.max]
    # exact ties, and carries into the next decade
    special += [123456789012.5, 123456789013.5, 12345678901250000.0, 0.5, 2.5]
    special += [9.9999999999995, 9.9999999999995e-5, 9.99999999999949e33, 999999999999.5]
    # three-digit exponents, and the edges of the multiply-by-10**k range
    special += [1e100, -2.5e-250, 1.5e-100, 1e-11, 1e-12, 1e22, 1e23, 1e33, 1e34, 1e35]
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    # values whose 12th digit is within a few ulps of a tie
    near = (rng.integers(10**11, 10**12, 2000) + 0.5) * 10.0 ** rng.integers(-22, 22, 2000)
    # just below and above rounding up to the next power of ten
    carry = (1e12 - 0.5 + rng.uniform(-1e-3, 1e-3, 2000)) * 10.0 ** rng.integers(-23, 23, 2000)
    return np.concatenate(
        [
            special,
            powers,
            np.nextafter(powers, np.inf),
            np.nextafter(powers, -np.inf),
            near,
            np.nextafter(near, np.inf),
            np.nextafter(near, -np.inf),
            carry,
            rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(100_000),
        ]
    )


def test_formatter_matches_percent_bit_for_bit():
    values = _oracle_values()
    got = _format_rows(values.reshape(-1, 1), b",").split(b"\n")
    assert got[-1] == b""
    expected = [(_FMT % float(v)).encode() for v in values]
    wrong = [(v, g, e) for v, g, e in zip(values, got, expected) if g != e]
    assert len(got) - 1 == len(expected)
    assert not wrong, wrong[:5]

    # one block in which near-ties repeat, next to ±0 and NaNs: each slot
    # of a value formatted once must still get its own text
    rng = np.random.default_rng(7)
    ties = (rng.integers(10**11, 10**12, 40) + 0.5) * 10.0 ** rng.integers(-5, 5, 40)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64)
    pool = np.concatenate([ties, -ties, [0.0, -0.0], nans.view(np.float64)])
    block = rng.choice(pool, (500, 4))
    got = _format_rows(block, b" ")
    assert got == "".join(" ".join(_FMT % float(v) for v in row) + "\n" for row in block).encode()


def test_formatter_formats_each_fallback_value_once_per_block(monkeypatch):
    # At L = 5.734521 and 256 nodes, i*h is a 12-digit near-tie for about a
    # fifth of the coordinates, and a dump repeats each coordinate n times.
    calls = [0]

    class CountingFormat(str):
        def __mod__(self, value):
            calls[0] += 1
            return str.__mod__(self, value)

    monkeypatch.setattr(vortexlab.cli, "_FMT", CountingFormat(_FMT))
    x1, x2 = TorusGeometry(5.734521, 5.734521, 256, 256).nodes()
    rows = np.stack([x1.ravel(), x2.ravel()], axis=1)
    total = 0
    for start in range(0, len(rows), 1024):
        block = rows[start : start + 1024]
        calls[0] = 0
        distinct = np.unique(block)
        _format_rows(distinct.reshape(-1, 1), b",")
        fallback_values = calls[0]
        calls[0] = 0
        got = _format_rows(block, b",")
        assert calls[0] <= fallback_values
        total += calls[0]
        assert got == "".join(",".join(_FMT % float(v) for v in row) + "\n" for row in block).encode()
    assert total > 0  # the near-ties take the fallback


def _reference_lines(rows, sep):
    return [sep.join(_FMT % float(v) for v in row) for row in rows]


def test_dump_and_plotdata_layout_non_square(tmp_path):
    n1, n2 = 8, 12
    planes = _grid_planes(n1, n2)
    csv = tmp_path / "fields.csv"
    _write_fields(csv, planes, "csv")
    lines = _reference_lines(planes.reshape(8, -1).T, ",")
    assert csv.read_text() == "x1,x2,u,v,e_u,e_v,Fhat,Ftilde\n" + "".join(
        line + "\n" for line in lines
    )

    # re-formatting a 12-digit value gives its text back, so plot.dat is the
    # CSV's rows with blanks for commas, a blank line after every n2 of them
    plot = tmp_path / "plot.dat"
    assert main(["plotdata", "--fields", str(csv), "--out", str(plot)]) == 0
    blocks = [
        "".join(line.replace(",", " ") + "\n" for line in lines[i * n2 : (i + 1) * n2]) + "\n"
        for i in range(n1)
    ]
    assert plot.read_text() == "".join(blocks)
    # a last line without its newline gets it back
    csv.write_text(csv.read_text()[:-1])
    assert main(["plotdata", "--fields", str(csv), "--out", str(plot)]) == 0
    assert plot.read_text() == "".join(blocks)

    binary = tmp_path / "fields.bin"
    _write_fields(binary, planes, "f64bin")
    assert main(["plotdata", "--fields", str(binary), "--out", str(plot)]) == 0
    expected = "".join(
        "".join(line + "\n" for line in _reference_lines(planes[:, i].T, " ")) + "\n"
        for i in range(n1)
    )
    assert plot.read_text() == expected


def test_field_io_memory_guard(tmp_path):
    # the text writers format a fixed block of rows at a time; formatting a
    # 256^2 dump at once would peak at tens of MB
    planes = _grid_planes(256, 256)
    csv = tmp_path / "fields.csv"
    tracemalloc.start()
    try:
        _write_fields(csv, planes, "csv")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cmd_plotdata(csv, tmp_path / "plot.dat")
        plot_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 4e6
    assert plot_peak <= 8e6


def _refused(tmp_path, dump, capsys):
    capsys.readouterr()
    plot = tmp_path / "plot.dat"
    code = main(["plotdata", "--fields", str(dump), "--out", str(plot)])
    err = capsys.readouterr().err
    return code == 1 and err.startswith("vortexlab: error: ") and not plot.exists()


def test_plotdata_refuses_csv_out_of_grid_order(tmp_path, capsys):
    csv = tmp_path / "fields.csv"
    _write_fields(csv, _grid_planes(8, 8), "csv")
    header, *rows = csv.read_text().splitlines(keepends=True)
    assert main(["plotdata", "--fields", str(csv), "--out", str(tmp_path / "ok.dat")]) == 0

    # x2 as the outer index: n1 * n2 still equals the row count
    transposed = [rows[i * 8 + j] for j in range(8) for i in range(8)]
    csv.write_text(header + "".join(transposed))
    assert _refused(tmp_path, csv, capsys)

    # one node missing and another one twice
    csv.write_text(header + "".join(rows[:10] + [rows[9]] + rows[11:]))
    assert _refused(tmp_path, csv, capsys)

    # a header other than the writer's, one column short, and a row count
    # that no n1 x n2 grid of the dump's coordinates has
    csv.write_text(header.replace("Fhat", "F") + "".join(rows))
    assert _refused(tmp_path, csv, capsys)
    csv.write_text(header + "".join(",".join(row.split(",")[:7]) + "\n" for row in rows))
    assert _refused(tmp_path, csv, capsys)
    csv.write_text(header + "".join(rows[:-1]))
    assert _refused(tmp_path, csv, capsys)

    # lines np.loadtxt skips: a copy of the rows would misplace its blocks
    csv.write_text(header + "".join(rows[:20] + ["# a note\n"] + rows[20:]))
    assert _refused(tmp_path, csv, capsys)
    csv.write_text(header + "".join(rows[:20] + ["\n"] + rows[20:]))
    assert _refused(tmp_path, csv, capsys)
    csv.write_text(header + "".join(rows) + "\n")
    assert _refused(tmp_path, csv, capsys)


@pytest.mark.parametrize("fmt, name", [("csv", "fields.csv"), ("f64bin", "fields.bin")])
def test_plotdata_refuses_out_naming_the_dump(tmp_path, capsys, fmt, name):
    dump = tmp_path / name
    _write_fields(dump, _grid_planes(8, 12), fmt)
    before = dump.read_bytes()
    for out in (dump, tmp_path / "." / name):
        assert main(["plotdata", "--fields", str(dump), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("vortexlab: error: ")
        assert dump.read_bytes() == before


def test_plotdata_refuses_out_naming_the_sidecar(tmp_path, capsys):
    binary = tmp_path / "fields.bin"
    _write_fields(binary, _grid_planes(8, 12), "f64bin")
    sidecar = tmp_path / "fields.bin.json"
    before = sidecar.read_bytes()
    for out in (sidecar, tmp_path / "." / "fields.bin.json"):
        assert main(["plotdata", "--fields", str(binary), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("vortexlab: error: ")
        assert sidecar.read_bytes() == before
    assert main(["plotdata", "--fields", str(binary), "--out", str(tmp_path / "p.dat")]) == 0


@pytest.mark.parametrize(
    "outputs",
    [
        {"report": "same.csv", "fields": "same.csv"},
        {"report": "./sub/../same.csv", "fields": "same.csv"},
        {"report": "r.bin", "fields": "r.bin", "format": "f64bin"},
        {"report": "r.bin.json", "fields": "r.bin", "format": "f64bin"},
        {"report": "sub//r.bin.json", "fields": "./sub/r.bin", "format": "f64bin"},
        {"report": "{out}/r.bin.json", "fields": "r.bin", "format": "f64bin"},
    ],
)
def test_solve_refuses_a_report_that_names_the_dump(tmp_path, capsys, outputs):
    # the dump or its sidecar used to overwrite the report, with exit 0
    out = tmp_path / "out"
    outputs = {key: path.format(out=out) for key, path in outputs.items()}
    cfg = write_config(tmp_path / "run.json", outputs=outputs)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "names the field dump or its sidecar" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "outputs",
    [{"report": ""}, {"report": "."}, {"report": "sub/.."}, {"fields": ".", "format": "f64bin"}],
)
def test_solve_refuses_an_output_path_that_names_no_file(tmp_path, monkeypatch, capsys, outputs):
    # the whole solve used to run; then the report was opened at --out's own
    # path, and the run exited 1 with "File exists"
    def unreachable(problem, **kwargs):
        raise AssertionError("a run whose output path names no file solved")

    monkeypatch.setattr(vortexlab.cli, "solve_tw", unreachable)
    cfg = write_config(tmp_path / "run.json", outputs=outputs)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert "names no file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["append", "truncate"])
def test_plotdata_names_a_sidecar_that_is_not_json(tmp_path, capsys, damage):
    binary = tmp_path / "fields.bin"
    _write_fields(binary, _grid_planes(8, 12), "f64bin")
    sidecar = tmp_path / "fields.bin.json"
    text = sidecar.read_text()
    sidecar.write_text(text + "0 0 0\n" if damage == "append" else text[: len(text) // 2])
    capsys.readouterr()
    assert main(["plotdata", "--fields", str(binary), "--out", str(tmp_path / "p.dat")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vortexlab: error: {sidecar}: invalid JSON")
    assert not (tmp_path / "p.dat").exists()


def test_plotdata_copy_of_a_csv_dump_equals_formatting(tmp_path):
    # every text the writer makes, including the fallback's: the CSV dump's
    # copied rows and a binary dump's formatted values give the same bytes
    planes = _grid_planes(8, 12)
    values = _oracle_values()
    cells = planes[2:].size
    values = np.concatenate([values, values[: -values.size % cells]])  # whole dumps
    csv, binary = tmp_path / "fields.csv", tmp_path / "fields.bin"
    for start in range(0, values.size, cells):
        planes[2:] = values[start : start + cells].reshape(planes[2:].shape)
        _write_fields(csv, planes, "csv")
        _write_fields(binary, planes, "f64bin")
        cmd_plotdata(csv, tmp_path / "csv.dat")
        cmd_plotdata(binary, tmp_path / "bin.dat")
        assert (tmp_path / "csv.dat").read_bytes() == (tmp_path / "bin.dat").read_bytes()


def test_plotdata_does_not_format_a_csv_dump(tmp_path, monkeypatch):
    csv = tmp_path / "fields.csv"
    _write_fields(csv, _grid_planes(8, 12), "csv")

    def refuse(rows, sep):
        raise AssertionError("a CSV dump's values were formatted again")

    monkeypatch.setattr(vortexlab.cli, "_format_rows", refuse)
    assert main(["plotdata", "--fields", str(csv), "--out", str(tmp_path / "plot.dat")]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("columns", ["x1", "x2", "v", "u", "e_v", "e_u", "Fhat", "Ftilde"]),
        ("order", "F"),
        ("dtype", ">f8"),
        ("n1", None),
    ],
)
def test_plotdata_refuses_sidecar_other_layout(tmp_path, capsys, key, value):
    binary = tmp_path / "fields.bin"
    _write_fields(binary, _grid_planes(8, 8), "f64bin")
    sidecar_path = tmp_path / "fields.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar[key] = value
    sidecar_path.write_text(json.dumps(sidecar))
    assert _refused(tmp_path, binary, capsys)


def test_plotdata_refuses_binary_dump_short_or_without_sidecar(tmp_path, capsys):
    binary = tmp_path / "fields.bin"
    _write_fields(binary, _grid_planes(8, 8), "f64bin")
    values = binary.read_bytes()
    # one value fewer than the 8 * n1 * n2 the sidecar asks for
    binary.write_bytes(values[:-8])
    assert _refused(tmp_path, binary, capsys)
    binary.write_bytes(values)
    (tmp_path / "fields.bin.json").unlink()
    assert _refused(tmp_path, binary, capsys)


@pytest.mark.parametrize("n1, n2", [(0, 0), (0, 8), (8, 0)])
def test_plotdata_refuses_empty_binary_dump(tmp_path, capsys, n1, n2):
    # 0 values match a sidecar with a zero grid count; the grid-order check
    # used to index the empty planes and end in an IndexError traceback
    binary = tmp_path / "fields.bin"
    _write_fields(binary, _grid_planes(8, 8), "f64bin")
    binary.write_bytes(b"")
    sidecar_path = tmp_path / "fields.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar.update(n1=n1, n2=n2)
    sidecar_path.write_text(json.dumps(sidecar))
    assert _refused(tmp_path, binary, capsys)
