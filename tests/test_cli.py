import json
import tracemalloc

import numpy as np
import pytest

from vortexlab import TorusGeometry
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
    ]
    for k, overrides in enumerate(bad):
        out = tmp_path / f"bad{k}"
        cfg = write_config(tmp_path / f"bad{k}.json", **overrides)
        capsys.readouterr()
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1, overrides
        assert capsys.readouterr().err.startswith("vortexlab: error: "), overrides
        assert not out.exists(), overrides


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
    return code == 1 and capsys.readouterr().err.startswith("vortexlab: error: ")


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
