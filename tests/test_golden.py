"""Golden reports: the CLI's output for a fixed set of configs, byte for byte.

Each case runs `vortexlab.cli.main` at 32x32 and compares what it writes
with the files under tests/golden/<case>/:

* `report.json` byte for byte, after dropping `timings` (the only
  non-deterministic section);
* `sweep.csv` byte for byte;
* for the cases listed in FIELD_CASES, the SHA-256 of `fields.csv`;
* for the cases listed in PLOT_CASES, the SHA-256 of the `plot.dat` that
  `vortexlab plotdata` makes from the case's field dump.

The files were generated with numpy 2.4.6 (Python 3.11). FFT and
transcendental rounding may differ under another numpy build, so a
failure after a numpy upgrade is not by itself a regression. To
regenerate, on code whose behaviour is known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from vortexlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIELD_HASHES = GOLDEN / "fields.sha256.json"
PLOT_HASHES = GOLDEN / "plot.sha256.json"

TW_PAIR = {"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]}
VAV_PAIR = {"zeros_q": [[1.1, 1.5, 1]], "poles_q": [[2.9, 2.6, 1]]}
# a, b nonzero: the fixed-point solve needs nonzero constraint shifts
VAV_UNBALANCED = {
    "zeros_q": [[1.1, 1.5, 2]],
    "poles_q": [[2.9, 2.6, 1]],
    "zeros_p": [[0.7, 3.1, 1]],
}


def _config(L, sources, solver):
    return {
        "torus": {"L1": L, "L2": L, "n1": 32, "n2": 32},
        "sources": sources,
        "solver": solver,
    }


# name -> (command, config, extra CLI args, expected exit code)
CASES = {
    "tw_newton": ("solve", _config(6.0, TW_PAIR, {"model": "tw"}), [], 0),
    "tw_newton_seed11": (
        "solve",
        _config(6.0, TW_PAIR, {"model": "tw", "seed": 11}),
        [],
        0,
    ),
    "vav_newton": ("solve", _config(4.0, VAV_PAIR, {"model": "vav"}), [], 0),
    "vav_fixed_point": (
        "solve",
        _config(4.0, VAV_PAIR, {"model": "vav", "method": "fixed_point"}),
        [],
        0,
    ),
    "vav_fixed_point_unbalanced": (
        "solve",
        _config(4.0, VAV_UNBALANCED, {"model": "vav", "method": "fixed_point"}),
        [],
        0,
    ),
    "vav_newton_f64bin": (
        "solve",
        {
            **_config(4.0, VAV_PAIR, {"model": "vav"}),
            "outputs": {"format": "f64bin", "fields": "fields.bin"},
        },
        [],
        0,
    ),
    "tw_inadmissible": ("solve", _config(4.0, TW_PAIR, {"model": "tw"}), [], 2),
    "vav_inadmissible": (
        "solve",
        _config(3.0, {"zeros_p": [[1.0, 1.0, 2]]}, {"model": "vav"}),
        [],
        2,
    ),
    "tw_nonconverged": (
        "solve",
        _config(6.0, TW_PAIR, {"model": "tw", "max_iter": 1}),
        [],
        3,
    ),
    "tw_sweep": (
        "sweep",
        _config(6.0, TW_PAIR, {"model": "tw"}),
        ["--lengths", "4,4.4,4.8,5.2,6"],
        0,
    ),
    "vav_sweep": (
        "sweep",
        _config(4.0, {"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]}, {"model": "vav"}),
        ["--lengths", "2.8,3.0,3.2,3.6,4"],
        0,
    ),
}
FIELD_CASES = ("tw_newton", "vav_newton", "vav_fixed_point_unbalanced")
# name -> the field dump plotdata reads
PLOT_CASES = {name: "fields.csv" for name in FIELD_CASES}
PLOT_CASES["vav_newton_f64bin"] = "fields.bin"


def _run(name, tmp_path):
    command, config, extra, _ = CASES[name]
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def _report_bytes(out):
    report = json.loads((out / "report.json").read_text())
    report.pop("timings")
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def _outputs(name, out):
    """The golden files of one case: name -> bytes."""
    if CASES[name][0] == "sweep":
        return {"sweep.csv": (out / "sweep.csv").read_bytes()}
    return {"report.json": _report_bytes(out)}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _plot_sha256(name, out):
    plot = out / "plot.dat"
    assert main(["plotdata", "--fields", str(out / PLOT_CASES[name]), "--out", str(plot)]) == 0
    return _sha256(plot)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, out = _run(name, tmp_path)
    assert code == CASES[name][3]
    for fname, data in _outputs(name, out).items():
        assert data == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"
    if name in FIELD_CASES:
        hashes = json.loads(FIELD_HASHES.read_text())
        assert _sha256(out / "fields.csv") == hashes[name]
    if name in PLOT_CASES:
        hashes = json.loads(PLOT_HASHES.read_text())
        assert _plot_sha256(name, out) == hashes[name]


def regenerate(work_dir):
    hashes, plot_hashes = {}, {}
    for name in sorted(CASES):
        code, out = _run(name, work_dir)
        if code != CASES[name][3]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][3]}")
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for fname, data in _outputs(name, out).items():
            (GOLDEN / name / fname).write_bytes(data)
        if name in FIELD_CASES:
            hashes[name] = _sha256(out / "fields.csv")
        if name in PLOT_CASES:
            plot_hashes[name] = _plot_sha256(name, out)
    FIELD_HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    PLOT_HASHES.write_text(json.dumps(plot_hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
