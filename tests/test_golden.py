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
failure after a numpy upgrade is not by itself a regression. To see what a
change moves, without writing anything under tests/golden:

    PYTHONPATH=src python tests/test_golden.py --diff

It prints "same" or "changed" for every golden file and hash. For a
changed report or sweep it lists the JSON paths or CSV cells that moved:
integer, string and other non-float changes one by one, float changes as a
count and the largest |delta| per path (list indices dropped) or per CSV
column. It exits 1 when anything changed and 0 when nothing did. A reader
that closes its end early (`--diff | head -1`) stops the printing, not the
comparison: the rest goes to os.devnull and the exit code is still the
comparison's.

To regenerate, on code whose behaviour is known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
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
# hashed output -> the golden file holding its hash for each case
HASH_FILES = {"fields.csv": FIELD_HASHES, "plot.dat": PLOT_HASHES}


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


def _hashes(name, out):
    """The hashed outputs of one case: output name -> SHA-256."""
    hashes = {}
    if name in FIELD_CASES:
        hashes["fields.csv"] = _sha256(out / "fields.csv")
    if name in PLOT_CASES:
        hashes["plot.dat"] = _plot_sha256(name, out)
    return hashes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, out = _run(name, tmp_path)
    assert code == CASES[name][3]
    for fname, data in _outputs(name, out).items():
        assert data == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"
    for output, digest in _hashes(name, out).items():
        hashes = json.loads(HASH_FILES[output].read_text())
        assert digest == hashes[name], f"{name}: {output} hash differs"


def regenerate(work_dir):
    tables = {output: {} for output in HASH_FILES}
    for name in sorted(CASES):
        code, out = _run(name, work_dir)
        if code != CASES[name][3]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][3]}")
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for fname, data in _outputs(name, out).items():
            (GOLDEN / name / fname).write_bytes(data)
        for output, digest in _hashes(name, out).items():
            tables[output][name] = digest
    for output, table in tables.items():
        HASH_FILES[output].write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def _json_leaves(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(fname, data):
    """A report's leaves by JSON path, or a sweep's cells by row and column."""
    if fname.endswith(".json"):
        return dict(_json_leaves(json.loads(data), ""))
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return {
        f"{column}[{header[0]}={row[0]}]": _cell(text)
        for row in rows
        for column, text in zip(header, row)
    }


def _is_float_change(old, new):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return numbers and (isinstance(old, float) or isinstance(new, float))


def _describe_changes(fname, old_data, new_data):
    """Lines saying which leaves of a golden file moved between two versions."""
    old, new = _leaves(fname, old_data), _leaves(fname, new_data)
    lines, float_moves = [], {}
    for key in [*old, *(k for k in new if k not in old)]:
        before, after = old.get(key, "<absent>"), new.get(key, "<absent>")
        if before == after:
            continue
        if _is_float_change(before, after):
            # floats are summed up per path with the list indices or row dropped
            group = re.sub(r"\[[^]]*\]", "[]", key)
            float_moves.setdefault(group, []).append((abs(after - before), key))
        else:
            lines.append(f"{key}: {before!r} -> {after!r}")
    for group, moves in float_moves.items():
        delta, key = max(moves)
        if len(moves) == 1:
            lines.append(f"{key}: float moved by {delta:.3g}")
        else:
            lines.append(f"{group}: {len(moves)} floats moved, max |delta| {delta:.3g} at {key}")
    return lines


def _say(line):
    """print(line), flushed; once the reader has closed stdout, the rest
    goes to os.devnull, so neither this nor the exit's flush can fail."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def diff(work_dir):
    """Print how a fresh run differs from tests/golden; True if anything does."""
    tables = {output: json.loads(path.read_text()) for output, path in HASH_FILES.items()}
    changed = False
    for name in sorted(CASES):
        code, out = _run(name, work_dir)
        if code != CASES[name][3]:
            _say(f"{name}: changed (exit {code}, expected {CASES[name][3]})")
            changed = True
            continue
        for fname, data in _outputs(name, out).items():
            golden = (GOLDEN / name / fname).read_bytes()
            same = data == golden
            _say(f"{name}/{fname}: {'same' if same else 'changed'}")
            if not same:
                for line in _describe_changes(fname, golden, data):
                    _say(f"    {line}")
            changed |= not same
        for output, digest in _hashes(name, out).items():
            same = digest == tables[output].get(name)
            _say(f"{name}/{output} sha256: {'same' if same else 'changed'}")
            changed |= not same
    return changed


def script(argv):
    """The script's run on its arguments; returns its exit code."""
    if argv not in ([], ["--diff"]):
        raise SystemExit("usage: python tests/test_golden.py [--diff]")
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["--diff"]:
            return 1 if diff(Path(tmp)) else 0
        regenerate(Path(tmp))
    return 0


# --diff on the two cases that build no problem, against a copy of their goldens
_DIFF_SCRIPT = """
import sys
from pathlib import Path
import test_golden
test_golden.CASES = {n: test_golden.CASES[n] for n in ("tw_inadmissible", "vav_inadmissible")}
test_golden.GOLDEN = Path(sys.argv[1])
sys.exit(test_golden.script(["--diff"]))
"""


@pytest.mark.parametrize("changed, code", [(False, 0), (True, 1)])
def test_diff_into_a_closed_pipe_exits_on_its_comparison(tmp_path, changed, code):
    # As `--diff | head -1` leaves it once head has gone: the pipe's read end
    # is closed before the first line. The run used to end in a BrokenPipeError
    # traceback and exit 1 whatever it found.
    golden = tmp_path / "golden"
    for name in ("tw_inadmissible", "vav_inadmissible"):
        shutil.copytree(GOLDEN / name, golden / name)
    if changed:
        (golden / "vav_inadmissible" / "report.json").write_text("{}\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-c", _DIFF_SCRIPT, str(golden)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(__file__).parent,
            env=env,
        )
    finally:
        os.close(write)
    assert run.returncode == code and run.stderr == ""


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
