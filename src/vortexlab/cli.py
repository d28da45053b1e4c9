"""Batch front end: solve runs, admissibility sweeps, plot-ready exports.

Run configurations live in a single JSON file (no environment knobs, so a
run is reproducible from one artifact). Parsing is fail-closed: unknown
keys are a hard error. Exit codes separate the three outcomes the theory
distinguishes: 0 solved, 2 inadmissible (no solution exists for these
sources on this area), 3 solver nonconvergence; 1 is reserved for I/O and
configuration errors.

A run reads a model's methods and admissibility from its record in
`diagnostics.MODELS`; the report and the dump's curvatures come from the
record's kernel. Only the problem builder, solver and report entry point
are looked up per model here (`_entry_points`).
"""

import argparse
import ctypes
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .diagnostics import (
    MODELS, SolveReport, curvatures, quantized_entries, quantized_integrals, report_tw, report_vav
)
from .errors import ConfigurationError, SolverError, VortexLabError
from .sources import VortexConfiguration, _normalize_points, mollifier_width
from .surface import TorusGeometry, _integer, _real, check_solver_settings
from .tw import solve_tw, tw_problem
from .vav import solve_vav, vav_problem

_FIELD_COLUMNS = ("x1", "x2", "u", "v", "e_u", "e_v", "Fhat", "Ftilde")
_FMT = "%.11e"  # 12 significant digits


# ---------------------------------------------------------------- models ----


def _entry_points(tag):
    """The model's problem builder, solver and report builder. They are read
    from this module's globals at each call because a traced benchmark run
    wraps these names here; this lookup and the `report_*` aliases go when it
    stops wrapping names (ROADMAP item 13)."""
    return {
        "tw": (tw_problem, solve_tw, report_tw),
        "vav": (vav_problem, solve_vav, report_vav),
    }[tag]


# ---------------------------------------------------------------- config ----


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _require(section, key, where):
    if key not in section:
        raise ConfigurationError(f"missing required key {key!r} in {where}")
    return section[key]


def _parse_sources(raw, geom):
    _check_keys(raw, ("zeros_q", "poles_q", "zeros_p", "poles_p"), "sources")
    lists = {}
    for name in ("zeros_q", "poles_q", "zeros_p", "poles_p"):
        items = raw.get(name, [])
        if not isinstance(items, list):
            raise ConfigurationError(f"sources.{name} must be a list, got {items!r}")
        points = _normalize_points(items, f"sources.{name}")
        lists[name] = [(x % geom.L1, y % geom.L2, m) for x, y, m in points]
    return lists


class RunConfig:
    """Validated run configuration (fail-closed JSON parsing)."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        _check_keys(data, ("torus", "sources", "solver", "outputs"), "config")

        torus = _require(data, "torus", "config")
        keys = ("L1", "L2", "n1", "n2")
        _check_keys(torus, keys, "torus")
        self.geometry = TorusGeometry(*(_require(torus, k, "torus") for k in keys))

        self.sources = _parse_sources(data.get("sources", {}), self.geometry)

        solver = _require(data, "solver", "config")
        _check_keys(
            solver, ("model", "method", "tol", "max_iter", "kappa", "seed"), "solver"
        )
        self.model = _require(solver, "model", "solver")
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise ConfigurationError(
                f"solver.model must be one of {tuple(MODELS)}, got {self.model!r}"
            )
        valid_methods = MODELS[self.model].work.methods
        self.method = solver.get("method", "newton")
        if self.method not in valid_methods:
            raise ConfigurationError(
                f"solver.method for model {self.model!r} must be one of "
                f"{valid_methods}, got {self.method!r}"
            )
        self.tol = _real(solver.get("tol", 1e-8), "solver.tol")
        self.max_iter = solver.get("max_iter", None)
        if self.max_iter is not None:
            self.max_iter = _integer(self.max_iter, "solver.max_iter")
        check_solver_settings(self.tol, self.max_iter)
        self.kappa = _real(solver.get("kappa", 2.0), "solver.kappa")
        # the problem builders refuse it too, but on an inadmissible torus
        # the solve exits 2 before any problem is built
        mollifier_width(self.geometry, self.kappa)
        self.seed = solver.get("seed", None)
        if self.seed is not None:
            self.seed = _integer(self.seed, "solver.seed", minimum=0)

        outputs = data.get("outputs", {})
        _check_keys(outputs, ("report", "fields", "format"), "outputs")
        self.format = outputs.get("format", "csv")
        if self.format not in ("csv", "f64bin"):
            raise ConfigurationError(
                f"outputs.format must be 'csv' or 'f64bin', got {self.format!r}"
            )
        default_fields = "fields.csv" if self.format == "csv" else "fields.bin"
        self.report_path = outputs.get("report", "report.json")
        self.fields_path = outputs.get("fields", default_fields)
        for key, path in (("report", self.report_path), ("fields", self.fields_path)):
            if not isinstance(path, str):
                raise ConfigurationError(f"outputs.{key} must be a path, got {path!r}")
            # "", "." and "sub/.." name --out or a directory, where no file can be written
            if Path(path).name in ("", ".."):
                raise ConfigurationError(f"outputs.{key} {path!r} names no file")
        # plotdata reads a dump as CSV exactly when its name ends in .csv
        if (Path(self.fields_path).suffix == ".csv") != (self.format == "csv"):
            raise ConfigurationError(
                f"outputs.fields {self.fields_path!r} must end in .csv exactly when "
                f"outputs.format is 'csv' (format is {self.format!r})"
            )

    def inputs_echo(self):
        g = self.geometry
        return {
            "torus": {"L1": g.L1, "L2": g.L2, "n1": g.n1, "n2": g.n2},
            "sources": {k: [list(e) for e in v] for k, v in self.sources.items()},
            "solver": {
                "model": self.model,
                "method": self.method,
                "tol": self.tol,
                "max_iter": self.max_iter,
                "kappa": self.kappa,
                "seed": self.seed,
            },
            "sigma": mollifier_width(g, self.kappa),
        }


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


# --------------------------------------------------------------- reports ----


def _write_report(report: SolveReport, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------- field dumps ----
#
# The CSV dump prints every value as `_FMT % float(v)`, 12 significant
# digits, and _format_rows makes those exact bytes for a whole block of rows
# at once; plotdata formats a binary dump's values so too, and copies a CSV
# dump's own rows. For a finite value with 1e-11 <= |v| < 1e34 and decimal exponent e, y = |v| * 10**(11 - e) is one
# correctly rounded multiply or divide by an exact power of ten
# (|11 - e| <= 22). When 1e11 <= y < 1e12 and the fraction of y is more
# than 2 ulps away from one half, rint(y) is the 12-digit significand
# (Clinger's fast path); a carry such as 9.9999999999995 ->
# 1.00000000000e+01 moves e up by one. The digits come from lookup tables,
# and so does ±0. Every other value (subnormal, NaN, inf, far exponents and
# near-ties) is formatted by `%`, CPython's correctly rounded dtoa, once
# per distinct value of the block, and put in its slots. Writers format a
# fixed block of rows at a time, so memory stays flat in the grid size.
#
# A dump must be in the writer's layout: the grid in C order, x1 constant
# over each block of n2 rows and increasing from block to block, and x2 the
# same increasing sequence in every block. Every line of a CSV dump after
# its header is a row (np.loadtxt would skip a blank or comment line, and
# the copy would then misplace its blocks). A binary dump's sidecar must name
# the writer's columns, dtype and order. Anything else is refused.

_CSV_CHUNK_ROWS = 1024
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _words(*columns):
    """Little-endian uint32 words from four columns of ASCII codes."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1).astype(np.uint8).view("<u4")[..., 0]


# A value takes 5 words (20 bytes): "-d.d" "dddd" "dddd" "dde+" "XX", a pad
# byte, then the separator. Bytes a value does not use are NUL and are
# deleted at the end: the pad, the '-' of a positive value, and the tail of
# a shorter fallback text.
_Q = np.arange(10**4)
_DIGITS4 = _words(_Q // 1000 + 48, _Q // 100 % 10 + 48, _Q // 10 % 10 + 48, _Q % 10 + 48)
_D = np.arange(100)
_LEAD = _words([[0], [ord("-")]], _D // 10 + 48, ord("."), _D % 10 + 48).ravel()
_LAST = _words(_D // 10 + 48, _D % 10 + 48, ord("e"), [[ord("+")], [ord("-")]]).ravel()
_EXP = _words(_D // 10 + 48, _D % 10 + 48, 0, 0)


def _scaled(a, e):
    """y = a * 10**(11 - e), one correctly rounded operation (|11 - e| <= 22)."""
    k = 11 - e
    p = _POW10[np.minimum(abs(k), 22)]
    y = a * p
    return np.divide(a, p, out=y, where=k < 0)


def _format_rows(rows, sep):
    """Bytes of `sep.join(_FMT % float(v) for v in row) + "\n"` for each row
    of the 2-D float array `rows`; `sep` is one byte."""
    x = np.asarray(rows, dtype=np.float64)
    ncols = x.shape[1]
    x = x.ravel()
    a = abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -11) & (e <= 33)
    a = np.where(fast, a, 1.0)
    e = np.where(fast, e, 0.0).astype(np.int64)
    y = _scaled(a, e)
    e = e + (y >= 1e12) - (y < 1e11)  # log10 was off by one
    y = _scaled(a, e)
    fast &= (abs(e - 11) <= 22) & (y >= 1e11) & (y < 1e12)
    fast &= abs(y - np.floor(y) - 0.5) > 2 * np.spacing(y)
    n = np.rint(y)
    carry = n == 1e12  # 9.9999999999995 -> 1.00000000000e+01
    zero = x == 0  # n = 0 and e = 0 print [-]0.00000000000e+00
    n = np.where(fast & ~carry, n, np.where(zero, 0.0, 1e11)).astype(np.int64)
    e = np.where(fast, e + carry, 0)
    fast |= zero

    words = np.empty((x.size, 5), "<u4")
    lead = n // 10**10
    n -= lead * 10**10
    words[:, 0] = _LEAD[np.signbit(x) * 100 + lead]
    quad = n // 10**6
    n -= quad * 10**6
    words[:, 1] = _DIGITS4[quad]
    quad = n // 100
    words[:, 2] = _DIGITS4[quad]
    words[:, 3] = _LAST[(e < 0) * 100 + n - quad * 100]
    words[:, 4] = _EXP[abs(e)]
    out = words.view(np.uint8)
    out[:, -1] = sep[0]
    out[ncols - 1 :: ncols, -1] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        # each distinct value once: grid coordinates repeat from row to row
        bits, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
        texts = np.zeros((bits.size, out.shape[1] - 1), np.uint8)
        for j, v in enumerate(bits.view(np.float64)):
            text = (_FMT % float(v)).encode()
            texts[j, : len(text)] = np.frombuffer(text, np.uint8)
        out[slow, :-1] = texts[which]
    return out.tobytes().translate(None, b"\0")


def _field_planes(geom, sol):
    x1, x2 = geom.nodes()
    u = sol.u.values
    v = sol.v.values
    fhat, ftilde = curvatures(sol)
    return np.stack(
        [x1, x2, u, v, np.exp(u), np.exp(v), fhat.values, ftilde.values]
    )


def _write_fields(path, planes, fmt):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n1, n2 = planes.shape[1], planes.shape[2]
    if fmt == "csv":
        flat = planes.reshape(len(_FIELD_COLUMNS), n1 * n2).T
        with open(path, "wb") as fh:
            fh.write((",".join(_FIELD_COLUMNS) + "\n").encode())
            for start in range(0, n1 * n2, _CSV_CHUNK_ROWS):
                fh.write(_format_rows(flat[start : start + _CSV_CHUNK_ROWS], b","))
    else:
        with open(path, "wb") as fh:
            fh.write(planes.astype("<f8").tobytes(order="C"))
        sidecar = {
            "n1": n1,
            "n2": n2,
            "columns": list(_FIELD_COLUMNS),
            "dtype": "<f8",
            "order": "C",
        }
        with open(str(path) + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _check_grid_order(path, planes):
    x1, x2 = planes[0], planes[1]
    if not (
        (x1 == x1[:, :1]).all()
        and (np.diff(x1[:, 0]) > 0).all()
        and (x2 == x2[:1]).all()
        and (np.diff(x2[0]) > 0).all()
    ):
        raise ConfigurationError(
            f"{path}: nodes are not in the writer's grid order "
            "(x1 constant over each block of n2 rows and increasing across "
            "blocks, x2 the same increasing sequence in every block)"
        )
    return planes


def _count_lines(path):
    """Lines after the first, counting a last line that lacks its newline."""
    with open(path, "rb") as fh:
        fh.readline()
        count, end = 0, b"\n"
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            end = chunk[-1:]
    return count + (end != b"\n")


def _read_fields(path):
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"field dump {path} does not exist")
    if path.suffix == ".csv":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            has_row = any(line.split("#")[0].strip() for line in fh)
        if header.split(",") != list(_FIELD_COLUMNS):
            raise ConfigurationError(f"{path}: unexpected field-dump header {header!r}")
        if not has_row:
            raise ConfigurationError(f"{path}: no data row after the header")
        flat = np.loadtxt(path, delimiter=",", skiprows=1)
        if flat.ndim != 2 or flat.shape[1] != len(_FIELD_COLUMNS):
            raise ConfigurationError(f"{path}: corrupt field dump")
        n1 = len(np.unique(flat[:, 0]))
        n2 = len(np.unique(flat[:, 1]))
        if n1 * n2 != flat.shape[0]:
            raise ConfigurationError(f"{path}: row count does not form a grid")
        if _count_lines(path) != flat.shape[0]:
            raise ConfigurationError(f"{path}: a line after the header is not a data row")
        return _check_grid_order(path, flat.T.reshape(len(_FIELD_COLUMNS), n1, n2))
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise ConfigurationError(f"missing sidecar {sidecar_path}")
    sidecar = _load_json(sidecar_path)
    layout = {"columns": list(_FIELD_COLUMNS), "dtype": "<f8", "order": "C"}
    if not isinstance(sidecar, dict) or any(sidecar.get(k) != v for k, v in layout.items()):
        raise ConfigurationError(f"{sidecar_path}: the dump's layout must be {layout}")
    n1 = _integer(sidecar.get("n1"), f"{sidecar_path}: n1", minimum=1)
    n2 = _integer(sidecar.get("n2"), f"{sidecar_path}: n2", minimum=1)
    raw = np.fromfile(path, dtype="<f8")
    expected = len(_FIELD_COLUMNS) * n1 * n2
    if raw.size != expected:
        raise ConfigurationError(
            f"{path}: expected {expected} values, found {raw.size}"
        )
    return _check_grid_order(path, raw.reshape(len(_FIELD_COLUMNS), n1, n2))


# -------------------------------------------------------------- commands ----


def _solve_once(cfg: RunConfig, geom, sources, x0=None):
    """Admissibility check plus one solve of the source lists on `geom`;
    returns the admissibility record, the problem, and the solution or the
    SolverError that ended the solve. The record decides exit 2 before any
    problem is built: a refused torus gives (record, None, None).

    The solve starts from `x0` = (U, V) when it is given (a sweep row's
    start, `_sweep_start`), else from the config's seeded start or zeros;
    the solution's iterations count from that start.
    """
    build_problem, solve, _ = _entry_points(cfg.model)
    config = VortexConfiguration(**sources)
    adm = MODELS[cfg.model].admissibility(config, geom)
    if not adm.satisfied:
        return adm, None, None
    problem = build_problem(geom, config, kappa=cfg.kappa)
    if x0 is None and cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        x0 = rng.standard_normal((geom.n1, geom.n2)), rng.standard_normal((geom.n1, geom.n2))
    try:
        sol = solve(problem, tol=cfg.tol, max_iter=cfg.max_iter, method=cfg.method, x0=x0)
    except SolverError as exc:
        sol = exc.with_traceback(None)  # its frames hold the failed solve's arrays
    return adm, problem, sol


def cmd_solve(config_path, out_dir):
    """Solve the config, and write its report and a solved run's field dump.
    The one command that builds a report: the model's report entry point
    makes a solved run's, and a refused or nonconverged run's is built here."""
    cfg = RunConfig(_load_json(config_path))
    out = Path(out_dir)
    # the dump would overwrite the report; --out makes both paths whole here
    report_path, dump = (os.path.normpath(out / p) for p in (cfg.report_path, cfg.fields_path))
    if report_path == dump or cfg.format == "f64bin" and report_path == dump + ".json":
        raise ConfigurationError(
            f"outputs.report {report_path} names the field dump or its sidecar"
        )
    t0 = time.perf_counter()
    adm, problem, sol = _solve_once(cfg, cfg.geometry, cfg.sources)
    if sol is None:
        status, trace = "inadmissible", {"iterations": 0, "converged": False}
    elif isinstance(sol, SolverError):
        status = "nonconverged"
        trace = dict(converged=False, error=type(sol).__name__, message=str(sol), history=sol.trace)
    else:
        *_, build_report = _entry_points(cfg.model)
        report = build_report(sol, problem, cfg.inputs_echo(), time.perf_counter() - t0)
        del problem  # held through the dump, it raised the dump's time and peak memory
        _write_report(report, out / cfg.report_path)
        _write_fields(out / cfg.fields_path, _field_planes(cfg.geometry, sol), cfg.format)
        return 0
    timings = {"wall_seconds": time.perf_counter() - t0}
    report = SolveReport(cfg.model, status, cfg.inputs_echo(), adm.report, trace, timings=timings)
    _write_report(report, out / cfg.report_path)
    return 2 if sol is None else 3


def _sweep_start(solved, s):
    """A sweep row's start at s = 1/|S| from `solved`, the (1/|S|, U, V) of
    the last two rows that solved, the older first: None when there are
    none, the last row's U and V when there is one or both have the same s,
    else the secant U1 + q (U1 - U0), V1 + q (V1 - V0), q = (s - s1)/(s1 - s0),
    in new arrays.

    Both models' equations hold |S| only through 4 pi N/|S|, so a sweep's
    solutions are smooth in 1/|S|; the secant in it is the predictor of
    standard continuation methods (Allgower & Georg 1990, ch. 2).
    """
    if not solved:
        return None
    s1, U1, V1 = solved[-1]
    s0, U0, V0 = solved[0]
    if s1 == s0:
        return U1, V1
    q = (s - s1) / (s1 - s0)
    return U1 + q * (U1 - U0), V1 + q * (V1 - V0)


def cmd_sweep(config_path, lengths, out_dir):
    """Solve the config on the square torus of each side L in `lengths`,
    the sources keeping their fractional positions, and write one row of
    sweep.csv per length.

    A row is read from the admissibility record and the solution, and no
    report is built; a refused (exit 2) or nonconverged (exit 3) row gets
    empty solution cells. Each row's solve starts from `_sweep_start` of the
    last two rows that solved, so its `iterations` count from that prediction.
    """
    cfg = RunConfig(_load_json(config_path))
    for L in lengths:  # refused before any solve; each holds a grid array, so none is kept
        TorusGeometry(L, L, cfg.geometry.n1, cfg.geometry.n2)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    solved = []  # (1/|S|, U, V) of the last two solved rows, the older first
    for L in lengths:
        geom = TorusGeometry(L, L, cfg.geometry.n1, cfg.geometry.n2)
        # keep fractional source coordinates fixed while the torus scales
        scaled = {
            name: [(x * L / cfg.geometry.L1, y * L / cfg.geometry.L2, m) for x, y, m in entries]
            for name, entries in cfg.sources.items()
        }
        s = 1.0 / geom.area
        adm, problem, sol = _solve_once(cfg, geom, scaled, _sweep_start(solved, s))
        cells = ("",) * 5
        if sol is not None and not isinstance(sol, SolverError):
            solved = [*solved[-1:], (s, sol.U.values, sol.V.values)]
            qi = quantized_entries(problem, quantized_integrals(sol, problem))
            cells = (
                float(np.exp(sol.u.values).max()),
                float(np.exp(sol.v.values).max()),
                qi["Iu"]["rel_error"],
                qi["Iv"]["rel_error"],
                sol.iterations,
            )
        rows.append((geom.area, int(adm.satisfied), *adm.margins, *cells))
        # drop the problem, u and v before the next solve: `solved` holds the U, V it needs
        del problem, sol
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("S,admissible,margin1,margin2,sup_eu,sup_ev,qerr_u,qerr_v,iterations\n")
        for row in rows:
            fh.write(
                ",".join("" if v == "" else f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )
    return 0


def cmd_plotdata(fields_path, out_path):
    """Write one gnuplot block of n2 lines per grid row, then a blank line.

    A CSV dump's rows are copied with ',' turned into ' ', so each value
    keeps the dump's own text; a binary dump's values are formatted.
    """
    planes = _read_fields(fields_path)
    out_path = Path(out_path)
    binary = Path(fields_path).suffix != ".csv"
    reads = [fields_path, str(fields_path) + ".json"] if binary else [fields_path]
    if out_path.exists() and any(os.path.samefile(out_path, r) for r in reads):
        raise ConfigurationError(f"--out {out_path} is the field dump or its sidecar")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as fh:
        if binary:
            for block in planes.transpose(1, 2, 0):
                fh.write(_format_rows(block, b" ") + b"\n")
            return 0
        with open(fields_path, "rb") as dump:
            dump.readline()
            while block := list(itertools.islice(dump, planes.shape[2])):
                if not block[-1].endswith(b"\n"):
                    block[-1] += b"\n"
                fh.write(b"".join(block).replace(b",", b" ") + b"\n")
    return 0


# ------------------------------------------------------------------ main ----


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Multiple-vortex and vortex/anti-vortex solves on a flat torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve from a JSON config")
    p_solve.add_argument("--config", required=True, help="path to run config JSON")
    p_solve.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="rerun a config over a list of torus sizes")
    p_sweep.add_argument("--config", required=True, help="path to base config JSON")
    p_sweep.add_argument(
        "--lengths", required=True, help="comma-separated side lengths L (L1=L2=L)"
    )
    p_sweep.add_argument("--out", default=".", help="output directory")

    p_plot = sub.add_parser("plotdata", help="convert a field dump to gnuplot text")
    p_plot.add_argument("--fields", required=True, help="path to a field dump")
    p_plot.add_argument("--out", required=True, help="output text path")
    return parser


# A command frees its grid arrays into glibc's heap, whose free pages stay
# resident below any live block; where small blocks land differs from run
# to run, and so did the memory a host process kept after a command (a 256^2
# `cli-io` run's peak varied by 10 MB). Each command hands those pages back.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc only
except (OSError, TypeError, AttributeError):
    _malloc_trim = None


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out)
        if args.command == "sweep":
            lengths = [float(s) for s in args.lengths.split(",") if s.strip()]
            if not lengths:
                raise ConfigurationError("--lengths list is empty")
            return cmd_sweep(args.config, lengths, args.out)
        return cmd_plotdata(args.fields, args.out)
    except (VortexLabError, OSError, ValueError) as exc:
        print(f"vortexlab: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
