"""Batch front end: solve runs, admissibility sweeps, plot-ready exports.

Run configurations live in a single JSON file (no environment knobs, so a
run is reproducible from one artifact). Parsing is fail-closed: unknown
keys are a hard error. Exit codes separate the three outcomes the theory
distinguishes: 0 solved, 2 inadmissible (no solution exists for these
sources on this area), 3 solver nonconvergence; 1 is reserved for I/O and
configuration errors.
"""

import argparse
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from .diagnostics import (
    SolveReport,
    curvatures_tw,
    curvatures_vav,
    report_tw,
    report_vav,
)
from .errors import ConfigurationError, SolverError, VortexLabError
from .sources import VortexConfiguration, mollifier_width
from .surface import TorusGeometry
from .tw import solve_tw, tw_admissibility, tw_problem
from .vav import solve_vav, vav_admissibility, vav_problem

_FIELD_COLUMNS = ("x1", "x2", "u", "v", "e_u", "e_v", "Fhat", "Ftilde")
_FMT = "%.11e"  # 12 significant digits


# ---------------------------------------------------------------- models ----


# One model's entry points, in the order a run uses them, and its methods.
_Model = namedtuple("_Model", "admissibility problem solve report curvatures methods")


def _models():
    """The model table. It is built on each call so that the entry points
    are looked up on this module at call time; a traced run wraps them here."""
    return {
        "tw": _Model(tw_admissibility, tw_problem, solve_tw, report_tw, curvatures_tw, ("newton",)),
        "vav": _Model(
            vav_admissibility,
            vav_problem,
            solve_vav,
            report_vav,
            curvatures_vav,
            ("newton", "fixed_point"),
        ),
    }


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


def _real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where):
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _parse_sources(raw, L1, L2):
    _check_keys(raw, ("zeros_q", "poles_q", "zeros_p", "poles_p"), "sources")
    lists = {}
    for name in ("zeros_q", "poles_q", "zeros_p", "poles_p"):
        items = raw.get(name, [])
        if not isinstance(items, list):
            raise ConfigurationError(f"sources.{name} must be a list, got {items!r}")
        entries = []
        for item in items:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise ConfigurationError(
                    f"sources.{name}: entries are [x, y, multiplicity], got {item!r}"
                )
            x, y, m = item
            where = f"sources.{name}: coordinate"
            x, y = _real(x, where), _real(y, where)
            m = _integer(m, f"sources.{name}: multiplicity")
            if m <= 0:
                raise ConfigurationError(
                    f"sources.{name}: multiplicity must be a positive integer, got {m!r}"
                )
            entries.append((x % L1, y % L2, m))
        lists[name] = entries
    return lists


class RunConfig:
    """Validated run configuration (fail-closed JSON parsing)."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise ConfigurationError("config root must be a JSON object")
        _check_keys(data, ("torus", "sources", "solver", "outputs"), "config")

        torus = _require(data, "torus", "config")
        _check_keys(torus, ("L1", "L2", "n1", "n2"), "torus")
        self.L1 = _real(_require(torus, "L1", "torus"), "torus.L1")
        self.L2 = _real(_require(torus, "L2", "torus"), "torus.L2")
        self.n1 = _integer(_require(torus, "n1", "torus"), "torus.n1")
        self.n2 = _integer(_require(torus, "n2", "torus"), "torus.n2")

        self.sources = _parse_sources(data.get("sources", {}), self.L1, self.L2)

        solver = _require(data, "solver", "config")
        _check_keys(
            solver, ("model", "method", "tol", "max_iter", "kappa", "seed"), "solver"
        )
        self.model = _require(solver, "model", "solver")
        models = _models()
        if not isinstance(self.model, str) or self.model not in models:
            raise ConfigurationError(
                f"solver.model must be one of {tuple(models)}, got {self.model!r}"
            )
        valid_methods = models[self.model].methods
        self.method = solver.get("method", "newton")
        if self.method not in valid_methods:
            raise ConfigurationError(
                f"solver.method for model {self.model!r} must be one of "
                f"{valid_methods}, got {self.method!r}"
            )
        self.tol = _real(solver.get("tol", 1e-8), "solver.tol")
        if not 0.0 < self.tol < np.inf:
            raise ConfigurationError(
                f"solver.tol must be a finite positive number, got {self.tol!r}"
            )
        self.max_iter = solver.get("max_iter", None)
        if self.max_iter is not None:
            self.max_iter = _integer(self.max_iter, "solver.max_iter")
            if self.max_iter < 1:
                raise ConfigurationError(
                    f"solver.max_iter must be a positive integer, got {self.max_iter!r}"
                )
        self.kappa = _real(solver.get("kappa", 2.0), "solver.kappa")
        self.seed = solver.get("seed", None)
        if self.seed is not None:
            self.seed = _integer(self.seed, "solver.seed")

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
        # plotdata reads a dump as CSV exactly when its name ends in .csv
        if (Path(self.fields_path).suffix == ".csv") != (self.format == "csv"):
            raise ConfigurationError(
                f"outputs.fields {self.fields_path!r} must end in .csv exactly when "
                f"outputs.format is 'csv' (format is {self.format!r})"
            )

    def geometry(self):
        return TorusGeometry(self.L1, self.L2, self.n1, self.n2)

    def configuration(self):
        return VortexConfiguration(**self.sources)

    def inputs_echo(self, geometry):
        return {
            "torus": {"L1": self.L1, "L2": self.L2, "n1": self.n1, "n2": self.n2},
            "sources": {k: [list(e) for e in v] for k, v in self.sources.items()},
            "solver": {
                "model": self.model,
                "method": self.method,
                "tol": self.tol,
                "max_iter": self.max_iter,
                "kappa": self.kappa,
                "seed": self.seed,
            },
            "sigma": mollifier_width(geometry, self.kappa),
        }


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return RunConfig(data)


# --------------------------------------------------------------- reports ----


def _write_report(report: SolveReport, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------- field dumps ----
#
# Text dumps (the CSV dump and plotdata's gnuplot blocks) print every value
# as `_FMT % float(v)`, 12 significant digits, and _format_rows makes those
# exact bytes for a whole block of rows at once. For a finite value with
# 1e-11 <= |v| < 1e34 and decimal exponent e, y = |v| * 10**(11 - e) is one
# correctly rounded multiply or divide by an exact power of ten
# (|11 - e| <= 22). When 1e11 <= y < 1e12 and the fraction of y is more
# than 2 ulps away from one half, rint(y) is the 12-digit significand
# (Clinger's fast path); a carry such as 9.9999999999995 ->
# 1.00000000000e+01 moves e up by one. The digits come from lookup tables,
# and so does ±0. Every other value (subnormal, NaN, inf, far exponents and
# near-ties) is formatted by `%`, CPython's correctly rounded dtoa, and put
# in its slot. Writers format a fixed block of rows at a time, so memory
# stays flat in the grid size.
#
# A dump must be in the writer's layout: the grid in C order, x1 constant
# over each block of n2 rows and increasing from block to block, and x2 the
# same increasing sequence in every block. A binary dump's sidecar must name
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
    for i in np.flatnonzero(~fast):
        text = (_FMT % float(x[i])).encode()
        out[i, :-1] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0")


def _field_planes(geom, sol, model):
    x1, x2 = geom.nodes()
    u = sol.u.values
    v = sol.v.values
    fhat, ftilde = _models()[model].curvatures(sol)
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


def _read_fields(path):
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"field dump {path} does not exist")
    if path.suffix == ".csv":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
        if header.split(",") != list(_FIELD_COLUMNS):
            raise ConfigurationError(f"{path}: unexpected field-dump header {header!r}")
        flat = np.loadtxt(path, delimiter=",", skiprows=1)
        if flat.ndim != 2 or flat.shape[1] != len(_FIELD_COLUMNS):
            raise ConfigurationError(f"{path}: corrupt field dump")
        n1 = len(np.unique(flat[:, 0]))
        n2 = len(np.unique(flat[:, 1]))
        if n1 * n2 != flat.shape[0]:
            raise ConfigurationError(f"{path}: row count does not form a grid")
        return _check_grid_order(path, flat.T.reshape(len(_FIELD_COLUMNS), n1, n2))
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise ConfigurationError(f"missing sidecar {sidecar_path}")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    layout = {"columns": list(_FIELD_COLUMNS), "dtype": "<f8", "order": "C"}
    if not isinstance(sidecar, dict) or any(sidecar.get(k) != v for k, v in layout.items()):
        raise ConfigurationError(f"{sidecar_path}: the dump's layout must be {layout}")
    n1 = _integer(sidecar.get("n1"), f"{sidecar_path}: n1")
    n2 = _integer(sidecar.get("n2"), f"{sidecar_path}: n2")
    raw = np.fromfile(path, dtype="<f8")
    expected = len(_FIELD_COLUMNS) * n1 * n2
    if raw.size != expected:
        raise ConfigurationError(
            f"{path}: expected {expected} values, found {raw.size}"
        )
    return _check_grid_order(path, raw.reshape(len(_FIELD_COLUMNS), n1, n2))


# -------------------------------------------------------------- commands ----


def _solve_once(cfg: RunConfig, geom, config):
    """Admissibility check plus one solve; returns (status, admissibility
    record, report, solution).

    The admissibility record decides exit 2 before any problem is built.
    """
    t0 = time.perf_counter()
    model = _models()[cfg.model]
    inputs = cfg.inputs_echo(geom)
    adm = model.admissibility(config, geom)

    def unsolved(status, solver_trace):
        return SolveReport(
            model=cfg.model,
            status=status,
            inputs=inputs,
            admissibility=adm.report,
            solver_trace=solver_trace,
            timings={"wall_seconds": time.perf_counter() - t0},
        )

    if not adm.satisfied:
        return 2, adm, unsolved("inadmissible", {"iterations": 0, "converged": False}), None
    problem = model.problem(geom, config, kappa=cfg.kappa)
    kwargs = {"tol": cfg.tol, "method": cfg.method}
    if cfg.max_iter is not None:
        kwargs["max_iter"] = cfg.max_iter
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        kwargs["x0"] = (
            rng.standard_normal((geom.n1, geom.n2)),
            rng.standard_normal((geom.n1, geom.n2)),
        )
    try:
        sol = model.solve(problem, **kwargs)
    except SolverError as exc:
        solver_trace = {
            "converged": False,
            "error": type(exc).__name__,
            "message": str(exc),
            "history": exc.trace,
        }
        return 3, adm, unsolved("nonconverged", solver_trace), None
    return 0, adm, model.report(sol, problem, inputs, time.perf_counter() - t0), sol


def cmd_solve(config_path, out_dir):
    cfg = _load_config(config_path)
    geom = cfg.geometry()
    config = cfg.configuration()
    out = Path(out_dir)
    status, _, report, sol = _solve_once(cfg, geom, config)
    _write_report(report, out / cfg.report_path)
    if status == 0:
        planes = _field_planes(geom, sol, cfg.model)
        _write_fields(out / cfg.fields_path, planes, cfg.format)
    return status


def cmd_sweep(config_path, lengths, out_dir):
    cfg = _load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for L in lengths:
        geom = TorusGeometry(L, L, cfg.n1, cfg.n2)
        # keep fractional source coordinates fixed while the torus scales
        scaled = {
            name: [(x * L / cfg.L1, y * L / cfg.L2, m) for x, y, m in entries]
            for name, entries in cfg.sources.items()
        }
        status, adm, report, sol = _solve_once(cfg, geom, VortexConfiguration(**scaled))
        row = (geom.area, int(adm.satisfied), *adm.margins)
        if status != 0:
            rows.append(row + ("", "", "", "", ""))
            continue
        qi = report.quantized_integrals
        rows.append(
            row
            + (
                float(np.exp(sol.u.values).max()),
                float(np.exp(sol.v.values).max()),
                qi["Iu"]["rel_error"],
                qi["Iv"]["rel_error"],
                report.solver_trace["iterations"],
            )
        )
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
    planes = _read_fields(fields_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as fh:
        # one gnuplot block of n2 lines per grid row, then a blank line
        for block in planes.transpose(1, 2, 0):
            fh.write(_format_rows(block, b" ") + b"\n")
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
        if args.command == "plotdata":
            return cmd_plotdata(args.fields, args.out)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (VortexLabError, OSError, ValueError) as exc:
        print(f"vortexlab: error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
