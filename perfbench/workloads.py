"""The four benchmark workloads: seeded inputs, one operation each, checks.

Inputs come from `random.Random(seed)` only, so the same seed gives the
same source layouts, multiplicities, torus sizes and sweep lengths on any
machine, and generating them imports nothing heavy (numpy is first imported
inside the timed set-up, as part of importing vortexlab).

Every operation is checked against the count formulas of the theory. The
expected values are computed here from the source counts, never read back
from the program's own "expected" fields:

* `tw`: integrals of 1 - e^u and 1 - e^v equal 2*pi*(N1+N2) and
  2*pi*(N1+2*N2); the Chern numbers equal N1 and N2.
* `vav`: integrals of (1-e^u)/(1+e^u), (1-e^v)/(1+e^v) equal
  pi*(N1-P1+N2-P2) and pi*(N1-P1+2*(N2-P2)); the Chern numbers and the
  total flux equal N1-P1, N2-P2 and N1-P1+N2-P2.

Tolerances are those of the acceptance suite: relative 1e-2 on a nonzero
integral, 1e-2*|S| absolute on a zero one, 0.01 absolute on a flux.
"""

import importlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

QI_REL_TOL = 1e-2
FLUX_ABS_TOL = 0.01
PLOT_COLUMNS = 8

# Source mixes: the multiplicities of the (zeros_q, poles_q, zeros_p,
# poles_p) lists. Inputs cycle through the mixes; the seed places the points.
TW_MIXES = (((1, 1), (), (1,), ()), ((1,), (), (1, 1), ()), ((2, 1), (), (1,), ()))
VAV_MIXES = (((1, 1), (1,), (1,), ()), ((1,), (), (1,), (1,)), ((2,), (1,), (1,), ()))
# fixedpoint-128: five unbalanced mixes and one balanced one (a = b = 0),
# so the constraint-shift bisection runs on most inputs, not on all.
FP_MIXES = (
    ((1, 1), (1,), (), ()),
    ((1,), (), (1,), (1,)),
    ((1, 1), (1,), (1,), (1,)),
    ((1,), (1,), (1,), ()),
    ((2,), (1,), (), ()),
    ((1,), (1,), (), ()),
)
SWEEP_MIXES = (((1,), (), (1,), ()), ((1, 1), (), (1,), ()), ((1,), (), (1, 1), ()), ((2,), (), (1,), ()))
# Sweep lengths as multiples of the Bradlow length sqrt(2*pi*(N1+2*N2)):
# two below it (refused), six above it, denser near the threshold.
SWEEP_RATIOS = (0.9, 0.97, 1.02, 1.06, 1.1, 1.18, 1.29, 1.4)
SWEEP_BASE_L = 6.0


@dataclass
class Item:
    """One generated input: a torus side, a grid and four source lists."""

    model: str
    L: float
    n: int
    sources: dict
    method: str = "newton"
    lengths: tuple = ()  # sweep only

    def counts(self):
        return tuple(
            sum(m for _, _, m in self.sources[k])
            for k in ("zeros_q", "poles_q", "zeros_p", "poles_p")
        )


class OpTimeout(Exception):
    """Raised inside an operation that ran past its time limit."""


@dataclass
class Outcome:
    """Solves attempted and verified in one operation, and what went wrong."""

    attempted: int = 0
    verified: int = 0
    op_failed: bool = False
    wrong: bool = False  # an output contradicted a count formula
    errors: dict = field(default_factory=dict)
    sweep_rows: int = 0
    sweep_rows_failed: int = 0
    plot_bytes: int = 0

    def error(self, name):
        self.errors[name] = self.errors.get(name, 0) + 1
        self.op_failed = True


# ---------------------------------------------------------------- inputs ----


def _periodic_gap(p, q, L):
    dx = abs(p[0] - q[0]) % L
    dy = abs(p[1] - q[1]) % L
    return math.hypot(min(dx, L - dx), min(dy, L - dy))


def _points(rng, L, k, min_gap):
    """k uniform points on the L-torus, pairwise at least min_gap apart."""
    pts = []
    while len(pts) < k:
        p = (rng.uniform(0.0, L), rng.uniform(0.0, L))
        if all(_periodic_gap(p, q, L) >= min_gap for q in pts):
            pts.append(p)
    return pts


def _sources(rng, L, mix):
    """Source lists for a multiplicity mix, points placed by the seed."""
    pts = iter(_points(rng, L, sum(len(ms) for ms in mix), 0.2 * L))
    return {
        key: [[round(x, 6), round(y, 6), m] for m, (x, y) in zip(ms, pts)]
        for key, ms in zip(("zeros_q", "poles_q", "zeros_p", "poles_p"), mix)
    }


def _bradlow_length(sources):
    n1 = sum(m for _, _, m in sources["zeros_q"])
    n2 = sum(m for _, _, m in sources["zeros_p"])
    return math.sqrt(2.0 * math.pi * (n1 + 2 * n2))


def _tw_item(rng, n, mix):
    """tw layout on an area 1.6-2.0 times the Bradlow bound."""
    probe = _sources(rng, 1.0, mix)
    L = _bradlow_length(probe) * math.sqrt(rng.uniform(1.6, 2.0))
    src = {k: [[round(x * L, 6), round(y * L, 6), m] for x, y, m in v] for k, v in probe.items()}
    return Item("tw", round(L, 6), n, src)


def _vav_item(rng, n, mix, lo, hi, method):
    L = round(rng.uniform(lo, hi), 6)
    return Item("vav", L, n, _sources(rng, L, mix), method=method)


def _solve_items(rng, n, count):
    """Alternating tw and vav Newton inputs. The mixes cycle in a fixed
    order, so every seed runs the same mix of source counts; the seed
    places the points and picks the areas."""
    return [
        _tw_item(rng, n, TW_MIXES[(i // 2) % len(TW_MIXES)])
        if i % 2 == 0
        else _vav_item(rng, n, VAV_MIXES[(i // 2) % len(VAV_MIXES)], 5.5, 6.5, "newton")
        for i in range(count)
    ]


# Inputs per seed, and operations per reference second (see calibration.py).
# An untraced run of --seconds S makes round(S * OPS_PER_S) operations: about
# S seconds of them at reference machine speed, and always the same number,
# so that each seed times the same inputs and the tail is at the same rank.
POOL = {"newton-512": 16, "cli-io-256": 24, "fixedpoint-128": 48, "sweep-128": 48}
OPS_PER_S = {"newton-512": 0.42, "cli-io-256": 0.62, "fixedpoint-128": 3.7, "sweep-128": 1.1}


def make_inputs(workload, seed, grid=None):
    """The seeded input list of a workload; operations cycle through it."""
    rng = random.Random(f"{workload}:{seed}")
    m = POOL[workload]
    if workload == "newton-512":
        return _solve_items(rng, grid or 512, m)
    if workload == "cli-io-256":
        return _solve_items(rng, grid or 256, m)
    if workload == "fixedpoint-128":
        return [
            _vav_item(rng, grid or 128, FP_MIXES[i % len(FP_MIXES)], 4.5, 5.5, "fixed_point")
            for i in range(m)
        ]
    if workload == "sweep-128":
        items = []
        for i in range(m):
            src = _sources(rng, SWEEP_BASE_L, SWEEP_MIXES[i % len(SWEEP_MIXES)])
            L_star = _bradlow_length(src)
            lengths = tuple(
                "%.6f" % (L_star * r * (1.0 + rng.uniform(-0.01, 0.01)))
                for r in SWEEP_RATIOS
            )
            items.append(Item("tw", SWEEP_BASE_L, grid or 128, src, lengths=lengths))
        return items
    raise KeyError(workload)


# ------------------------------------------------------------ properties ----


def tw_margin(counts, area):
    """Relative Bradlow margin 1 - 2*pi*(N1+2*N2)/|S|; admissible iff > 0."""
    n1, _, n2, _ = counts
    return 1.0 - 2.0 * math.pi * (n1 + 2 * n2) / area


def vav_ab(counts, area):
    n1, p1, n2, p2 = counts
    return (
        -math.pi * (n1 - p1 + n2 - p2) / area,
        -math.pi * (n1 - p1 + 2 * (n2 - p2)) / area,
    )


def _sweep_admissible(counts, L):
    """The sweep command's own test: |S| - 2*pi*(N1+2*N2) > 0."""
    n1, _, n2, _ = counts
    return L * L - 2.0 * math.pi * (n1 + 2 * n2) > 0.0


def input_properties(items):
    """Per-input admissibility record plus the shares later claims cite."""
    per_input = []
    vav_total = vav_unbalanced = lengths_total = lengths_refused = 0
    for it in items:
        counts = it.counts()
        rec = {"model": it.model, "method": it.method, "L": it.L, "counts": counts}
        if it.lengths:
            margins = [tw_margin(counts, float(s) ** 2) for s in it.lengths]
            refused = sum(not _sweep_admissible(counts, float(s)) for s in it.lengths)
            rec["length_margins"] = margins
            rec["smallest_margin"] = min(margins)
            rec["smallest_admissible_margin"] = min((m for m in margins if m > 0), default=None)
            lengths_total += len(margins)
            lengths_refused += refused
        elif it.model == "tw":
            rec["smallest_margin"] = tw_margin(counts, it.L * it.L)
        else:
            a, b = vav_ab(counts, it.L * it.L)
            rec.update(a=a, b=b, smallest_margin=min(1.0 - abs(a), 1.0 - abs(b)))
            vav_total += 1
            vav_unbalanced += (a != 0.0) or (b != 0.0)
        per_input.append(rec)
    return {
        "vav_inputs": vav_total,
        "vav_share_a_or_b_nonzero": vav_unbalanced / vav_total if vav_total else None,
        "sweep_lengths": lengths_total,
        "sweep_share_inadmissible": lengths_refused / lengths_total if lengths_total else None,
        "smallest_margin": min(r["smallest_margin"] for r in per_input),
        "per_input": per_input,
    }


# ---------------------------------------------------------------- checks ----


def _qi_ok(value, expected, area):
    if expected == 0.0:
        return abs(value) <= QI_REL_TOL * area
    return abs(value - expected) <= QI_REL_TOL * abs(expected)


def expected_integrals(model, counts):
    n1, p1, n2, p2 = counts
    if model == "tw":
        return 2.0 * math.pi * (n1 + n2), 2.0 * math.pi * (n1 + 2 * n2)
    return math.pi * (n1 - p1 + n2 - p2), math.pi * (n1 - p1 + 2 * (n2 - p2))


def expected_fluxes(model, counts):
    n1, p1, n2, p2 = counts
    if model == "tw":
        return {"chern1": n1, "chern2": n2}
    return {"chern1": n1 - p1, "chern2": n2 - p2, "total": n1 - p1 + n2 - p2}


def check_values(model, counts, area, iu, iv, fluxes):
    """True when both integrals and every flux match the count formulas."""
    exp_u, exp_v = expected_integrals(model, counts)
    if not (_qi_ok(iu, exp_u, area) and _qi_ok(iv, exp_v, area)):
        return False
    return all(
        abs(fluxes[k] - float(v)) <= FLUX_ABS_TOL
        for k, v in expected_fluxes(model, counts).items()
    )


# -------------------------------------------------------------- program ----


class Program:
    """The vortexlab modules, imported from the checkout's `src` directory.

    Operations look every entry point up on its module at call time, so the
    traced run can wrap the names that the calling module looks up.
    """

    def __init__(self, src_dir):
        src_dir = os.path.abspath(src_dir)
        if not os.path.isfile(os.path.join(src_dir, "vortexlab", "__init__.py")):
            raise ImportError(f"no vortexlab package under {src_dir}")
        sys.path.insert(0, src_dir)
        self.vl = importlib.import_module("vortexlab")
        origin = os.path.abspath(self.vl.__file__)
        if not origin.startswith(src_dir + os.sep):
            raise ImportError(f"vortexlab imported from {origin}, not from {src_dir}")
        self.surface = importlib.import_module("vortexlab.surface")
        self.tw = importlib.import_module("vortexlab.tw")
        self.vav = importlib.import_module("vortexlab.vav")
        self.cli = importlib.import_module("vortexlab.cli")
        self.diagnostics = importlib.import_module("vortexlab.diagnostics")
        self.errors = importlib.import_module("vortexlab.errors")


class Runner:
    """Set-up, one operation and its check, for one workload."""

    def __init__(self, workload, items, program, work_dir, max_iter=None):
        self.workload = workload
        self.items = items
        self.p = program
        self.work_dir = work_dir
        self.max_iter = max_iter
        self.geoms = {}
        self.configs = {}
        self.config_paths = {}
        self.on_main = None  # traced run: wraps each cli.main call

    # -- set-up ----------------------------------------------------------

    def setup(self):
        """Build the geometries, source sets and config files, then the
        first problem; everything the timed loop must not pay for."""
        p = self.p
        if self.workload in ("newton-512", "fixedpoint-128"):
            for i, it in enumerate(self.items):
                self.geoms[i] = p.surface.TorusGeometry(it.L, it.L, it.n, it.n)
                self.configs[i] = p.vl.VortexConfiguration(**_tuples(it.sources))
            self._problem(self.items[0], self.geoms[0], self.configs[0])
            return
        os.makedirs(self.work_dir, exist_ok=True)
        for i, it in enumerate(self.items):
            path = os.path.join(self.work_dir, f"config{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self._cli_config(it), fh)
            self.config_paths[i] = path
        first = self.items[0]
        L = float(first.lengths[-1]) if first.lengths else first.L
        scale = L / first.L
        scaled = {k: [(x * scale, y * scale, m) for x, y, m in v] for k, v in first.sources.items()}
        geom = p.surface.TorusGeometry(L, L, first.n, first.n)
        self._problem(first, geom, p.vl.VortexConfiguration(**scaled))

    def _cli_config(self, it):
        solver = {"model": it.model, "method": it.method}
        if self.max_iter is not None:
            solver["max_iter"] = self.max_iter
        return {
            "torus": {"L1": it.L, "L2": it.L, "n1": it.n, "n2": it.n},
            "sources": it.sources,
            "solver": solver,
            "outputs": {"format": "csv"},
        }

    def _problem(self, it, geom, config):
        if it.model == "tw":
            return self.p.tw.tw_problem(geom, config)
        return self.p.vav.vav_problem(geom, config)

    # -- operations ------------------------------------------------------

    def run_op(self, k):
        """Run one operation on input k; returns raw results for `check`,
        which runs outside the timed region."""
        it = self.items[k]
        if self.workload in ("newton-512", "fixedpoint-128"):
            return self._library_op(k, it)
        if self.workload == "cli-io-256":
            return self._cli_io_op(k)
        return self._sweep_op(k, it)

    def _library_op(self, k, it):
        kwargs = {} if self.max_iter is None else {"max_iter": self.max_iter}
        try:
            problem = self._problem(it, self.geoms[k], self.configs[k])
            if it.model == "tw":
                sol = self.p.tw.solve_tw(problem, **kwargs)
            else:
                sol = self.p.vav.solve_vav(problem, method=it.method, **kwargs)
        except self.p.errors.VortexLabError as exc:
            # drop the traceback: its frames hold the failed solve's arrays
            return exc.with_traceback(None)
        return sol, problem

    def _main(self, argv):
        if self.on_main is not None:
            return self.on_main(argv)
        return self.p.cli.main(argv)

    def _cli_io_op(self, k):
        out = os.path.join(self.work_dir, "out")
        code = self._main(["solve", "--config", self.config_paths[k], "--out", out])
        if code != 0:
            return code, None
        plot = os.path.join(out, "plot.dat")
        return code, self._main(["plotdata", "--fields", os.path.join(out, "fields.csv"), "--out", plot])

    def _sweep_op(self, k, it):
        out = os.path.join(self.work_dir, "sweep")
        return self._main(
            ["sweep", "--config", self.config_paths[k], "--lengths", ",".join(it.lengths), "--out", out]
        )

    # -- checks ----------------------------------------------------------

    def check(self, k, raw):
        it = self.items[k]
        if isinstance(raw, OpTimeout):
            # stopped: every solve the operation would have made has failed
            admissible = sum(_sweep_admissible(it.counts(), float(s)) for s in it.lengths)
            out = Outcome(attempted=admissible or 1)
            out.error("OpTimeout")
            return out
        if self.workload in ("newton-512", "fixedpoint-128"):
            return self._check_library(it, raw)
        if self.workload == "cli-io-256":
            return self._check_cli_io(it, raw)
        return self._check_sweep(it, raw)

    def _check_library(self, it, raw):
        out = Outcome(attempted=1)
        if isinstance(raw, Exception):
            out.error(type(raw).__name__)
            out.wrong = not isinstance(raw, self.p.errors.SolverError)
            return out
        sol, problem = raw
        d = self.p.diagnostics
        if it.model == "tw":
            qi = d.tw_quantized_integrals(sol, problem)
            flux = d.flux_report_tw(sol, problem)
        else:
            qi = self.p.vav.vav_quantized_integrals(sol, problem)
            flux = d.flux_report_vav(sol, problem)
        fluxes = {k: v["value"] for k, v in flux.items()}
        area = problem.geometry.area
        if check_values(it.model, it.counts(), area, qi["Iu"], qi["Iv"], fluxes):
            out.verified = 1
        else:
            out.error("check:count_formula")
            out.wrong = True
        return out

    def _check_cli_io(self, it, raw):
        out = Outcome(attempted=1)
        code, code2 = raw
        report_path = os.path.join(self.work_dir, "out", "report.json")
        if code != 0:
            # exit 3 is an honest nonconvergence; any other code is a fault
            name = "exit%d" % code
            if code == 3:
                with open(report_path, encoding="utf-8") as fh:
                    name = json.load(fh)["solver_trace"].get("error", name)
            out.error(name)
            out.wrong = code != 3
            return out
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        qi = report.get("quantized_integrals") or {}
        fluxes = {k: v["value"] for k, v in (report.get("fluxes") or {}).items()}
        ok = (
            report.get("status") == "solved"
            and "Iu" in qi
            and "Iv" in qi
            and check_values(
                it.model, it.counts(), it.L * it.L, qi["Iu"]["value"], qi["Iv"]["value"], fluxes
            )
        )
        if not ok:
            out.error("check:report")
            out.wrong = True
            return out
        if code2 != 0:
            out.error("plotdata_exit%d" % code2)
            out.wrong = True
            return out
        with open(os.path.join(self.work_dir, "out", "plot.dat"), "rb") as fh:
            data = fh.read()
        out.plot_bytes = len(data)
        blanks = data.count(b"\n\n")
        lines = data.count(b"\n")
        first = data.split(b"\n", 1)[0].split()
        if lines - blanks != it.n * it.n or blanks != it.n or len(first) != PLOT_COLUMNS:
            out.error("check:plotdata_shape")
            out.wrong = True
            return out
        out.verified = 1
        return out

    def _check_sweep(self, it, raw):
        out = Outcome()
        code = raw
        if code != 0:
            out.error("exit%d" % code)
            out.wrong = True
            return out
        with open(os.path.join(self.work_dir, "sweep", "sweep.csv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        counts = it.counts()
        out.sweep_rows = len(rows)
        if len(rows) != len(it.lengths):
            out.error("check:sweep_row_count")
            out.wrong = True
            return out
        for s, row in zip(it.lengths, rows):
            L = float(s)
            admissible = _sweep_admissible(counts, L)
            if int(row[1]) != int(admissible) or abs(float(row[0]) - L * L) > 1e-9 * L * L:
                out.error("check:sweep_admissibility")
                out.wrong = True
                continue
            if not admissible:
                if any(row[4:]):
                    out.error("check:sweep_refused_row_filled")
                    out.wrong = True
                continue
            out.attempted += 1
            if row[4] == "":
                # admissible but unsolved: the solver gave up on this size
                out.sweep_rows_failed += 1
                out.errors["SweepRowUnsolved"] = out.errors.get("SweepRowUnsolved", 0) + 1
            elif float(row[6]) <= QI_REL_TOL and float(row[7]) <= QI_REL_TOL:
                out.verified += 1
            else:
                out.error("check:sweep_quantized")
                out.wrong = True
        return out


def _tuples(sources):
    return {k: [tuple(e) for e in v] for k, v in sources.items()}
