"""Reconstructed curvature fields, quantized fluxes, and topological energies.

In their curvatures both models obey one Maxwell-form system,

    Lap(U) = 2(Ftilde - Fhat) + 4*pi*(N1 - P1)/|S|,  Lap(V) = -2 Ftilde + 4*pi*(N2 - P2)/|S|,

with Fhat = phi(u) and Fhat + Ftilde = phi(v) (Tong & Wong, Vortices and
impurities, JHEP 2014). Only the kernel phi of the model's `_Work` differs:
1 - e^x for "tw" and -2 tanh(x/2) for "vav". Integrated, the system pins the
integrals of phi(u) and phi(v) to the p of `sources.forced`, which must lie
in |S| times the range of phi: (-inf, 1) gives the Bradlow bound and (-2, 2)
the two difference bounds. The reported quantized integrals are p/s.
The curvatures and the residual are `_linalg.NewtonWork`'s, which the
solvers read too; they, the quantized integrals, the Chern fluxes and the
count formulas come from phi, in one form for both models. Energies, like
every "expected" entry, come from the counts, never from fields. Each model
has one `Model` record in `MODELS`, from which `build_report` and the CLI
read its facts.
"""

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import tw, vav
from .errors import ConfigurationError
from .sources import FOUR_PI, TWO_PI, VortexConfiguration, forced
from .tw import TWProblem, TWSolution, tw_admissibility
from .vav import VAVProblem, VAVSolution, vav_admissibility


def energy_tw(config: VortexConfiguration) -> float:
    """Topological energy 2*pi*(N1 + N2); no field data enters."""
    return TWO_PI * (config.N1 + config.N2)


class EnergyBreakdown(NamedTuple):
    """Total topological energy with its stratification.

    chern_flux is twice the total flux 2*pi*(N1-P1+N2-P2); thom_q and thom_p
    are the anti-vortex contributions 8*pi*P1 and 8*pi*P2.
    """

    total: float
    chern_flux: float
    thom_q: float
    thom_p: float


def energy_vav(config: VortexConfiguration) -> EnergyBreakdown:
    """Topological energy 4*pi*(N1 + N2 + P1 + P2) and its decomposition."""
    N1, P1, N2, P2 = config.counts()
    return EnergyBreakdown(
        total=FOUR_PI * (N1 + N2 + P1 + P2),
        chern_flux=2.0 * TWO_PI * (N1 - P1 + N2 - P2),
        thom_q=2.0 * FOUR_PI * P1,
        thom_p=2.0 * FOUR_PI * P2,
    )


# One model's facts, as the CLI and the reports use them. `work` is the
# model's `_Work`, the one place its kernel phi, the s of its quantized
# integrals (see above) and its methods are written; `flux_keys` names the
# Chern fluxes the report gives. `energy` is the report's energy entry for a
# configuration, and `trace` the model's own solver_trace fields.
Model = namedtuple("Model", "tag work admissibility flux_keys energy trace")


TW = Model(
    tag="tw",
    work=tw._Work,
    admissibility=tw_admissibility,
    flux_keys=("chern1", "chern2"),
    energy=lambda config: {"value": energy_tw(config)},
    trace=lambda sol: {"functional_value": sol.functional_value},
)

VAV = Model(
    tag="vav",
    work=vav._Work,
    admissibility=vav_admissibility,
    flux_keys=("chern1", "chern2", "total"),
    energy=lambda config: dict(
        zip(("value", "chern_flux", "thom_q", "thom_p"), energy_vav(config))
    ),
    trace=lambda sol: {"shifts": {"c1": sol.c1, "c2": sol.c2}},
)

MODELS = {m.tag: m for m in (TW, VAV)}
_PROBLEM_MODEL = {TWProblem: TW, VAVProblem: VAV}
_SOLUTION_MODEL = {TWSolution: TW, VAVSolution: VAV}


def _solution_model(sol):
    """The solution's model record; ConfigurationError for what is no solution."""
    if type(sol) not in _SOLUTION_MODEL:
        raise ConfigurationError(f"expected a TWSolution or VAVSolution, got {type(sol).__name__}")
    return _SOLUTION_MODEL[type(sol)]


def _model(sol, problem):
    """The problem's model record; ConfigurationError unless `problem` is a
    problem and the solution one of its model on its geometry."""
    model = _PROBLEM_MODEL.get(type(problem))
    if model is None or _solution_model(sol) is not model or sol.U.geometry != problem.geometry:
        raise ConfigurationError("the solution is not of this problem's model and geometry")
    return model


def _kernel_values(work, sol):
    """The kernel's grid values t1 at u and t2 at v, taken once per report."""
    return [work.kernel(x.values)[0] for x in (sol.u, sol.v)]


def curvatures(sol):
    """Magnetic fields (Fhat, Ftilde) = (phi(u), phi(v) - phi(u)) of a
    solution of either model; Ftilde carries the self-dual sign."""
    work = _solution_model(sol).work
    return tuple(map(sol.u.geometry.field, work.curvatures(*_kernel_values(work, sol))))


curvatures_tw = curvatures_vav = curvatures


def _integrals(work, quad, t):
    """quad(phi(u))/s and quad(phi(v))/s from the kernel's values t."""
    return {key: quad(work.phi(x)) / work.scale for key, x in zip(("Iu", "Iv"), t)}


def quantized_integrals(sol, problem):
    """quad(phi(u))/s and quad(phi(v))/s, which the counts pin to p/s."""
    work = _model(sol, problem).work
    return _integrals(work, problem.geometry.quad, _kernel_values(work, sol))


def _expected(problem):
    """The count formulas of the problem's model: the pinned quantized
    integrals and the Chern fluxes of what the counts force (`sources.forced`)."""
    model = _PROBLEM_MODEL[type(problem)]
    counted = forced(problem.config, problem.geometry.area, model.work)
    (n1, n2), (p1, p2) = counted.n, counted.p
    pinned = {"Iu": p1 / model.work.scale, "Iv": p2 / model.work.scale}
    fluxes = {"chern1": n1, "chern2": n2, "total": n1 + n2}
    return pinned, {key: fluxes[key] for key in model.flux_keys}


def _residual_norms(work, sol, t):
    """Sup and L2 norms of `work.residual` at the solution, from the kernel's values t."""
    r1, r2 = work.residual(sol.U.values, sol.V.values, *t)
    sup = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
    return {"sup": sup, "l2": math.sqrt(work.geom.quad(r1 * r1 + r2 * r2))}


def residual_report(sol, problem):
    """Sup and L2 norms of the residuals of the curvature-form system."""
    work = _model(sol, problem).work(problem)
    return _residual_norms(work, sol, _kernel_values(work, sol))


def _entry(value, expected):
    scale = abs(expected) if expected != 0.0 else 1.0
    return {
        "value": value,
        "expected": expected,
        "abs_error": abs(value - expected),
        "rel_error": abs(value - expected) / scale,
    }


def quantized_entries(problem, integrals):
    """The report's quantized_integrals entry: `integrals` against what the counts pin."""
    return {key: _entry(integrals[key], value) for key, value in _expected(problem)[0].items()}


def _flux_entries(problem, fhat, ftilde):
    integrands = {"chern1": fhat - ftilde, "chern2": ftilde, "total": fhat}
    _, expected = _expected(problem)
    return {
        name: _entry(problem.geometry.quad(integrands[name]) / TWO_PI, float(value))
        for name, value in expected.items()
    }


def flux_report(sol, problem):
    """Chern numbers against the counts: chern1, chern2 and total integrate
    Fhat - Ftilde, Ftilde and Fhat over 2*pi; the model's record names which
    it reports."""
    work = _model(sol, problem).work
    return _flux_entries(problem, *work.curvatures(*_kernel_values(work, sol)))


@dataclass
class SolveReport:
    """Everything a run writes about one solve; serializes to the report JSON."""

    model: str
    status: str
    inputs: dict
    admissibility: dict
    solver_trace: dict
    quantized_integrals: dict | None = None
    fluxes: dict | None = None
    energy: dict | None = None
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def build_report(sol, problem, inputs, wall_seconds) -> SolveReport:
    """The report of a solved run, from the record of the problem's model.

    The kernel is evaluated once at u and once at v, and its values give the
    quantized integrals, the curvatures, the flux integrals and the residual."""
    model = _model(sol, problem)
    config = problem.config
    work = model.work(problem)
    t = _kernel_values(work, sol)
    return SolveReport(
        model=model.tag,
        status="solved",
        inputs=inputs,
        admissibility=model.admissibility(config, problem.geometry).report,
        solver_trace={
            "method": sol.method,
            "iterations": sol.iterations,
            "converged": True,
            "final_residual": sol.final_residual,
            **model.trace(sol),
            "residuals": _residual_norms(work, sol, t),
            "history": sol.trace,
        },
        quantized_integrals=quantized_entries(problem, _integrals(work, problem.geometry.quad, t)),
        fluxes=_flux_entries(problem, *work.curvatures(*t)),
        energy=model.energy(config),
        timings={"wall_seconds": wall_seconds},
    )


# flux_report_* and *_quantized_integrals are public names. report_* exist
# because the traced benchmark run wraps `cli.report_tw` and `cli.report_vav`
# by name; they go when it stops wrapping names (ROADMAP item 13). The
# benchmark's check also reads `tw_quantized_integrals` here.
flux_report_tw = flux_report_vav = flux_report
tw_quantized_integrals = vav_quantized_integrals = quantized_integrals
report_tw = report_vav = build_report
