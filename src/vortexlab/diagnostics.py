"""Reconstructed curvature fields, quantized fluxes, and topological energies.

The magnetic fields of a solved configuration are algebraic in e^u and e^v,
so they are reconstructed pointwise from the solution; their integrals are
pinned by the source counts. Energies are reported from the exact count
formulas (the flux integrals serve as the numerical cross-check); pointwise
energy-density quadrature would need the gauge potentials and is out of
scope. Every "expected" entry is computed from counts, never from fields.

Both models state one theorem shape, so each has one `Model` record in
`MODELS`. The one report builder (`build_report`), the one Chern computation
(`flux_report`) and the CLI read a model's facts from its record alone.
"""

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import f_half
from .sources import FOUR_PI, TWO_PI, VortexConfiguration
from .tw import TWProblem, TWSolution, tw_admissibility, tw_quantized_integrals, tw_residual
from .vav import (
    VAVProblem,
    VAVSolution,
    vav_admissibility,
    vav_quantized_integrals,
    vav_residual,
)


def curvatures_tw(sol: TWSolution):
    """Magnetic fields (Fhat, Ftilde) of a vortex-only solution.

    Fhat = 1 - e^u; Ftilde = -[(1 - e^u) + (e^v - 1)] (self-dual sign).
    """
    geom = sol.u.geometry
    eu = np.exp(sol.u.values)
    ev = np.exp(sol.v.values)
    fhat = 1.0 - eu
    ftilde = -(fhat + (ev - 1.0))
    return geom.field(fhat), geom.field(ftilde)


def curvatures_vav(sol: VAVSolution):
    """Magnetic fields of a vortex/anti-vortex solution.

    Fhat = 2(1 - e^u)/(1 + e^u) = -2 tanh(u/2) and
    Ftilde = -2[(1 - e^u)/(1 + e^u) + (e^v - 1)/(1 + e^v)], both evaluated
    in the saturation-safe tanh form.
    """
    geom = sol.u.geometry
    tu = f_half(sol.u.values)
    tv = f_half(sol.v.values)
    return geom.field(-2.0 * tu), geom.field(2.0 * (tu - tv))


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


# One model's facts, as the CLI and the reports use them. `pinned` and
# `fluxes` take the counts (N1, P1, N2, P2) and give, by report key, the values
# the counts pin the quantized integrals and the Chern fluxes to. `energy` is
# the report's energy entry for a configuration, and `trace` the model's own
# solver_trace fields.
Model = namedtuple(
    "Model",
    "tag methods admissibility residual curvatures quantized_integrals pinned fluxes energy trace",
)


TW = Model(
    tag="tw",
    methods=("newton",),
    admissibility=tw_admissibility,
    residual=tw_residual,
    curvatures=curvatures_tw,
    quantized_integrals=tw_quantized_integrals,
    # the model admits no poles, so P1 = P2 = 0 here
    pinned=lambda N1, P1, N2, P2: {"Iu": TWO_PI * (N1 + N2), "Iv": TWO_PI * (N1 + 2 * N2)},
    fluxes=lambda N1, P1, N2, P2: {"chern1": N1, "chern2": N2},
    energy=lambda config: {"value": energy_tw(config)},
    trace=lambda sol: {
        "final_gradient_norm": sol.final_gradient_norm,
        "functional_value": sol.functional_value,
    },
)

VAV = Model(
    tag="vav",
    methods=("newton", "fixed_point"),
    admissibility=vav_admissibility,
    residual=vav_residual,
    curvatures=curvatures_vav,
    quantized_integrals=vav_quantized_integrals,
    pinned=lambda N1, P1, N2, P2: {
        "Iu": math.pi * (N1 - P1 + N2 - P2),
        "Iv": math.pi * (N1 - P1 + 2 * (N2 - P2)),
    },
    fluxes=lambda N1, P1, N2, P2: {
        "chern1": N1 - P1,
        "chern2": N2 - P2,
        "total": N1 - P1 + N2 - P2,
    },
    energy=lambda config: dict(
        zip(("value", "chern_flux", "thom_q", "thom_p"), energy_vav(config))
    ),
    trace=lambda sol: {
        "final_residual": sol.final_residual,
        "shifts": {"c1": sol.c1, "c2": sol.c2},
    },
)

MODELS = {m.tag: m for m in (TW, VAV)}
_MODEL_OF = {TWProblem: TW, VAVProblem: VAV}  # by the class of a problem


def residual_report(sol, problem):
    """Sup and L2 norms of the discrete residuals of the governing system."""
    geom = problem.geometry
    r1, r2 = _MODEL_OF[type(problem)].residual(sol, problem)
    sup = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
    l2 = math.sqrt(geom.quad(r1 * r1 + r2 * r2))
    return {"sup": sup, "l2": l2}


def _entry(value, expected):
    scale = abs(expected) if expected != 0.0 else 1.0
    return {
        "value": value,
        "expected": expected,
        "abs_error": abs(value - expected),
        "rel_error": abs(value - expected) / scale,
    }


def flux_report(sol, problem):
    """Chern numbers from the curvature integrals, against the counts.

    chern1 and chern2 integrate Fhat - Ftilde and Ftilde, and total
    integrates Fhat, each over 2*pi; the model's record names which it
    reports.
    """
    model = _MODEL_OF[type(problem)]
    fhat, ftilde = (f.values for f in model.curvatures(sol))
    integrands = {"chern1": fhat - ftilde, "chern2": ftilde, "total": fhat}
    quad = problem.geometry.quad
    return {
        name: _entry(quad(integrands[name]) / TWO_PI, float(expected))
        for name, expected in model.fluxes(*problem.config.counts()).items()
    }


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
    """The report of a solved run, from the record of the problem's model."""
    model = _MODEL_OF[type(problem)]
    config = problem.config
    qi = model.quantized_integrals(sol, problem)
    return SolveReport(
        model=model.tag,
        status="solved",
        inputs=inputs,
        admissibility=model.admissibility(config, problem.geometry).report,
        solver_trace={
            "method": sol.method,
            "iterations": sol.iterations,
            "converged": True,
            **model.trace(sol),
            "residuals": residual_report(sol, problem),
            "history": sol.trace,
        },
        quantized_integrals={
            key: _entry(qi[key], expected)
            for key, expected in model.pinned(*config.counts()).items()
        },
        fluxes=flux_report(sol, problem),
        energy=model.energy(config),
        timings={"wall_seconds": wall_seconds},
    )


# flux_report_* are public names. report_* exist because the traced benchmark
# run wraps `cli.report_tw` and `cli.report_vav` by name; they go when it
# stops wrapping names (ROADMAP item 4).
flux_report_tw = flux_report_vav = flux_report
report_tw = report_vav = build_report
