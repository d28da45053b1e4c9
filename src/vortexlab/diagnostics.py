"""Reconstructed curvature fields, quantized fluxes, and topological energies.

The magnetic fields of a solved configuration are algebraic in e^u and e^v,
so they are reconstructed pointwise from the solution; their integrals are
pinned by the source counts. Energies are reported from the exact count
formulas (the flux integrals serve as the numerical cross-check); pointwise
energy-density quadrature would need the gauge potentials and is out of
scope. Every "expected" entry is computed from counts, never from fields.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import f_half
from .sources import FOUR_PI, TWO_PI, VortexConfiguration
from .tw import TWProblem, TWSolution, tw_admissibility, tw_residual
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


def tw_quantized_integrals(sol: TWSolution, problem: TWProblem):
    """Integrals of 1 - e^u and 1 - e^v, pinned to 2*pi*(N1+N2) and
    2*pi*(N1+2*N2) by the counts."""
    geom = problem.geometry
    iu = geom.quad(1.0 - np.exp(sol.u.values))
    iv = geom.quad(1.0 - np.exp(sol.v.values))
    return {"Iu": iu, "Iv": iv}


def residual_report(sol, problem):
    """Sup and L2 norms of the discrete residuals of the governing system."""
    geom = problem.geometry
    if isinstance(problem, TWProblem):
        r1, r2 = tw_residual(sol, problem)
    elif isinstance(problem, VAVProblem):
        r1, r2 = vav_residual(sol, problem)
    else:
        raise TypeError(f"unsupported problem type {type(problem)!r}")
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


def flux_report_tw(sol: TWSolution, problem: TWProblem):
    """Chern numbers from the curvature integrals, against the counts."""
    geom = problem.geometry
    fhat, ftilde = curvatures_tw(sol)
    N1, _, N2, _ = problem.config.counts()
    c1 = geom.quad(fhat.values - ftilde.values) / TWO_PI
    c2 = geom.quad(ftilde.values) / TWO_PI
    return {
        "chern1": _entry(c1, float(N1)),
        "chern2": _entry(c2, float(N2)),
    }


def flux_report_vav(sol: VAVSolution, problem: VAVProblem):
    """Fluxes of a vortex/anti-vortex solution against the count differences."""
    geom = problem.geometry
    fhat, ftilde = curvatures_vav(sol)
    N1, P1, N2, P2 = problem.config.counts()
    c1 = geom.quad(fhat.values - ftilde.values) / TWO_PI
    c2 = geom.quad(ftilde.values) / TWO_PI
    total = geom.quad(fhat.values) / TWO_PI
    return {
        "chern1": _entry(c1, float(N1 - P1)),
        "chern2": _entry(c2, float(N2 - P2)),
        "total": _entry(total, float(N1 - P1 + N2 - P2)),
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
        return {
            "model": self.model,
            "status": self.status,
            "inputs": self.inputs,
            "admissibility": self.admissibility,
            "solver_trace": self.solver_trace,
            "quantized_integrals": self.quantized_integrals,
            "fluxes": self.fluxes,
            "energy": self.energy,
            "timings": self.timings,
        }


def report_tw(sol: TWSolution, problem: TWProblem, inputs, wall_seconds) -> SolveReport:
    N1, _, N2, _ = problem.config.counts()
    qi = tw_quantized_integrals(sol, problem)
    return SolveReport(
        model="tw",
        status="solved",
        inputs=inputs,
        admissibility=tw_admissibility(problem.config, problem.geometry).report,
        solver_trace={
            "method": sol.method,
            "iterations": sol.iterations,
            "converged": True,
            "final_gradient_norm": sol.final_gradient_norm,
            "functional_value": sol.functional_value,
            "residuals": residual_report(sol, problem),
            "history": sol.trace,
        },
        quantized_integrals={
            "Iu": _entry(qi["Iu"], TWO_PI * (N1 + N2)),
            "Iv": _entry(qi["Iv"], TWO_PI * (N1 + 2 * N2)),
        },
        fluxes=flux_report_tw(sol, problem),
        energy={"value": energy_tw(problem.config)},
        timings={"wall_seconds": wall_seconds},
    )


def report_vav(sol: VAVSolution, problem: VAVProblem, inputs, wall_seconds) -> SolveReport:
    N1, P1, N2, P2 = problem.config.counts()
    qi = vav_quantized_integrals(sol, problem)
    energy = energy_vav(problem.config)
    return SolveReport(
        model="vav",
        status="solved",
        inputs=inputs,
        admissibility=vav_admissibility(problem.config, problem.geometry).report,
        solver_trace={
            "method": sol.method,
            "iterations": sol.iterations,
            "converged": True,
            "final_residual": sol.final_residual,
            "shifts": {"c1": sol.c1, "c2": sol.c2},
            "residuals": residual_report(sol, problem),
            "history": sol.trace,
        },
        quantized_integrals={
            "Iu": _entry(qi["Iu"], math.pi * (N1 - P1 + N2 - P2)),
            "Iv": _entry(qi["Iv"], math.pi * (N1 - P1 + 2 * (N2 - P2))),
        },
        fluxes=flux_report_vav(sol, problem),
        energy={
            "value": energy.total,
            "chern_flux": energy.chern_flux,
            "thom_q": energy.thom_q,
            "thom_p": energy.thom_p,
        },
        timings={"wall_seconds": wall_seconds},
    )
