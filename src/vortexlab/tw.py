"""Solver for the two-species multiple-vortex system (model tag "tw").

After subtracting the singular backgrounds, the governing equations for the
smooth remainders (U, V) are

    Lap(U) =  4(e^{u01+U} - 1) - 2(e^{v01+V} - 1) + 4*pi*N1/|S|,
    Lap(V) = -2(e^{u01+U} - 1) + 2(e^{v01+V} - 1) + 4*pi*N2/|S|.

The change of variables f = U, h = U + 2V decouples the Laplacians and
turns the system into the Euler-Lagrange equations of the strictly convex
functional I of `_linalg`, for the kernel phi(x) = 1 - e^x: its bulk is
4 int (e^u - u) + 4 int (e^v - v), and its Hessian weights are w1 = 4e^u
and w2 = e^v. So the damped Newton iteration of `_linalg`, which both
models share, converges globally and the minimizer is unique. Existence
requires the area bound N1 + 2*N2 < |S|/(2*pi), the range (-inf, 1) of
`phi`; `tw_admissibility` tests it and gives the constants a1, a2 it forces.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import NewtonWork, Solution, newton_solve, pcg_pair
from .errors import BradlowViolation, ConfigurationError
from .kernels import EXP_CAP, clipped_exp
from .sources import (
    Admissibility,
    VortexConfiguration,
    background,
    forced,
    mollifier_width,
)
from .surface import (
    ScalarField,
    TorusGeometry,
    _same_geometry,
    check_solver_settings,
    start_pair,
)

_METHODS = ("newton",)


def tw_admissibility(config: VortexConfiguration, geom: TorusGeometry) -> Admissibility:
    """The Bradlow bound: constants and margins (a1, a2), the integrals of
    e^u and e^v that the counts force, and the report; the bound is a2 > 0.
    Poles raise ConfigurationError: the model admits zeros only.
    """
    if config.P1 != 0 or config.P2 != 0:
        raise ConfigurationError("tw model admits zeros only; pole lists must be empty")
    counted = forced(config, geom.area, _Work)
    a1, a2 = counted.t
    satisfied = a2 > 0.0
    report = {"satisfied": satisfied, "a1": a1, "a2": a2}
    if not satisfied:
        report.update(violated="Bradlow bound", margin=a2)
    return Admissibility((a1, a2), (a1, a2), satisfied, report, counted)


def check_bradlow(config: VortexConfiguration, geom: TorusGeometry):
    """Area-bound check; returns (a1, a2) or raises BradlowViolation."""
    return tw_admissibility(config, geom).admitted(lambda _, a2: BradlowViolation(a2))


@dataclass(frozen=True)
class TWProblem:
    """Geometry, sources, backgrounds, and admissibility constants."""

    geometry: TorusGeometry
    config: VortexConfiguration
    u01: ScalarField
    v01: ScalarField
    a1: float
    a2: float
    sigma: float


def tw_problem(geom: TorusGeometry, config: VortexConfiguration, kappa=2.0) -> TWProblem:
    """Build a TWProblem: admissibility check plus the two backgrounds.

    The mollifier width is kappa grid cells, sigma = kappa*max(h1, h2).
    """
    a1, a2 = check_bradlow(config, geom)
    sigma = mollifier_width(geom, kappa)
    return TWProblem(
        geometry=geom,
        config=config,
        u01=background(geom, config.zeros_q, sigma),
        v01=background(geom, config.zeros_p, sigma),
        a1=a1,
        a2=a2,
        sigma=sigma,
    )


class _Work(NewtonWork):
    """The Newton driver's hooks for one problem, from the kernel's grid
    value t = e^x, clamped at EXP_CAP: phi = 1 - t, -phi' = t and
    Phi = e^x - x."""

    methods = _METHODS
    scale = 1.0  # the s of the quantized integrals quad(phi(u))/s and quad(phi(v))/s

    def __init__(self, problem: TWProblem):
        super().__init__(problem, problem.u01.values, problem.v01.values)

    @staticmethod
    def kernel(x):
        return clipped_exp(x)

    @staticmethod
    def phi(t):
        return 1.0 - t

    @staticmethod
    def weight(t):
        return t

    @staticmethod
    def bulk(x, t):
        return t - x

    def shift(self, x, target):
        """log(target/quad(e^x)) as log(target) - m - log quad(e^(x - m)),
        m = max(x), which neither overflows nor underflows (Blanchard, Higham
        & Higham, IMA J. Numer. Anal. 41, 2021); x - m <= 0 never clamps."""
        m = x.max()
        return np.log(target) - m - np.log(self.geom.quad(clipped_exp(x - m)[0]))


def tw_quantized_integrals(sol, problem: TWProblem):
    """Integrals of 1 - e^u and 1 - e^v, which the counts pin to p (`sources.forced`)."""
    from .diagnostics import quantized_integrals  # diagnostics imports this module
    return quantized_integrals(sol, problem)


@dataclass
class TWSolution(Solution):
    """A `tw` solve (`_linalg.Solution`) and I's value at its fields."""

    functional_value: float


def _warned_point(f, h, problem):
    """The driver's point at (f, h); clamped exponent arguments are flagged
    with a RuntimeWarning at the public caller's caller."""
    if not isinstance(problem, TWProblem):
        raise ConfigurationError(f"expected a TWProblem, got {type(problem).__name__}")
    _same_geometry(f, h, problem.u01)
    point = _Work(problem).point(f.values, h.values)
    if point.n_clip:
        warnings.warn(
            f"{point.n_clip} exponent argument(s) clamped at {EXP_CAP:g}; iterate diverging",
            RuntimeWarning,
            stacklevel=3,
        )
    return point


def functional_value(f: ScalarField, h: ScalarField, problem: TWProblem) -> float:
    """The convex objective whose critical points solve the system.

    Exponent arguments above 500 are clamped and flagged with a
    RuntimeWarning: a clamp means the iterate is diverging.
    """
    return _warned_point(f, h, problem).I


def functional_gradient(f: ScalarField, h: ScalarField, problem: TWProblem):
    """L2-gradient of the objective; its zeros solve the transformed system."""
    point = _warned_point(f, h, problem)
    return problem.geometry.field(point.g1), problem.geometry.field(point.g2)


def solve_tw(
    problem: TWProblem,
    *,
    tol=1e-8,
    max_iter=None,
    method="newton",
    x0=None,
) -> TWSolution:
    """Minimize the convex objective; returns the unique solution, a `TWSolution`.

    method="newton" is the only method: damped Newton with preconditioned-CG
    inner solves and Armijo backtracking (`_linalg.newton_solve`), falling
    back to the preconditioned gradient direction, logged as kind "gradient",
    when the Newton direction is not a descent one. Convergence is the sup
    of the curvature-form residual below `tol`, with the integrals of
    1 - e^u and 1 - e^v at their pinned values to MEAN_TOL. `x0` may hold a
    start (U, V), as a solution holds it; Newton runs from its polish, so
    its means cost no iterations. `max_iter` None is the default, 50.
    """
    if not isinstance(problem, TWProblem):
        raise ConfigurationError(f"expected a TWProblem, got {type(problem).__name__}")
    if method not in _METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    U, V = start_pair(problem.geometry, x0)
    work = _Work(problem)
    U, V, it, r_sup, i_val, trace = newton_solve(
        work, U, V, tol, 50 if max_iter is None else max_iter, pcg_pair
    )
    return work.solution(TWSolution, U, V, it, r_sup, trace, method, functional_value=i_val)
