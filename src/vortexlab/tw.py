"""Solver for the two-species multiple-vortex system (model tag "tw").

After subtracting the singular backgrounds, the governing equations for the
smooth remainders (U, V) are

    Lap(U) =  4(e^{u01+U} - 1) - 2(e^{v01+V} - 1) + 4*pi*N1/|S|,
    Lap(V) = -2(e^{u01+U} - 1) + 2(e^{v01+V} - 1) + 4*pi*N2/|S|.

The change of variables f = U, h = U + 2V decouples the Laplacians and
turns the system into the Euler-Lagrange equations of a strictly convex
functional, so a damped Newton iteration with a spectral preconditioner
converges globally and the minimizer is unique. Existence requires the area
bound N1 + 2*N2 < |S|/(2*pi); `tw_admissibility` tests it and gives the two
constants a1, a2 that the integrated equations force.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import ARMIJO_C, newton_solve, pcg_pair
from .errors import BradlowViolation, ConfigurationError, DivergedIterate
from .kernels import clipped_exp
from .sources import (
    FOUR_PI,
    TWO_PI,
    Admissibility,
    VortexConfiguration,
    background,
    mollifier_width,
)
from .surface import (
    ScalarField,
    TorusGeometry,
    _same_geometry,
    check_solver_settings,
    start_pair,
)

def tw_admissibility(config: VortexConfiguration, geom: TorusGeometry) -> Admissibility:
    """The Bradlow bound: constants (a1, a2), margins (a1, a2) and the report.

    a1 = |S| - 2*pi*(N1 + N2) and a2 = |S| - 2*pi*(N1 + 2*N2) are the values
    the integrals of e^u and e^v must take; the bound is exactly a2 > 0.
    Poles raise ConfigurationError: the model admits zeros only.
    """
    if config.P1 != 0 or config.P2 != 0:
        raise ConfigurationError("tw model admits zeros only; pole lists must be empty")
    N1, _, N2, _ = config.counts()
    a1 = geom.area - TWO_PI * (N1 + N2)
    a2 = geom.area - TWO_PI * (N1 + 2 * N2)
    satisfied = a2 > 0.0
    report = {"satisfied": satisfied, "a1": a1, "a2": a2}
    if not satisfied:
        report.update(violated="Bradlow bound", margin=a2)
    return Admissibility((a1, a2), (a1, a2), satisfied, report)


def check_bradlow(config: VortexConfiguration, geom: TorusGeometry):
    """Area-bound check; returns (a1, a2) or raises BradlowViolation."""
    adm = tw_admissibility(config, geom)
    if not adm.satisfied:
        raise BradlowViolation(adm.margins[1])
    return adm.constants


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


class _Work:
    """Precomputed arrays and array-level operations for one problem."""

    def __init__(self, problem: TWProblem):
        self.geom = problem.geometry
        self.u01 = problem.u01.values
        self.v01 = problem.v01.values
        N1, _, N2, _ = problem.config.counts()
        self.cf = FOUR_PI * N1 / self.geom.area
        self.ch = FOUR_PI * (N1 + 2 * N2) / self.geom.area
        self.clip_events = 0

    def exps(self, f, h):
        e1, c1 = clipped_exp(self.u01 + f)
        e2, c2 = clipped_exp(self.v01 + 0.5 * (h - f))
        return e1, e2, c1 + c2

    def functional(self, f, h, e1, e2):
        geom = self.geom
        bulk = geom.quad(e1 - f + e2 - 0.5 * (h - f))
        return (
            0.5 * (geom.grad_sq(f) + geom.grad_sq(h))
            + 4.0 * bulk
            + self.cf * geom.quad(f)
            + self.ch * geom.quad(h)
        )

    def gradient(self, f, h, e1, e2):
        lf, lh = self.geom.lap_pair(f, h)
        g1 = -lf + 4.0 * (e1 - 1.0) - 2.0 * (e2 - 1.0) + self.cf
        g2 = -lh + 2.0 * (e2 - 1.0) + self.ch
        return g1, g2

    def hessian_apply(self, e1, e2):
        def apply_op(d1, d2):
            l1, l2 = self.geom.lap_pair(d1, d2)
            mix = e2 * (d1 - d2)
            return -l1 + 4.0 * e1 * d1 + mix, -l2 - mix

        return apply_op

    def precondition(self, r1, r2):
        return self.geom.helmholtz_pair(r1, r2, 1.0)

    # hooks of the Newton driver (_linalg.newton_solve)
    sup_label = "grad sup"

    def evaluate(self, f, h, trace):
        e1, e2, n_clip = self.exps(f, h)
        if n_clip:
            self.clip_events += 1
            if self.clip_events >= 2:
                raise DivergedIterate(
                    "overflow guard tripped twice; iterates diverging", trace
                )
        g1, g2 = self.gradient(f, h, e1, e2)
        g_sup = max(float(np.abs(g1).max()), float(np.abs(g2).max()))
        i_val = self.functional(f, h, e1, e2)
        m_abs = max(abs(self.geom.quad(g1)), abs(self.geom.quad(g2)))
        return g_sup, i_val, m_abs, {"I": i_val, "grad_sup": g_sup}, (f, h, e1, e2, g1, g2)

    def polish(self, state):
        """Newton step on the two field means; drives the integrated
        gradients to rounding level so the count-quantized integrals hold
        exactly."""
        f, h, e1, e2, g1, g2 = state
        quad = self.geom.quad
        q1 = quad(4.0 * e1 + e2)
        q2 = quad(e2)
        jac = np.array([[q1, -q2], [-q2, q2]])
        delta = np.linalg.solve(jac, -np.array([quad(g1), quad(g2)]))
        return f + delta[0], h + delta[1]

    def direction(self, state, i_val, eta):
        """Newton direction, or the preconditioned gradient when the Newton
        direction is not a descent one; Armijo bound on the functional."""
        _, _, e1, e2, g1, g2 = state
        quad = self.geom.quad
        d1, d2, _ = pcg_pair(
            self.hessian_apply(e1, e2), self.precondition, -g1, -g2, rtol=eta
        )
        slope = quad(g1 * d1 + g2 * d2)
        kind = "newton"
        if slope >= 0.0:
            d1, d2 = self.precondition(-g1, -g2)
            slope = quad(g1 * d1 + g2 * d2)
            kind = "gradient"
        return d1, d2, kind, lambda t: i_val + ARMIJO_C * t * slope

    def merit(self, f, h):
        e1, e2, _ = self.exps(f, h)
        return self.functional(f, h, e1, e2)


def tw_residual(sol, problem: TWProblem):
    """Residuals (r1, r2) of the governing equations at the solution's (U, V)."""
    geom = problem.geometry
    U = sol.U.values
    V = sol.V.values
    e1 = np.exp(problem.u01.values + U)
    e2 = np.exp(problem.v01.values + V)
    l1, l2 = geom.lap_pair(U, V)
    N1, _, N2, _ = problem.config.counts()
    r1 = l1 - (4.0 * (e1 - 1.0) - 2.0 * (e2 - 1.0) + FOUR_PI * N1 / geom.area)
    r2 = l2 - (-2.0 * (e1 - 1.0) + 2.0 * (e2 - 1.0) + FOUR_PI * N2 / geom.area)
    return r1, r2


@dataclass
class TWSolution:
    """Converged fields and the solve record.

    U, V are the smooth remainders; u = u01 + U and v = v01 + V are the full
    log-fields. The trace holds one entry per accepted iterate with the
    functional value and the sup-norm of the gradient.
    """

    U: ScalarField
    V: ScalarField
    u: ScalarField
    v: ScalarField
    iterations: int
    final_gradient_norm: float
    functional_value: float
    trace: list
    clip_events: int
    method: str


def _warned_exps(f, h, problem):
    """_Work and exponentials at (f, h); clamped exponent arguments are
    flagged with a RuntimeWarning at the public caller's caller."""
    _same_geometry(f, h, problem.u01)
    work = _Work(problem)
    e1, e2, n_clip = work.exps(f.values, h.values)
    if n_clip:
        warnings.warn(
            f"{n_clip} exponent argument(s) clamped at 500; iterate diverging",
            RuntimeWarning,
            stacklevel=3,
        )
    return work, e1, e2


def functional_value(f: ScalarField, h: ScalarField, problem: TWProblem) -> float:
    """The convex objective whose critical points solve the system.

    Exponent arguments above 500 are clamped and flagged with a
    RuntimeWarning: a clamp means the iterate is diverging.
    """
    work, e1, e2 = _warned_exps(f, h, problem)
    return work.functional(f.values, h.values, e1, e2)


def functional_gradient(f: ScalarField, h: ScalarField, problem: TWProblem):
    """L2-gradient of the objective; its zeros solve the transformed system."""
    work, e1, e2 = _warned_exps(f, h, problem)
    g1, g2 = work.gradient(f.values, h.values, e1, e2)
    geom = problem.geometry
    return geom.field(g1), geom.field(g2)


def solve_tw(
    problem: TWProblem,
    *,
    tol=1e-8,
    max_iter=50,
    method="newton",
    x0=None,
) -> TWSolution:
    """Minimize the convex objective; returns the unique solution fields.

    method="newton" is the only method: damped Newton with preconditioned-CG
    inner solves and Armijo backtracking (`_linalg.newton_solve`), falling
    back to the preconditioned gradient direction, logged as kind "gradient",
    when the Newton direction is not a descent one.
    Convergence is sup-norm of the gradient below `tol` with the integrated
    gradients at rounding level. `x0` may hold a pair of start arrays (used
    by the uniqueness check).
    """
    if method != "newton":
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    geom = problem.geometry
    work = _Work(problem)
    f, h, it, g_sup, i_val, trace = newton_solve(work, *start_pair(geom, x0), tol, max_iter)
    return TWSolution(
        U=geom.field(f),
        V=geom.field(0.5 * (h - f)),
        u=geom.field(work.u01 + f),
        v=geom.field(work.v01 + 0.5 * (h - f)),
        iterations=it,
        final_gradient_norm=g_sup,
        functional_value=i_val,
        trace=trace,
        clip_events=work.clip_events,
        method=method,
    )
