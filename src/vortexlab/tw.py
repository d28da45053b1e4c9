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

from ._linalg import pcg_pair
from .errors import (
    BradlowViolation,
    ConfigurationError,
    DivergedIterate,
    MaxIterExceeded,
)
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

# Newton-step contraction threshold used for the inner CG tolerance.
_ARMIJO_C = 1e-4
# Absolute ceiling on the integrated-gradient defect at convergence; this is
# what makes the count-quantized integrals exact to rounding.
_MEAN_TOL = 1e-12


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


def _mean_polish_step(work, geom, f, h, e1, e2, g1, g2):
    """Newton step on the two field means; drives the integrated gradients
    to rounding level so the count-quantized integrals hold exactly."""
    m1 = geom.quad(g1)
    m2 = geom.quad(g2)
    q1 = geom.quad(4.0 * e1 + e2)
    q2 = geom.quad(e2)
    jac = np.array([[q1, -q2], [-q2, q2]])
    delta = np.linalg.solve(jac, -np.array([m1, m2]))
    return f + delta[0], h + delta[1]


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
    inner solves and Armijo backtracking, falling back to the preconditioned
    gradient direction when the Newton direction is not a descent one.
    Convergence is sup-norm of the gradient below `tol` with the integrated
    gradients at rounding level. `x0` may hold a pair of start arrays (used
    by the uniqueness check).
    """
    if method != "newton":
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    geom = problem.geometry
    work = _Work(problem)
    f, h = start_pair(geom, x0)

    trace = []
    clip_events = 0
    it = 0
    step = 0.0
    kind = "init"
    while True:
        e1, e2, n_clip = work.exps(f, h)
        if n_clip:
            clip_events += 1
            if clip_events >= 2:
                raise DivergedIterate(
                    "overflow guard tripped twice; iterates diverging", trace
                )
        g1, g2 = work.gradient(f, h, e1, e2)
        g_sup = max(float(np.abs(g1).max()), float(np.abs(g2).max()))
        i_val = work.functional(f, h, e1, e2)
        if not np.isfinite(i_val) or not np.isfinite(g_sup):
            raise DivergedIterate("non-finite iterate", trace)
        m_abs = max(abs(geom.quad(g1)), abs(geom.quad(g2)))
        trace.append(
            {"iter": it, "I": i_val, "grad_sup": g_sup, "step": step, "kind": kind}
        )
        if g_sup < tol and m_abs <= _MEAN_TOL:
            break
        if it >= max_iter:
            raise MaxIterExceeded(
                f"no convergence in {max_iter} iterations "
                f"(grad sup {g_sup:.3e}, tol {tol:.1e})",
                trace,
            )
        if g_sup < tol:
            f, h = _mean_polish_step(work, geom, f, h, e1, e2, g1, g2)
            it += 1
            step = 0.0
            kind = "polish"
            continue

        eta = min(0.1, np.sqrt(g_sup))
        d1, d2, _ = pcg_pair(
            work.hessian_apply(e1, e2),
            work.precondition,
            -g1,
            -g2,
            rtol=eta,
        )
        slope = geom.quad(g1 * d1 + g2 * d2)
        if slope >= 0.0:
            d1, d2 = work.precondition(-g1, -g2)
            slope = geom.quad(g1 * d1 + g2 * d2)

        t = 1.0
        accepted = False
        for _ in range(40):
            e1t, e2t, _ = work.exps(f + t * d1, h + t * d2)
            if work.functional(f + t * d1, h + t * d2, e1t, e2t) <= i_val + _ARMIJO_C * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise DivergedIterate("line search failed to find descent", trace)
        f = f + t * d1
        h = h + t * d2
        it += 1
        step = t
        kind = method

    u_field = geom.field(f)
    v_field = geom.field(0.5 * (h - f))
    return TWSolution(
        U=u_field,
        V=v_field,
        u=geom.field(work.u01 + f),
        v=geom.field(work.v01 + 0.5 * (h - f)),
        iterations=it,
        final_gradient_norm=g_sup,
        functional_value=i_val,
        trace=trace,
        clip_events=clip_events,
        method=method,
    )
