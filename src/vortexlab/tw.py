"""Solver for the two-species multiple-vortex system (model tag "tw").

After subtracting the singular backgrounds, the governing equations for the
smooth remainders (U, V) are

    Lap(U) =  4(e^{u01+U} - 1) - 2(e^{v01+V} - 1) + 4*pi*N1/|S|,
    Lap(V) = -2(e^{u01+U} - 1) + 2(e^{v01+V} - 1) + 4*pi*N2/|S|.

The change of variables f = U, h = U + 2V decouples the Laplacians and
turns the system into the Euler-Lagrange equations of the strictly convex
functional

    I(f, h) = 1/2 int |grad f|^2 + 1/2 int |grad h|^2
              + 4 int (e^u - f + e^v - (h - f)/2) + cf int f + ch int h,

cf = 4*pi*N1/|S| and ch = 4*pi*(N1 + 2*N2)/|S|, whose Hessian is -Lap plus
[[w1 + w2, -w2], [-w2, w2]] with w1 = 4e^u and w2 = e^v. So the damped
Newton iteration of `_linalg`, which both models share, converges globally
and the minimizer is unique. Existence requires the area bound
N1 + 2*N2 < |S|/(2*pi), the range (-inf, 1) of the reports' kernel `phi`;
`tw_admissibility` tests it and gives the constants a1, a2 it forces.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import newton_point, newton_solve, pcg_pair
from .errors import BradlowViolation, ConfigurationError
from .kernels import EXP_CAP, clipped_exp
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


def _log_quad(geom, x):
    """log quad(e^x) as m + log quad(e^(x - m)), m = max(x): finite where
    e^x underflows or overflows on the whole grid."""
    m = x.max()
    return m + np.log(geom.quad(np.exp(x - m)))


class _Work:
    """Precomputed arrays and the hooks of the Newton driver
    (`_linalg.newton_solve`) for one problem."""

    sup_label = "grad sup"

    def __init__(self, problem: TWProblem):
        self.geom = problem.geometry
        self.u01 = problem.u01.values
        self.v01 = problem.v01.values
        self.a = (problem.a1, problem.a2)
        N1, _, N2, _ = problem.config.counts()
        self.cf = FOUR_PI * N1 / self.geom.area
        self.ch = FOUR_PI * (N1 + 2 * N2) / self.geom.area

    def point(self, f, h):
        """I at (f, h), the gradient's sup and integrated defect, the clamp
        count, the trace record and the state (f, h, e1, e2, g1, g2). The
        bulk is 4*int(e1 - f + e2 - (h - f)/2), e1 = e^u and e2 = e^v."""
        geom = self.geom
        with np.errstate(invalid="ignore"):
            e1, c1 = clipped_exp(self.u01 + f)
            e2, c2 = clipped_exp(self.v01 + 0.5 * (h - f))
            bulk = 4.0 * geom.quad(e1 - f + e2 - 0.5 * (h - f))
            i_val, g1, g2 = newton_point(
                geom, f, h, bulk, 4.0 * (e1 - 1.0), 2.0 * (e2 - 1.0), self.cf, self.ch
            )
        g_sup = max(float(np.abs(g1).max()), float(np.abs(g2).max()))
        m_abs = max(abs(geom.quad(g1)), abs(geom.quad(g2)))
        record = {"I": i_val, "grad_sup": g_sup}
        return i_val, g_sup, m_abs, c1 + c2, record, (f, h, e1, e2, g1, g2)

    def weights(self, state):
        """The Hessian's weights w1 = 4*e1 and w2 = e2."""
        _, _, e1, e2, _, _ = state
        return 4.0 * e1, e2

    def polish(self, state):
        """Fold the exact constraint shifts into the means: f += s1 and
        h += s1 + 2*s2 scale e1 by e^s1 and e2 by e^s2, so s1 = log(a1/quad(e1))
        and s2 = log(a2/quad(e2)) zero both integrated gradients. Where an
        integral is 0 or not finite, as when e^u or e^v underflows on the
        whole grid, both shifts are taken in log form, log(a) - _log_quad."""
        f, h, e1, e2, _, _ = state
        quads = (self.geom.quad(e1), self.geom.quad(e2))
        if all(0.0 < q < np.inf for q in quads):
            s1, s2 = np.log(np.divide(self.a, quads))
        else:
            s1 = np.log(self.a[0]) - _log_quad(self.geom, self.u01 + f)
            s2 = np.log(self.a[1]) - _log_quad(self.geom, self.v01 + 0.5 * (h - f))
        return f + s1, h + (s1 + 2.0 * s2)


# s of the quantized integrals quad(phi(u))/s and quad(phi(v))/s
PHI_SCALE = 1.0


def phi(x):
    """1 - e^x, valued in (-inf, 1): the Bradlow bound's range."""
    return 1.0 - np.exp(x)


def tw_quantized_integrals(sol, problem: TWProblem):
    """Integrals of 1 - e^u and 1 - e^v, pinned to 2*pi*(N1+N2) and
    2*pi*(N1+2*N2) by the counts."""
    quad = problem.geometry.quad
    return {
        "Iu": quad(phi(sol.u.values)) / PHI_SCALE,
        "Iv": quad(phi(sol.v.values)) / PHI_SCALE,
    }


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
    method: str


def _warned_point(f, h, problem):
    """The driver's point at (f, h); clamped exponent arguments are flagged
    with a RuntimeWarning at the public caller's caller."""
    _same_geometry(f, h, problem.u01)
    point = _Work(problem).point(f.values, h.values)
    if point[3]:
        warnings.warn(
            f"{point[3]} exponent argument(s) clamped at {EXP_CAP:g}; iterate diverging",
            RuntimeWarning,
            stacklevel=3,
        )
    return point


def functional_value(f: ScalarField, h: ScalarField, problem: TWProblem) -> float:
    """The convex objective whose critical points solve the system.

    Exponent arguments above 500 are clamped and flagged with a
    RuntimeWarning: a clamp means the iterate is diverging.
    """
    return _warned_point(f, h, problem)[0]


def functional_gradient(f: ScalarField, h: ScalarField, problem: TWProblem):
    """L2-gradient of the objective; its zeros solve the transformed system."""
    *_, g1, g2 = _warned_point(f, h, problem)[5]
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
    gradients at rounding level. `x0` may hold a start (U, V), as a solution
    holds it; Newton runs from its polish, so its means cost no iterations.
    """
    if method != "newton":
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    geom = problem.geometry
    work = _Work(problem)
    U, V, it, g_sup, i_val, trace = newton_solve(
        work, *start_pair(geom, x0), tol, max_iter, pcg_pair
    )
    return TWSolution(
        U=geom.field(U),
        V=geom.field(V),
        u=geom.field(work.u01 + U),
        v=geom.field(work.v01 + V),
        iterations=it,
        final_gradient_norm=g_sup,
        functional_value=i_val,
        trace=trace,
        method=method,
    )
