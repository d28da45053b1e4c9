"""Solver for the vortex/anti-vortex system (model tag "vav").

With backgrounds subtracted for all four source sets, the smooth remainders
(U, V) satisfy

    Lap(U) =  8 f(u01, u02, U) - 4 f(v01, v02, V) + 4*pi*(N1 - P1)/|S|,
    Lap(V) = -4 f(u01, u02, U) + 4 f(v01, v02, V) + 4*pi*(N2 - P2)/|S|,

where f(s1, s2, t) = (e^{s1+t} - e^{s2})/(e^{s1+t} + e^{s2}), evaluated in
the algebraically identical overflow-proof form tanh((s1 - s2 + t)/2).
Solutions exist iff |a| < 1 and |b| < 1 for the normalized count differences
a, b (the range (-2, 2) of `phi`); integrating pins the integrals of f to a|S|, b|S|.

Two methods are provided. The default is damped Newton on the full fields
(means included; the nonlinearity fixes them), with a line search on the
convex functional J whose Euler-Lagrange equations these are; J is coercive
exactly when |a|, |b| < 1. The coupling matrix ((8, -4), (-4, 4)) is twice
that of the "tw" model, so Newton runs in tw's variables f = U, h = U + 2V,
on I = 8J, which has the form that `_linalg` solves for both models: its
Hessian is -Lap + [[w1 + w2, -w2], [-w2, w2]] with w1 = 4(1 - F1^2),
w2 = 1 - F2^2 and F = tanh(s/2) at s = u, v (see `_Work.point`). Newton
is affine covariant: in exact arithmetic its iterates are those of Newton
on J in (U, V), but for the line search's near-minimum slack, which is
relative to I.

The alternative iterates the constrained fixed-point map T in (U, V): the
means are carried by explicit shifts c1, c2 chosen so the integral
constraints hold at every iterate, and the mean-zero parts are updated
through inverse Laplacians. Damped Picard on T
is not guaranteed to converge; stagnation is detected and reported. Each
iteration solves for two shifts: c2 at the current iterate, and c1 after
the U update, which the next iteration reuses. Each shift root find is a
safeguarded Newton iteration started from that shift's value at the
previous iterate, so it takes two or three grid-wide tanh evaluations.

The fixed-point loop transforms only for its two inverse Laplacians, one
real transform pair each. It carries Lap(U) and Lap(V) through the damped
update, l <- (l + rhs - mean rhs)/2, which is exact since
Lap(inv_lap_projected(r)) = r - mean r mode by mode, and reads its residual
from them; an error in a carried l halves every iteration, so rounding
cannot build up. One lap_pair starts the carry. Convergence is
decided only on the residual of the governing system at the fields
returned, from a true lap_pair; when that misses tol, the loop goes on from
the true Laplacians.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import newton_point, newton_solve, pcg_pair
from .errors import (
    BracketFailure,
    ConfigurationError,
    Inadmissible,
    MaxIterExceeded,
    Stagnation,
)
from .kernels import df_half, f_half
from .sources import (
    FOUR_PI,
    Admissibility,
    BackgroundSet,
    VortexConfiguration,
    build_backgrounds,
    mollifier_width,
)
from .surface import (
    ScalarField,
    TorusGeometry,
    _same_geometry,
    check_solver_settings,
    start_pair,
)

_SHIFT_TOL = 1e-12
# the residual accepted once the bracket has collapsed
_SHIFT_ACCEPT = 1e-9
# The rounding of quad(tanh(...)) - target, relative to the area: quad sums
# n1*n2 values below 1 in magnitude times h1*h2, and on a 64^2 grid of area
# 1e8 that difference was seen to round at up to 0.7*eps*area.
_QUAD_ROUNDING = 4.0 * np.finfo(float).eps
_SHIFT_BRACKET = 700.0
# caps the shift loop; bisection alone narrows (-700, 700) below 1e-12 in 51 steps
_SHIFT_STEPS = 100


def f_fun(s1, s2, t):
    """(e^{s1+t} - e^{s2})/(e^{s1+t} + e^{s2}) as tanh((s1 - s2 + t)/2).

    Saturates to +-1 at infinite arguments and stays strictly inside
    (-1, 1) for finite ones. Accepts scalars or arrays.
    """
    return f_half(s1 - s2 + t)


def f_fun_t(s1, s2, t):
    """Derivative of f_fun in t, (1 - f^2)/2; valued in (0, 1/2]."""
    return df_half(s1 - s2 + t)


def vav_admissibility(config: VortexConfiguration, geom: TorusGeometry) -> Admissibility:
    """The difference bounds: constants (a, b), margins and the report.

    a = -pi*(N1 - P1 + N2 - P2)/|S| and b = -pi*(N1 - P1 + 2(N2 - P2))/|S|;
    a solution exists iff the margins 1 - |a| and 1 - |b| are positive.
    """
    N1, P1, N2, P2 = config.counts()
    a = -np.pi * (N1 - P1 + N2 - P2) / geom.area
    b = -np.pi * (N1 - P1 + 2 * (N2 - P2)) / geom.area
    margin_a = 1.0 - abs(a)
    margin_b = 1.0 - abs(b)
    satisfied = abs(a) < 1.0 and abs(b) < 1.0
    report = {"satisfied": satisfied, "a": a, "b": b, "margin_a": margin_a, "margin_b": margin_b}
    if not satisfied:
        report["violated"] = [
            name
            for name, c in (("difference bound (total)", a), ("difference bound (weighted)", b))
            if abs(c) >= 1.0
        ]
    return Admissibility((a, b), (margin_a, margin_b), satisfied, report)


def check_admissibility(config: VortexConfiguration, geom: TorusGeometry):
    """Existence check; returns (a, b) or raises Inadmissible with margins."""
    adm = vav_admissibility(config, geom)
    if not adm.satisfied:
        raise Inadmissible(*adm.margins)
    return adm.constants


@dataclass(frozen=True)
class VAVProblem:
    """Geometry, sources, the four backgrounds, and the constants a, b."""

    geometry: TorusGeometry
    config: VortexConfiguration
    backgrounds: BackgroundSet
    a: float
    b: float
    sigma: float


def vav_problem(
    geom: TorusGeometry, config: VortexConfiguration, kappa=2.0
) -> VAVProblem:
    """Build a VAVProblem; the mollifier width is kappa grid cells."""
    a, b = check_admissibility(config, geom)
    sigma = mollifier_width(geom, kappa)
    return VAVProblem(
        geometry=geom,
        config=config,
        backgrounds=build_backgrounds(geom, config, sigma),
        a=a,
        b=b,
        sigma=sigma,
    )


def _shift(base, target, geom, guess=0.0):
    """Unique c with g(c) = quad(tanh((base + c)/2)) - target = 0.

    g is increasing in c. Safeguarded Newton (rtsafe, Press et al.,
    Numerical Recipes, 3rd ed., sec. 9.4) from `guess` clamped to
    [-700, 700]: each step takes g and g' = quad((1 - t^2)/2) from one tanh
    evaluation t, and every evaluated point tightens the sign bracket, which
    starts at (-700, 700). A Newton step that would leave the bracket, or
    g' <= 0, is replaced by bisection. Returns once |g| <= 1e-12, or with
    |g| <= 1e-9 once the bracket has collapsed. Both tolerances are scaled
    up by the rounding estimate 4*eps*area of g where that exceeds 1e-12,
    which is on tori of area above about 1100. BracketFailure signals
    saturated or inadmissible data.
    """
    scale = max(1.0, _QUAD_ROUNDING * geom.area / _SHIFT_TOL)
    lo, hi = -_SHIFT_BRACKET, _SHIFT_BRACKET
    c = min(max(guess, lo), hi)
    for _ in range(_SHIFT_STEPS):
        t = f_half(base + c)
        g_c = geom.quad(t) - target
        if abs(g_c) <= _SHIFT_TOL * scale:
            return c
        if g_c > 0.0:
            hi = c
        else:
            lo = c
        dg = geom.quad(0.5 * (1.0 - t * t))
        # lo is outside the open bracket, so g' <= 0 falls through to bisection
        c_new = c - g_c / dg if dg > 0.0 else lo
        if not lo < c_new < hi:
            c_new = 0.5 * (lo + hi)
            if not lo < c_new < hi:  # no float left inside: the bracket has collapsed
                break
        c = c_new
    if abs(g_c) <= _SHIFT_ACCEPT * scale:
        return c
    lo, hi = -_SHIFT_BRACKET, _SHIFT_BRACKET
    g_lo = geom.quad(f_half(base + lo)) - target
    g_hi = geom.quad(f_half(base + hi)) - target
    if g_lo > 0.0 or g_hi < 0.0:
        raise BracketFailure(
            f"integral does not cross target within |c| <= {hi:g} "
            f"(g({lo:g}) = {g_lo:.3e}, g({hi:g}) = {g_hi:.3e})"
        )
    raise BracketFailure(f"shift residual stalled at {g_c:.3e}")


def constraint_shift(
    W: ScalarField, s1: ScalarField, s2: ScalarField, target, geom: TorusGeometry
) -> float:
    """The unique c with integrate(f_fun(s1, s2, W + c)) = target."""
    _same_geometry(W, s1, s2)
    return _shift(s1.values - s2.values + W.values, float(target), geom)


class _Work:
    """Precomputed arrays and array-level operations for one problem."""

    def __init__(self, problem: VAVProblem):
        self.geom = problem.geometry
        bg = problem.backgrounds
        self.du = bg.u01.values - bg.u02.values
        self.dv = bg.v01.values - bg.v02.values
        self.a = problem.a
        self.b = problem.b
        N1, P1, N2, P2 = problem.config.counts()
        self.c1 = FOUR_PI * (N1 - P1) / self.geom.area
        self.c2 = FOUR_PI * (N2 - P2) / self.geom.area

    def f_pair(self, U, V):
        return f_half(self.du + U), f_half(self.dv + V)

    def residual(self, l1, l2, fu, fv):
        """The governing equations' residuals from Lap(U), Lap(V) and f."""
        r1 = l1 - (8.0 * fu - 4.0 * fv + self.c1)
        r2 = l2 - (-4.0 * fu + 4.0 * fv + self.c2)
        return r1, r2

    def rhs_shifted(self, fu, fv):
        """Right-hand sides of the constrained map; zero-mean by the shifts."""
        r1 = 8.0 * (fu - self.a) - 4.0 * (fv - self.b)
        r2 = -4.0 * (fu - self.a) + 4.0 * (fv - self.b)
        return r1, r2

    # hooks of the Newton driver (_linalg.newton_solve), in f = U, h = U + 2V
    sup_label = "residual sup"

    def point(self, f, h):
        """I at (f, h), the residual's sup and integrated defect, no clamps,
        the trace record and the state (f, h, F1, F2, g1, g2). I is 8*J for
        the convex J whose Euler-Lagrange equations the system is: the bulk
        is 8*int(2 log cosh(s1/2) + 2 log cosh(s2/2)), s1 = u and s2 = v,
        with 2 log cosh(s/2) = |s| - 2 log1p(|F|), F = tanh(s/2), which
        cannot overflow. The residuals are r1 = -g1 and r2 = (g1 - g2)/2."""
        geom = self.geom
        s1 = self.du + f
        s2 = self.dv + 0.5 * (h - f)
        F1, F2 = f_half(s1), f_half(s2)
        bulk = 8.0 * geom.quad(
            np.abs(s1) - 2.0 * np.log1p(np.abs(F1)) + np.abs(s2) - 2.0 * np.log1p(np.abs(F2))
        )
        i_val, g1, g2 = newton_point(
            geom, f, h, bulk, 8.0 * F1, 4.0 * F2, self.c1, self.c1 + 2.0 * self.c2
        )
        r_sup = max(float(np.abs(g1).max()), float(np.abs(0.5 * (g1 - g2)).max()))
        m_abs = max(
            abs(geom.quad(F1) - self.a * geom.area),
            abs(geom.quad(F2) - self.b * geom.area),
        )
        record = {"resid_sup": r_sup, "J": i_val / 8.0}
        return i_val, r_sup, m_abs, 0, record, (f, h, F1, F2, g1, g2)

    def weights(self, state):
        """The Hessian's weights w1 = 4(1 - F1^2) and w2 = 1 - F2^2."""
        _, _, F1, F2, _, _ = state
        return 4.0 * (1.0 - F1 * F1), 1.0 - F2 * F2

    def polish(self, state):
        """Fold the exact constraint shifts into the means, solving for the
        mean-free fields U and V: so the shifts lie in _shift's bracket, +-700."""
        f, h = state[:2]
        U = f - f.mean()
        V = 0.5 * (h - f)
        V -= V.mean()
        U += _shift(self.du + U, self.a * self.geom.area, self.geom)
        V += _shift(self.dv + V, self.b * self.geom.area, self.geom)
        return U, U + 2.0 * V


def apply_T(U: ScalarField, V: ScalarField, problem: VAVProblem):
    """One application of the constrained fixed-point map.

    Computes the shifts c1, c2 restoring the integral constraints, forms the
    (zero-mean) shifted right-hand sides, and returns their inverse-Laplacian
    images as mean-zero fields.
    """
    _same_geometry(U, V, problem.backgrounds.u01)
    work = _Work(problem)
    geom = problem.geometry
    u = work.du + U.values
    v = work.dv + V.values
    fu = f_half(u + _shift(u, problem.a * geom.area, geom))
    fv = f_half(v + _shift(v, problem.b * geom.area, geom))
    t1, t2 = geom.inv_lap_pair_projected(*work.rhs_shifted(fu, fv))
    return geom.field(t1), geom.field(t2)


@dataclass
class VAVSolution:
    """Converged fields and the solve record.

    The shifts are folded into U and V; c1, c2 record their final values in
    fixed-point mode (zero when Newton absorbs the means). u and v are the
    full log-fields u01 - u02 + U and v01 - v02 + V.
    """

    U: ScalarField
    V: ScalarField
    u: ScalarField
    v: ScalarField
    c1: float
    c2: float
    iterations: int
    final_residual: float
    trace: list
    method: str


def _package(problem, work, U, V, c1, c2, it, r_sup, trace, method):
    geom = problem.geometry
    return VAVSolution(
        U=geom.field(U),
        V=geom.field(V),
        u=geom.field(work.du + U),
        v=geom.field(work.dv + V),
        c1=c1,
        c2=c2,
        iterations=it,
        final_residual=r_sup,
        trace=trace,
        method=method,
    )


def _solve_fixed_point(problem, work, tol, max_iter, x0):
    geom = work.geom
    Up, Vp = start_pair(geom, x0)
    Up -= Up.mean()
    Vp -= Vp.mean()
    trace = []
    it = 0
    # each shift starts from its value at the previous iterate
    c1 = _shift(work.du + Up, problem.a * geom.area, geom)
    fu = f_half(work.du + Up + c1)
    c2 = 0.0
    # Lap(Up) and Lap(Vp), carried through the damped updates below
    l1, l2 = geom.lap_pair(Up, Vp)
    while True:
        c2 = _shift(work.dv + Vp, problem.b * geom.area, geom, c2)
        fv = f_half(work.dv + Vp + c2)
        rhs1, rhs2 = work.rhs_shifted(fu, fv)
        r_sup = max(
            float(np.abs(l1 - rhs1).max()), float(np.abs(l2 - rhs2).max())
        )
        if r_sup < tol:
            # Convergence is decided on the governing system's residual at
            # the fields returned, from true Laplacians; on a miss the
            # iteration goes on from those.
            U, V = Up + c1, Vp + c2
            r1, r2 = work.residual(*geom.lap_pair(U, V), *work.f_pair(U, V))
            r_sup = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
            if r_sup >= tol:
                l1, l2 = geom.lap_pair(Up, Vp)
        trace.append({"iter": it, "resid_sup": r_sup, "c1": c1, "c2": c2})
        if r_sup < tol:
            return _package(
                problem, work, U, V, c1, c2, it, r_sup, trace, "fixed_point"
            )
        if it >= 50 and r_sup > (1.0 - 1e-3) * trace[it - 50]["resid_sup"]:
            raise Stagnation(
                f"fixed-point residual stuck near {r_sup:.3e} after {it} "
                "iterations; the damped iteration is not contracting here",
                trace,
            )
        if it >= max_iter:
            raise MaxIterExceeded(
                f"no convergence in {max_iter} iterations "
                f"(residual sup {r_sup:.3e}, tol {tol:.1e})",
                trace,
            )
        # Update damped by 1/2, componentwise: the second component sees the
        # first component's fresh value. The simultaneous variant loses
        # contraction at noticeably smaller areas. Lap(inv_lap_projected(r))
        # is r - mean(r), so each carried Laplacian takes the same step.
        t1 = geom.inv_lap_projected(rhs1)
        Up = 0.5 * (Up + t1)
        l1 = 0.5 * (l1 + (rhs1 - rhs1.mean()))
        c1 = _shift(work.du + Up, problem.a * geom.area, geom, c1)
        fu = f_half(work.du + Up + c1)
        rhs2_new = -4.0 * (fu - work.a) + 4.0 * (fv - work.b)
        t2 = geom.inv_lap_projected(rhs2_new)
        Vp = 0.5 * (Vp + t2)
        l2 = 0.5 * (l2 + (rhs2_new - rhs2_new.mean()))
        it += 1


def solve_vav(
    problem: VAVProblem,
    *,
    tol=1e-8,
    max_iter=None,
    method="newton",
    x0=None,
) -> VAVSolution:
    """Solve the vortex/anti-vortex system.

    method="newton" (default): damped Newton over the full fields from the
    polish of the start `x0` = (U, V) (zeros by default), in the variables
    (U, U + 2V), with the inner system solved by preconditioned CG and a
    line search on the convex functional 8J. method="fixed_point": Picard
    on the constrained map damped
    by 1/2, x <- (x + T(x))/2, applied componentwise (each update sees the
    fresh values of the components before it); raises Stagnation if the
    residual stops decreasing (reduction below 1e-3 over 50 iterations). The
    map is not a contraction on large tori, so stagnation is an expected
    outcome there. Both methods return a residual sup below `tol`.
    """
    if method not in ("newton", "fixed_point"):
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    work = _Work(problem)
    if method == "newton":
        max_iter = 50 if max_iter is None else max_iter
        U, V, it, r_sup, _, trace = newton_solve(
            work, *start_pair(work.geom, x0), tol, max_iter, pcg_pair
        )
        return _package(problem, work, U, V, 0.0, 0.0, it, r_sup, trace, "newton")
    return _solve_fixed_point(problem, work, tol, 2000 if max_iter is None else max_iter, x0)


# s of the quantized integrals quad(phi(u))/s and quad(phi(v))/s
PHI_SCALE = 2.0


def phi(x):
    """-2 tanh(x/2) = 2(1 - e^x)/(1 + e^x), valued in (-2, 2): the range
    that gives the two difference bounds."""
    return -2.0 * f_half(x)


def vav_quantized_integrals(sol: VAVSolution, problem: VAVProblem):
    """Integrals of -tanh(u/2) and -tanh(v/2), pinned to pi*(N1 - P1 + N2 - P2)
    and pi*(N1 - P1 + 2*(N2 - P2)) by the counts."""
    quad = problem.geometry.quad
    return {
        "Iu": quad(phi(sol.u.values)) / PHI_SCALE,
        "Iv": quad(phi(sol.v.values)) / PHI_SCALE,
    }
