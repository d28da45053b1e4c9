"""Solver for the vortex/anti-vortex system (model tag "vav").

With backgrounds subtracted for all four source sets, the smooth remainders
(U, V) satisfy

    Lap(U) =  8 f(u01, u02, U) - 4 f(v01, v02, V) + 4*pi*(N1 - P1)/|S|,
    Lap(V) = -4 f(u01, u02, U) + 4 f(v01, v02, V) + 4*pi*(N2 - P2)/|S|,

where f(s1, s2, t) = (e^{s1+t} - e^{s2})/(e^{s1+t} + e^{s2}), evaluated in
the algebraically identical overflow-proof form tanh((s1 - s2 + t)/2).
Solutions exist iff |a| < 1 and |b| < 1 for the normalized count differences
a, b; integrating the equations pins the integrals of f to a|S| and b|S|.

Two methods are provided. The default is damped Newton on the full fields
(means included; the nonlinearity fixes them). The alternative iterates the
constrained fixed-point map T: the means are carried by explicit shifts
c1, c2 chosen so the integral constraints hold at every iterate, and the
mean-zero parts are updated through inverse Laplacians. Damped Picard on T
is not guaranteed to converge; stagnation is detected and reported. Each
iteration solves for two shifts: c2 at the current iterate, and c1 after
the U update, which the next iteration reuses. Each shift root find starts
from that shift's value at the previous iterate. Newton from there brackets
the root tightly, and the reference bisection on [-700, 700] is replayed,
evaluating only the midpoints inside the bracket. So each shift is the same
float that the bisection alone returns. Where no bracket is found, every
midpoint is evaluated.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import ARMIJO_C, newton_solve, pcg_pair
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
_SHIFT_BRACKET = 700.0
# |g| at the ends of a warm-start bracket must exceed this, well above
# _SHIFT_TOL and the rounding of the quadrature, so that every point outside
# the bracket has a known sign and cannot meet the early-return test.
_SHIFT_MARGIN = 1e-10
_SHIFT_NEWTON_STEPS = 12
# Inverse of the coupling matrix [[8, -4], [-4, 4]]; used to symmetrize the
# Newton systems and to build the preconditioner.
_AINV = ((0.25, 0.25), (0.25, 0.5))


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

    g is increasing in c. The returned c is the result of one fixed
    procedure: from c = 0, 30 bisection halvings of [-700, 700], stopping
    early once |g| <= 1e-12, then Newton polishing kept inside the bisection
    bracket; |g| <= 1e-12 at the returned c. BracketFailure signals
    saturated or inadmissible data.

    `guess` (the fixed-point solver passes the previous iterate's c) makes
    that procedure cheap without changing its result by a bit. Newton from
    the guess estimates the root, and g is evaluated on either side of the
    estimate; when the two values have opposite signs by more than
    _SHIFT_MARGIN, they bracket the root in (L, H). The bisection is then
    replayed: a midpoint outside (L, H) takes its sign from the bracket,
    because g is nondecreasing, and only a midpoint inside it is evaluated.
    When Newton leaves |c| < 700, meets g' <= 0 or the bracket check fails,
    every midpoint is evaluated, after checking that g(-700) <= 0 <= g(700).
    """
    known = {}

    def g(c):
        if c not in known:
            known[c] = geom.quad(f_half(base + c)) - target
        return known[c]

    lo, hi = -_SHIFT_BRACKET, _SHIFT_BRACKET
    L, H = _newton_bracket(base, target, geom, guess, known)
    if not (lo < L and H < hi and g(L) < -_SHIFT_MARGIN and g(H) > _SHIFT_MARGIN):
        g_lo = g(lo)
        g_hi = g(hi)
        if g_lo > 0.0 or g_hi < 0.0:
            raise BracketFailure(
                f"integral does not cross target within |c| <= {hi:g} "
                f"(g({lo:g}) = {g_lo:.3e}, g({hi:g}) = {g_hi:.3e})"
            )
        L, H = lo, hi
    c = 0.0
    for _ in range(30):
        if c <= L:
            lo = c
        elif c >= H:
            hi = c
        else:
            g_c = g(c)
            if abs(g_c) <= _SHIFT_TOL:
                return c
            if g_c > 0.0:
                hi = c
            else:
                lo = c
        c = 0.5 * (lo + hi)
    g_c = g(c)
    for _ in range(60):
        if abs(g_c) <= _SHIFT_TOL:
            return c
        if g_c > 0.0:
            hi = c
        else:
            lo = c
        dg = geom.quad(df_half(base + c))
        c_new = c - g_c / dg if dg > 0.0 else 0.5 * (lo + hi)
        if not (lo < c_new < hi):
            c_new = 0.5 * (lo + hi)
        c = c_new
        g_c = g(c)
    if abs(g_c) <= 1e-9:
        return c
    raise BracketFailure(f"shift residual stalled at {g_c:.3e}")


def _newton_bracket(base, target, geom, c, known):
    """A candidate root bracket (L, H) from Newton started at c.

    Each step takes g and g' = quad((1 - t^2)/2) from one tanh evaluation
    t and stores g(c) in `known`. Once a step is below 1e-5 the next iterate
    lies within step**2/2 of the root, since |g''| <= g'; the bracket is
    centred there, with g' * half-width >= 10 * _SHIFT_MARGIN. Returns
    (-700, 700), which the caller treats as no bracket, if Newton meets
    g' <= 0, leaves |c| < 700 or does not settle in _SHIFT_NEWTON_STEPS.
    """
    for _ in range(_SHIFT_NEWTON_STEPS):
        t = f_half(base + c)
        known[c] = g_c = geom.quad(t) - target
        dg = geom.quad(0.5 * (1.0 - t * t))
        if not dg > 0.0:
            break
        step = g_c / dg
        c -= step
        if not abs(c) < _SHIFT_BRACKET:
            break
        if abs(step) <= 1e-5:
            half = max(1e-9, 10.0 * _SHIFT_MARGIN / dg)
            return c - half, c + half
    return -_SHIFT_BRACKET, _SHIFT_BRACKET


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

    def residual(self, U, V, fu, fv):
        l1, l2 = self.geom.lap_pair(U, V)
        r1 = l1 - (8.0 * fu - 4.0 * fv + self.c1)
        r2 = l2 - (-4.0 * fu + 4.0 * fv + self.c2)
        return r1, r2

    def rhs_shifted(self, fu, fv):
        """Right-hand sides of the constrained map; zero-mean by the shifts."""
        r1 = 8.0 * (fu - self.a) - 4.0 * (fv - self.b)
        r2 = -4.0 * (fu - self.a) + 4.0 * (fv - self.b)
        return r1, r2

    def jacobian_apply(self, d1_diag, d2_diag):
        (i11, i12), (i21, i22) = _AINV

        def apply_op(p1, p2):
            l1, l2 = self.geom.lap_pair(p1, p2)
            return (
                -(i11 * l1 + i12 * l2) + d1_diag * p1,
                -(i21 * l1 + i22 * l2) + d2_diag * p2,
            )

        return apply_op

    def precondition(self, r1, r2):
        p1 = 8.0 * r1 - 4.0 * r2
        p2 = -4.0 * r1 + 4.0 * r2
        return self.geom.helmholtz_pair(p1, p2, 0.25)

    # hooks of the Newton driver (_linalg.newton_solve); the merit is phi
    sup_label = "residual sup"

    def evaluate(self, U, V, trace):
        geom = self.geom
        fu, fv = self.f_pair(U, V)
        r1, r2 = self.residual(U, V, fu, fv)
        r_sup = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
        phi = geom.quad(r1 * r1 + r2 * r2)
        m_abs = max(
            abs(geom.quad(fu) - self.a * geom.area),
            abs(geom.quad(fv) - self.b * geom.area),
        )
        return r_sup, phi, m_abs, {"resid_sup": r_sup, "phi": phi}, (U, V, r1, r2)

    def polish(self, state):
        """Fold the exact constraint shifts into the means."""
        U, V, _, _ = state
        U = U + _shift(self.du + U, self.a * self.geom.area, self.geom)
        V = V + _shift(self.dv + V, self.b * self.geom.area, self.geom)
        return U, V

    def direction(self, state, phi, eta):
        """Newton direction of the symmetrized system; Armijo bound on phi."""
        U, V, r1, r2 = state
        d1_diag = df_half(self.du + U)
        d2_diag = df_half(self.dv + V)
        (i11, i12), (i21, i22) = _AINV
        b1 = i11 * r1 + i12 * r2
        b2 = i21 * r1 + i22 * r2
        dU, dV, _ = pcg_pair(
            self.jacobian_apply(d1_diag, d2_diag), self.precondition, b1, b2, rtol=eta
        )
        return dU, dV, "newton", lambda t: (1.0 - 2.0 * ARMIJO_C * t) * phi

    def merit(self, U, V):
        fu, fv = self.f_pair(U, V)
        r1, r2 = self.residual(U, V, fu, fv)
        return self.geom.quad(r1 * r1 + r2 * r2)


def vav_residual(sol, problem: VAVProblem):
    """Residuals (r1, r2) of the governing equations at the solution's (U, V)."""
    work = _Work(problem)
    fu, fv = work.f_pair(sol.U.values, sol.V.values)
    return work.residual(sol.U.values, sol.V.values, fu, fv)


def apply_T(U: ScalarField, V: ScalarField, problem: VAVProblem):
    """One application of the constrained fixed-point map.

    Computes the shifts c1, c2 restoring the integral constraints, forms the
    (zero-mean) shifted right-hand sides, and returns their inverse-Laplacian
    images as mean-zero fields.
    """
    _same_geometry(U, V, problem.backgrounds.u01)
    work = _Work(problem)
    t1, t2, _, _ = _apply_T_arrays(work, U.values, V.values, problem)
    geom = problem.geometry
    return geom.field(t1), geom.field(t2)


def _apply_T_arrays(work, U, V, problem):
    geom = work.geom
    c1 = _shift(work.du + U, problem.a * geom.area, geom)
    c2 = _shift(work.dv + V, problem.b * geom.area, geom)
    fu = f_half(work.du + U + c1)
    fv = f_half(work.dv + V + c2)
    r1, r2 = work.rhs_shifted(fu, fv)
    t1, t2 = geom.inv_lap_pair_projected(r1, r2)
    return t1, t2, c1, c2


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


def _solve_newton(problem, work, tol, max_iter, x0):
    U, V, it, r_sup, _, trace = newton_solve(work, *start_pair(work.geom, x0), tol, max_iter)
    return _package(problem, work, U, V, 0.0, 0.0, it, r_sup, trace, "newton")


def _solve_fixed_point(problem, work, tol, max_iter, omega, x0):
    geom = work.geom
    Up, Vp = start_pair(geom, x0)
    Up -= Up.mean()
    Vp -= Vp.mean()
    trace = []
    history = []
    it = 0
    # each shift starts from its value at the previous iterate
    c1 = _shift(work.du + Up, problem.a * geom.area, geom)
    fu = f_half(work.du + Up + c1)
    c2 = 0.0
    while True:
        c2 = _shift(work.dv + Vp, problem.b * geom.area, geom, c2)
        fv = f_half(work.dv + Vp + c2)
        rhs1, rhs2 = work.rhs_shifted(fu, fv)
        l1, l2 = geom.lap_pair(Up, Vp)
        r_sup = max(
            float(np.abs(l1 - rhs1).max()), float(np.abs(l2 - rhs2).max())
        )
        history.append(r_sup)
        trace.append({"iter": it, "resid_sup": r_sup, "c1": c1, "c2": c2})
        if r_sup < tol:
            return _package(
                problem, work, Up + c1, Vp + c2, c1, c2, it, r_sup, trace,
                "fixed_point",
            )
        if it >= 50 and r_sup > (1.0 - 1e-3) * history[it - 50]:
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
        # Damped update applied componentwise: the second component sees the
        # first component's fresh value. The simultaneous variant loses
        # contraction at noticeably smaller areas.
        t1 = geom.inv_lap_projected(rhs1)
        Up = (1.0 - omega) * Up + omega * t1
        c1 = _shift(work.du + Up, problem.a * geom.area, geom, c1)
        fu = f_half(work.du + Up + c1)
        rhs2_new = -4.0 * (fu - work.a) + 4.0 * (fv - work.b)
        t2 = geom.inv_lap_projected(rhs2_new)
        Vp = (1.0 - omega) * Vp + omega * t2
        it += 1


def solve_vav(
    problem: VAVProblem,
    *,
    tol=1e-8,
    max_iter=None,
    method="newton",
    omega=0.5,
    x0=None,
) -> VAVSolution:
    """Solve the vortex/anti-vortex system.

    method="newton" (default): damped Newton over the full fields with the
    symmetrized inner system solved by preconditioned CG and a line search
    on the squared residual norm. method="fixed_point": damped Picard on the
    constrained map applied componentwise (each component's update sees the
    fresh values of the ones before it), relaxation factor `omega`; raises
    Stagnation if the residual stops decreasing (reduction below 1e-3 over
    50 iterations). The map is not a contraction on large tori, so stagnation
    is an expected reportable outcome there, not a bug.
    Both methods return sup-norm residual of the governing system below `tol`.
    """
    check_solver_settings(tol, max_iter)
    work = _Work(problem)
    if method == "newton":
        return _solve_newton(problem, work, tol, 50 if max_iter is None else max_iter, x0)
    if method == "fixed_point":
        return _solve_fixed_point(
            problem, work, tol, 2000 if max_iter is None else max_iter, omega, x0
        )
    raise ConfigurationError(f"unknown method {method!r}")


def vav_quantized_integrals(sol: VAVSolution, problem: VAVProblem):
    """The two count-quantized integrals of the solved fields.

    Iu = integral of (1 - e^u)/(1 + e^u) = pi*(N1 - P1 + N2 - P2) and
    Iv analogously with pi*(N1 - P1 + 2*(N2 - P2)); both evaluated in the
    tanh form and pinned by the counts alone.
    """
    geom = problem.geometry
    iu = -geom.quad(f_half(sol.u.values))
    iv = -geom.quad(f_half(sol.v.values))
    return {"Iu": iu, "Iv": iv}
