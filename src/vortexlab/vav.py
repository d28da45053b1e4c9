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
on I = 8J, which is the functional of `_linalg` for the kernel
phi(x) = -2 tanh(x/2): its bulk is 4 int Phi(u) + 4 int Phi(v) with
Phi(x) = 4 log cosh(x/2), and its Hessian weights are w1 = 4(1 - F1^2) and
w2 = 1 - F2^2, F = tanh(s/2) at s = u, v. Newton is affine covariant: in
exact arithmetic its iterates are those of Newton on J in (U, V), but for
the line search's near-minimum slack, which is relative to I.

The alternative, method="fixed_point", is `_linalg.fixed_point_solve`.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import NewtonWork, Solution, fixed_point_solve, newton_solve, pcg_pair
from .errors import BracketFailure, ConfigurationError, Inadmissible
from .kernels import df_half, f_half
from .sources import (
    Admissibility,
    BackgroundSet,
    VortexConfiguration,
    build_backgrounds,
    forced,
    mollifier_width,
)
from .surface import (
    ScalarField,
    TorusGeometry,
    _real,
    _same_geometry,
    check_solver_settings,
    start_pair,
)

# the residual accepted once the bracket has collapsed, in `quad_floor`s
_SHIFT_ACCEPT = 1e3
_SHIFT_BRACKET = 700.0
# caps the shift loop; bisection alone narrows (-700, 700) below 1e-12 in 51 steps
_SHIFT_STEPS = 100
_METHODS = ("newton", "fixed_point")


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
    """The difference bounds: constants (a, b), the integrals of tanh(u/2)
    and tanh(v/2) that the counts force over |S|, margins and the report;
    a solution exists iff the margins 1 - |a| and 1 - |b| are positive.
    """
    counted = forced(config, geom.area, _Work)
    a, b = (x / geom.area for x in counted.t)
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
    return Admissibility((a, b), (margin_a, margin_b), satisfied, report, counted)


def check_admissibility(config: VortexConfiguration, geom: TorusGeometry):
    """Existence check; returns (a, b) or raises Inadmissible with margins."""
    return vav_admissibility(config, geom).admitted(Inadmissible)


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
    g' <= 0, is replaced by bisection. Returns once |g| <= geom.quad_floor,
    Newton's defect test, or <= 1000 times that once the bracket has
    collapsed. Returns (c, t) with t = tanh((base + c)/2), the last
    evaluation, so that callers need not take it again. BracketFailure
    signals saturated or inadmissible data.
    """
    floor = geom.quad_floor
    lo, hi = -_SHIFT_BRACKET, _SHIFT_BRACKET
    c = min(max(guess, lo), hi)
    for _ in range(_SHIFT_STEPS):
        t = f_half(base + c)
        g_c = geom.quad(t) - target
        if abs(g_c) <= floor:
            return c, t
        if g_c > 0.0:
            hi = c
        else:
            lo = c
        # quad((1 - t^2)/2) in one reduction, the sum of t^2 by einsum's own
        # loop and not by BLAS (see `_linalg._dot`)
        dg = 0.5 * geom.h1 * geom.h2 * (t.size - float(np.einsum("ij,ij->", t, t)))
        # lo is outside the open bracket, so g' <= 0 falls through to bisection
        c_new = c - g_c / dg if dg > 0.0 else lo
        if not lo < c_new < hi:
            c_new = 0.5 * (lo + hi)
            if not lo < c_new < hi:  # no float left inside: the bracket has collapsed
                break
        c = c_new
    else:  # c has moved past the last evaluated point: judge g where c is now
        t = f_half(base + c)
        g_c = geom.quad(t) - target
    if abs(g_c) <= _SHIFT_ACCEPT * floor:
        return c, t
    lo, hi = -_SHIFT_BRACKET, _SHIFT_BRACKET
    g_lo = geom.quad(f_half(base + lo)) - target
    g_hi = geom.quad(f_half(base + hi)) - target
    if g_lo > 0.0 or g_hi < 0.0:
        raise BracketFailure(
            f"integral does not cross target within |c| <= {hi:g} "
            f"(g({lo:g}) = {g_lo:.3e}, g({hi:g}) = {g_hi:.3e})"
        )
    raise BracketFailure(f"shift residual stalled at {g_c:.3e}")


def _mean_free_shift(x, target, geom):
    """The shift c of x and the kernel t at x + c, by `_shift` on the
    mean-free x - m from the guess m = mean(x): the root is in the bracket
    however far off m is, and an x that meets the target gets c = 0."""
    m = x.mean()
    c, t = _shift(x - m, target, geom, m)
    return c - m, t


def constraint_shift(
    W: ScalarField, s1: ScalarField, s2: ScalarField, target, geom: TorusGeometry
) -> float:
    """The unique c with integrate(f_fun(s1, s2, W + c)) = target on geom, the fields' geometry."""
    if _same_geometry(W, s1, s2) != geom:
        raise ConfigurationError("fields live on a geometry other than geom")
    return _mean_free_shift(s1.values - s2.values + W.values, _real(target, "target"), geom)[0]


class _Work(NewtonWork):
    """The drivers' hooks for one problem, from the kernel's grid value
    t = tanh(x/2): phi = -2t, -phi' = 1 - t^2,
    Phi = 4 log cosh(x/2) = 2|x| - 4 log1p(|t|), which cannot overflow, and
    `shift_kernel`, the root `_shift`."""

    methods = _METHODS
    scale = 2.0  # the s of the quantized integrals quad(phi(u))/s and quad(phi(v))/s

    def __init__(self, problem: VAVProblem):
        bg = problem.backgrounds
        super().__init__(problem, bg.u01.values - bg.u02.values, bg.v01.values - bg.v02.values)

    @staticmethod
    def kernel(x):
        return f_half(x), 0

    @staticmethod
    def phi(t):
        return -2.0 * t

    @staticmethod
    def weight(t):
        return 1.0 - t * t

    @staticmethod
    def bulk(x, t):
        return 2.0 * np.abs(x) - 4.0 * np.log1p(np.abs(t))

    def shift_kernel(self, x, target, guess):
        return _shift(x, target, self.geom, guess)

    def shift(self, x, target):
        """`_mean_free_shift`'s c: 0 at an x that meets its target."""
        return _mean_free_shift(x, target, self.geom)[0]


def apply_T(U: ScalarField, V: ScalarField, problem: VAVProblem):
    """One application of the constrained fixed-point map.

    Computes the shifts c1, c2 restoring the integral constraints, forms the
    (zero-mean) shifted right-hand sides, and returns their inverse-Laplacian
    images as mean-zero fields.
    """
    if not isinstance(problem, VAVProblem):
        raise ConfigurationError(f"expected a VAVProblem, got {type(problem).__name__}")
    _same_geometry(U, V, problem.backgrounds.u01)
    work = _Work(problem)
    geom = problem.geometry
    _, fu = _mean_free_shift(work.b1 + U.values, work.targets[0], geom)
    _, fv = _mean_free_shift(work.b2 + V.values, work.targets[1], geom)
    t1, t2 = geom.inv_lap_pair_projected(*work.rhs(fu, fv))
    return geom.field(t1), geom.field(t2)


@dataclass
class VAVSolution(Solution):
    """A `vav` solve (`_linalg.Solution`) and the shifts c1, c2 folded into U
    and V: their final values in fixed-point mode, zero when Newton absorbs
    the means."""

    c1: float
    c2: float


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
    line search, with every trial polished, on the convex functional 8J.
    method="fixed_point": the constrained iteration of
    `_linalg.fixed_point_solve`, whose trace records give each step length
    as `step`; it raises Stagnation if the residual stops decreasing
    (reduction below 1e-3 over 50 iterations).
    Both methods return a `VAVSolution` whose residual sup is below `tol`.
    """
    if not isinstance(problem, VAVProblem):
        raise ConfigurationError(f"expected a VAVProblem, got {type(problem).__name__}")
    if method not in _METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    check_solver_settings(tol, max_iter)
    U, V = start_pair(problem.geometry, x0)
    work = _Work(problem)
    if method == "newton":
        U, V, it, r_sup, _, trace = newton_solve(
            work, U, V, tol, 50 if max_iter is None else max_iter, pcg_pair
        )
        c1 = c2 = 0.0
    else:
        U, V, it, r_sup, (c1, c2), trace = fixed_point_solve(
            work, U, V, tol, 2000 if max_iter is None else max_iter
        )
    return work.solution(VAVSolution, U, V, it, r_sup, trace, method, c1=c1, c2=c2)


def vav_quantized_integrals(sol: VAVSolution, problem: VAVProblem):
    """Integrals of -tanh(u/2) and -tanh(v/2), which the counts pin to p/2
    (`sources.forced`)."""
    from .diagnostics import quantized_integrals  # diagnostics imports this module
    return quantized_integrals(sol, problem)
