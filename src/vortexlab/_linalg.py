"""Preconditioned conjugate gradients and the two solve drivers, damped
Newton and the constrained fixed point, on pairs of grid arrays.

Both models are solved as the minimisation of one convex functional of a
pair (f, h), with u = b1 + f and v = b2 + (h - f)/2 over the model's
backgrounds,

    I(f, h) = 1/2 int |grad f|^2 + 1/2 int |grad h|^2
              + 4 int Phi(u) + 4 int Phi(v) + alpha int f + beta int h,

where Phi' = -phi for the model's kernel phi. Its Hessian is
-Lap + [[w1 + w2, -w2], [-w2, w2]] with w = (-4 phi'(u), -phi'(v)). The
drivers' hooks are written here once, from the kernel a model supplies
(`NewtonWork`), and so is the Newton system: the operator acts on the
pair's packed spectrum (see `surface`), where -Lap is mode by mode and the
weights need one transform pair, and CG is preconditioned with its exact
inverse at the weights' grid means (Concus & Golub, SIAM J. Numer. Anal.
10, 1973), which is pointwise there (`newton_operator`). Newton,
`newton_solve`, takes the start and returns the solution as
(U, V) = (f, (h - f)/2); the fixed point, `fixed_point_solve`, iterates on
the curvature-form system in (U, V) itself, for a model whose work gives
`shift_kernel`. That system is written once, as `NewtonWork`'s `curvatures`,
`rhs` and `residual`; the reports read it, and Newton takes I's gradient,
-(r1, r1 + 2*r2), from its residual r. Everything here works on raw arrays,
but a solve of either model returns `Solution`, built by `NewtonWork.solution`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import surface
from .errors import BracketFailure, DivergedIterate, MaxIterExceeded, Stagnation
from .sources import forced
from .surface import ScalarField, bounded_means, pack_pair, unpack_pair

# Sufficient-decrease constant of the backtracking line search.
ARMIJO_C = 1e-4
# Largest CG step length. With an SPD preconditioner that approximates the
# operator's inverse, the step is 1/(a Rayleigh quotient of the
# preconditioned operator); past 1/eps that quotient is rounding noise.
_MAX_STEP = 1.0 / np.finfo(np.float64).eps
# A CG solve that reaches this many iterations returns its last iterate.
_CG_MAX_ITER = 500


def _dot(A, B):
    # N times the pair inner product, by Parseval; N cancels in every
    # ratio CG forms. Re vdot(A, B) is the real dot product of the
    # interleaved float views, summed here by einsum's own loop and not by
    # BLAS: np.vdot hands a sum this long to a BLAS thread pool, which from
    # 128^2 up wakes a second thread for every call between single-threaded
    # transforms and rounds the sum differently for each thread count.
    a = A.reshape(-1).view(np.float64)
    b = B.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", a, b))


def pcg_pair(apply_op, apply_prec, b1, b2, rtol):
    """Solve op(x) = b for a two-component field with preconditioned CG.

    The iteration runs on packed spectra P = fft2(p1 + i*p2): `apply_op`
    maps one packed array to another and must be symmetric positive
    definite; `apply_prec` is an SPD approximation of its inverse. Both must
    return a new array: R is updated in place after P = apply_prec(R), and
    the operator's Q = apply_op(P) is scaled in place into R's update. b1, b2
    are grid arrays; returns (x1, x2) and the iteration count. Besides the
    operator's own transforms, the solve makes two FFT2s (pack b, unpack x).
    With `newton_operator`, a call peaks at about 12 real grid arrays above
    what it is handed (12.07 at 64^2), in a preconditioner apply: R, X and P,
    the gathered -k modes, alpha*P, and numpy's complex copy of the real
    alpha (a cast buffer of at most 8192 values, the whole array at 64^2).
    """
    R = pack_pair(b1, b2)
    X = np.zeros_like(R)
    norm0 = np.sqrt(_dot(R, R))
    if norm0 == 0.0:
        return np.zeros_like(b1), np.zeros_like(b2), 0
    P = apply_prec(R)
    rz = _dot(R, P)
    # Q and Z are deleted once used, so that they are not still alive, next
    # to their successors, through the next operator or preconditioner apply.
    for it in range(1, _CG_MAX_ITER + 1):
        Q = apply_op(P)
        pq = _dot(P, Q)
        alpha = rz / pq if pq > 0.0 else 0.0
        if not 0.0 < alpha <= _MAX_STEP:
            # breakdown: positive definiteness lost to rounding, or no
            # curvature above rounding along P (a degenerate operator, or
            # rz/pq overflows or is NaN); return the best iterate
            break
        Q *= alpha
        R -= Q
        del Q
        norm = np.sqrt(_dot(R, R))
        if not np.isfinite(norm):  # breakdown: X is the last iterate of finite residual
            break
        X += alpha * P
        if norm <= rtol * norm0:
            break
        Z = apply_prec(R)
        rz_new = _dot(R, Z)
        P *= rz_new / rz
        P += Z
        del Z
        rz = rz_new
    return (*unpack_pair(X), it)


# The Newton driver's state at one pair (f, h) (see `NewtonWork.point`).
Point = namedtuple("Point", "I sup defect n_clip t1 t2 g1 g2")


@dataclass
class Solution:
    """A converged solve of either model: the smooth remainders (U, V), the
    full log-fields u = b1 + U and v = b2 + V over the model's backgrounds,
    and the solve's record. The trace holds one entry per accepted iterate
    with its residual sup. Each model's record adds only its own fields."""

    U: ScalarField
    V: ScalarField
    u: ScalarField
    v: ScalarField
    iterations: int
    final_residual: float
    trace: list
    method: str


class NewtonWork:
    """The hooks of both drivers for one problem with backgrounds (b1, b2),
    from the kernel of the model that subclasses it: `kernel(x)`, its grid
    values t at x and their clamp count; `phi(t)`, as a new array;
    `weight(t)` = -phi'(x); `bulk(x, t)` = Phi(x); `shift(x, target)`,
    the c whose kernel values at x + c integrate to target, and for the fixed
    point `shift_kernel(x, target, guess)`, that c from `guess` with the
    kernel values at x + c; `methods`; and `scale`, the s of the quantized
    integrals. `k` and `targets` are the k and t of what the counts force
    (`sources.forced`); alpha = k1 and beta = 2*p2/|S| = k1 + 2*k2 are I's
    linear coefficients. Newton reads a pair only by `point`, after `polish`."""

    def __init__(self, problem, b1, b2):
        geom = self.geom = problem.geometry
        self.b1, self.b2 = b1, b2
        _, (_, p2), self.k, self.targets = forced(problem.config, geom.area, self)
        self.beta = 2.0 * p2 / geom.area

    def point(self, f, h):
        """The `Point` at (f, h): I, the sup of the curvature-form residual r
        at (U, V), the larger defect |quad(t) - target| that the shifts test
        (|quad(phi) - p|/s, as phi = phi0 - s*t), the clamp count, the kernel
        values t1, t2 at u and v, and I's gradient g = -(r1, r1 + 2*r2), from
        `rhs` and Lap(f, h). Two FFT2s: one packs (f, h) for the Dirichlet
        energies and the Laplacians, one unpacks the Laplacians."""
        geom = self.geom
        with np.errstate(invalid="ignore"):
            x = self.b1 + f
            t1, n_clip = self.kernel(x)
            bulk = geom.quad(self.bulk(x, t1))
            x = h - f
            x *= 0.5
            x += self.b2
            t2, n = self.kernel(x)
            bulk += geom.quad(self.bulk(x, t2))
            del x  # the fields go before the gradient's arrays are made
            defect = max(abs(geom.quad(t) - target) for t, target in zip((t1, t2), self.targets))
            Z = pack_pair(f, h)
            i_val = 0.5 * geom.grad_sq_packed(Z) + 4.0 * bulk
            i_val += self.k[0] * geom.quad(f) + self.beta * geom.quad(h)
            lf, lh = unpack_pair(geom.lap_packed(Z))
            g1, g2 = self.rhs(t1, t2)
            g2 *= 2.0
            g2 += g1
            g2 -= lh
            g1 -= lf
        r_sup = max(float(np.abs(g1).max()), 0.5 * float(np.abs(g1 - g2).max()))
        return Point(i_val, r_sup, defect, n_clip + n, t1, t2, g1, g2)

    def weights(self, point):
        """The Hessian's weights w1 = -4 phi'(u) and w2 = -phi'(v) at a `Point`."""
        return 4.0 * self.weight(point.t1), self.weight(point.t2)

    def polish(self, f, h):
        """I's minimiser over the constant modes: f + c1 and h + c1 + 2*c2,
        with the model's shifts c1 for U = f and c2 for V = (h - f)/2, which
        bring quad(phi(u)) and quad(phi(v)) to their pinned values."""
        c1 = self.shift(self.b1 + f, self.targets[0])
        c2 = self.shift(self.b2 + 0.5 * (h - f), self.targets[1])
        return f + c1, h + (c1 + 2.0 * c2)

    @classmethod
    def curvatures(cls, t1, t2):
        """The curvatures (Fhat, Ftilde) = (phi(u), phi(v) - phi(u)) from the
        kernel's values t1 at u and t2 at v, as new arrays; a class method,
        since a solution's curvatures need no problem."""
        fhat, ftilde = cls.phi(t1), cls.phi(t2)
        ftilde -= fhat
        return fhat, ftilde

    def rhs(self, t1, t2):
        """The right-hand sides 2(Ftilde - Fhat) + k1 and k2 - 2 Ftilde of the
        curvature-form system, from `curvatures`. In place, because numpy
        reuses no temporary below 256 KB (a 128^2 grid array is 128 KB) and
        the `vav` fixed point takes these once per iteration."""
        fhat, ftilde = self.curvatures(t1, t2)
        rhs1 = np.subtract(ftilde, fhat, out=fhat)
        rhs1 *= 2.0
        rhs1 += self.k[0]
        ftilde *= -2.0
        ftilde += self.k[1]
        return rhs1, ftilde

    def residual(self, U, V, t1, t2):
        """The residual Lap(U, V) - `rhs`(t1, t2) of the curvature-form
        system at (U, V), whose kernel values at u and v are t1 and t2."""
        laps = self.geom.lap_pair(U, V)
        return tuple(np.subtract(l, r, out=l) for l, r in zip(laps, self.rhs(t1, t2)))

    def solution(self, cls, U, V, iterations, final_residual, trace, method, **own):
        """The record `cls`, a `Solution`, of the remainders (U, V) with
        u = b1 + U and v = b2 + V; `own` holds the model's own fields."""
        field = self.geom.field
        fields = field(U), field(V), field(self.b1 + U), field(self.b2 + V)
        return cls(*fields, iterations, final_residual, trace, method, **own)


def newton_operator(geom, w1, w2):
    """I's Hessian -Lap + [[w1 + w2, -w2], [-w2, w2]] on packed spectra, and
    CG's preconditioner for it: the exact inverse (|k|^2 + M)^-1 of the
    operator with the weights replaced by their bounded grid means. The
    operator applies -Lap mode by mode and the weights on the grid."""

    def apply_op(D):
        # The pointwise part (w1*d1 + mix, -mix), mix = w2*(d1 - d2), is
        # written over d = ifft2(D), and Lap D over d once fft2 has read it:
        # the same operations in the same order as on new arrays, so the same
        # bits. mix goes before the transform, where the apply peaks.
        d = surface.ifft2(D)
        d1, d2 = d.real, d.imag
        mix = d1 - d2
        mix *= w2
        np.multiply(w1, d1, out=d1)
        d1 += mix
        np.negative(mix, out=d2)
        del mix
        Q = surface.fft2(d)
        Q -= geom.lap_packed(D, out=d)
        return Q

    m1, m2 = bounded_means(w1, w2)
    return apply_op, geom.elliptic_inverse_packed(((m1 + m2, -m2), (-m2, m2)))


def _check_budget(it, max_iter, sup, tol, trace, defect=None, floor=None):
    """The exit both drivers share: MaxIterExceeded once `it` reaches max_iter,
    naming Newton's defect and its floor when only they held the solve back."""
    if it >= max_iter:
        held = f"residual sup {sup:.3e}, tol {tol:.1e}"
        if sup < tol:
            held = f"integral defect {defect:.3e} above its floor {floor:.3e}; {held}"
        raise MaxIterExceeded(f"no convergence in {max_iter} iterations ({held})", trace)


def newton_solve(work, U, V, tol, max_iter, pcg):
    """Damped inexact Newton on I, by the hooks on `work` (a `NewtonWork`),
    from the polish of the start (U, V) in the variables
    (x1, x2) = (f, h) = (U, U + 2V).

    Each iterate's `Point` gives its trace record {iter, I, resid_sup, step,
    kind}; the polished start, "init", is no iteration. The Newton direction
    d solves the `newton_operator` system with right-hand side -g by `pcg`,
    with relative tolerance min(0.1, max(sup, 0.5*tol/sup)), 0.1 at sup 0
    (Dembo, Eisenstat & Steihaug, 1982; a floor at 0.5*tol/sup stops the last
    solve near tol, Kelley, 1995, sec. 6.3). A slope quad(g.d) that is
    not a finite negative number gives way to the preconditioned gradient,
    kind "gradient". Each trial y is the polish of x + t*d, t = 1, 1/2, ...,
    so every iterate meets its pinned integrals (Cai & Keyes, SIAM J. Sci.
    Comput. 24, 2002); a trial whose polish raises BracketFailure is refused,
    and the first whose I is at most I(x) + ARMIJO_C*t*slope is the next
    iterate as it stands (Nocedal & Wright, Numerical Optimization, 2006,
    ch. 3). Converged means a sup below tol and a defect |quad(t) - target|
    at most `geom.quad_floor`. Every point is polished, so no exponent
    argument of a tw iterate nears the clamp. DivergedIterate is raised
    before the iterate's trace record at a non-finite I or sup of an
    iterate, the polished start included, not of a refused trial; and when
    the line search finds no descent. It returns
    (U, V, iterations, sup, I, trace), V = (h - f)/2. The models pass
    `pcg_pair`, and call the kernels, by their names on the model modules,
    where a traced run wraps them.
    """
    floor = work.geom.quad_floor
    trace = []
    it = 0
    step = 0.0
    kind = "init"
    x1, x2 = work.polish(U, U + 2.0 * V)
    point = work.point(x1, x2)
    while True:
        merit, sup = point.I, point.sup
        if not np.isfinite(merit) or not np.isfinite(sup):
            raise DivergedIterate("non-finite iterate", trace)
        trace.append({"iter": it, "I": merit, "resid_sup": sup, "step": step, "kind": kind})
        if sup < tol and point.defect <= floor:
            return x1, 0.5 * (x2 - x1), it, sup, merit, trace
        _check_budget(it, max_iter, sup, tol, trace, point.defect, floor)
        it += 1
        g1, g2 = point.g1, point.g2
        w1, w2 = work.weights(point)
        del point  # the kernel values are not held through CG
        apply_op, prec = newton_operator(work.geom, w1, w2)
        eta = min(0.1, max(sup, 0.5 * tol / sup)) if sup > 0.0 else 0.1
        d1, d2, _ = pcg(apply_op, prec, -g1, -g2, rtol=eta)
        del apply_op, w1, w2
        slope = work.geom.quad(g1 * d1 + g2 * d2)
        kind = "newton"
        if not -np.inf < slope < 0.0:
            d1, d2 = unpack_pair(prec(pack_pair(-g1, -g2)))
            slope = work.geom.quad(g1 * d1 + g2 * d2)
            kind = "gradient"
        del g1, g2, prec  # not held through the trials
        # Near the minimum the predicted decrease falls below the merit's
        # rounding, and every trial step would be refused on noise: allow an
        # eps*|merit| rise there (Hager & Zhang, SIAM J. Optim. 16, 2005).
        slack = 1e-12 * (1.0 + abs(merit)) if -slope < 1e-9 * (1.0 + abs(merit)) else 0.0
        t = 1.0
        for _ in range(40):
            try:
                y1, y2 = work.polish(x1 + t * d1, x2 + t * d2)
            except BracketFailure:
                t *= 0.5
                continue
            point = work.point(y1, y2)
            if point.I <= merit + ARMIJO_C * t * slope + slack:
                break
            # a refused trial's arrays go before the next trial's are made
            del point, y1, y2
            t *= 0.5
        else:
            raise DivergedIterate("line search failed to find descent", trace)
        x1, x2 = y1, y2
        step = t


def fixed_point_solve(work, U, V, tol, max_iter):
    """The constrained fixed point in (U, V) by the hooks on `work`, on the
    start (U, V) in place. The means are carried by the shifts c1, c2
    (`shift_kernel`), which hold the integral constraints at every iterate,
    and the mean-free parts take one coupled frozen mean-coefficient step:
    with r = rhs - Lap the residual of both equations, d solves
    (Lap - J) d = r - mean(r) mode by mode (`solve_pair_projected`), where
    J = ((4w1, -2w2), (-2w1, 2w2)) is the Jacobian of the right-hand sides
    with the weights W = -phi' frozen at their grid means w, the idea of
    `newton_operator`'s preconditioner. The fields move by omega d, omega =
    <r, a>/<a, a> the minimal-residual length (Saad, Iterative Methods for
    Sparse Linear Systems, 2nd ed., 2003, sec. 5.3.2) for
    a = (r - mean(r)) - (J(x) - J) d, J(x) the pointwise Jacobian, or 1 where
    that is no finite positive number. Each iteration takes both shifts at
    the iterate, c1 and then c2, each from its first-order prediction (0 at
    the start), and reads the kernel values they hand back. One lap_pair
    starts Lap(U) and Lap(V), which are carried as
    l <- rhs - (1 - omega) r - omega mean(r) + J omega d, exact since
    (Lap - J) d = r - mean(r); an error in a carried l stays as it is.
    Convergence is decided on `work.residual` at the fields returned, the
    reports' residual, and on a miss the loop goes on from true Laplacians. Not
    proved to converge: Stagnation when the residual falls by less than 1e-3
    over 50 iterations. Returns (U + c1, V + c2, it, sup, (c1, c2), trace).
    The kernel and the shift are reached only through the hooks, which call
    them by their names on the model module, where a traced run wraps them.
    """
    geom = work.geom
    (target1, target2), shift = work.targets, work.shift_kernel
    U -= U.mean()
    V -= V.mean()
    trace = []
    it = 0
    omega = 0.0  # the step length that led to the iterate
    c1 = c2 = 0.0
    # Lap(U) and Lap(V), carried; the residuals rhs - l are written over
    # them, which keeps two grid arrays fewer alive
    l1, l2 = geom.lap_pair(U, V)
    while True:
        c1, t1 = shift(work.b1 + U, target1, c1)
        c2, t2 = shift(work.b2 + V, target2, c2)
        rhs1, rhs2 = work.rhs(t1, t2)
        r1, r2 = np.subtract(rhs1, l1, out=l1), np.subtract(rhs2, l2, out=l2)
        r_sup = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
        if r_sup < tol:
            fields = U + c1, V + c2
            t = (work.kernel(b + x)[0] for b, x in zip((work.b1, work.b2), fields))
            r_sup = max(float(np.abs(r).max()) for r in work.residual(*fields, *t))
            if r_sup >= tol:
                l1, l2 = geom.lap_pair(U, V)
                r1, r2 = rhs1 - l1, rhs2 - l2
        trace.append({"iter": it, "resid_sup": r_sup, "step": omega, "c1": c1, "c2": c2})
        if r_sup < tol:
            return *fields, it, r_sup, (c1, c2), trace
        if it >= 50 and r_sup > (1.0 - 1e-3) * trace[it - 50]["resid_sup"]:
            raise Stagnation(
                f"fixed-point residual stuck near {r_sup:.3e} after {it} "
                "iterations; the iteration is not contracting here",
                trace,
            )
        _check_budget(it, max_iter, r_sup, tol, trace)
        W1, W2 = work.weight(t1), work.weight(t2)
        del t1, t2  # W takes their memory; the next shifts give them again
        w1, w2 = float(W1.mean()), float(W2.mean())
        J = ((4.0 * w1, -2.0 * w2), (-2.0 * w1, 2.0 * w2))
        d1, d2 = geom.solve_pair_projected(r1, r2, J)
        m1, m2 = r1.mean(), r2.mean()
        # a in place, from (W - w) d written over W: at 128^2 a grid temporary
        # costs about a pass of arithmetic. The sums are pairwise, whatever r's layout.
        W1 -= w1
        W1 *= d1
        W2 -= w2
        W2 *= d2
        a1 = r1 - m1
        a1 -= 4.0 * W1
        a1 += 2.0 * W2
        a2 = r2 - m2
        a2 += 2.0 * W1
        a2 -= 2.0 * W2
        ra = float((r1 * a1).sum() + (r2 * a2).sum())
        aa = float((a1 * a1).sum() + (a2 * a2).sum())
        omega = ra / aa if aa > 0.0 else 0.0
        omega = omega if 0.0 < omega < np.inf else 1.0
        d1 *= omega
        d2 *= omega
        U += d1
        V += d2
        # dt/dx is proportional to W for both kernels: the step moves quad(t)
        # by omega sum(W d) = omega sum((W - w) d), d being mean-free, and a
        # shift c by c sum(W), in the same proportion; each shift's prediction
        # takes the step's change back
        c1 -= omega * float(W1.mean()) / w1
        c2 -= omega * float(W2.mean()) / w2
        del W1, W2, a1, a2  # the shifts and the next transform, where memory peaks, need none
        l1, l2 = rhs1, rhs2
        for l, r, m, (j1, j2) in ((l1, r1, m1, J[0]), (l2, r2, m2, J[1])):
            l -= (1.0 - omega) * r
            l -= omega * m
            l += j1 * d1
            l += j2 * d2
        del d1, d2
        it += 1
