"""Preconditioned conjugate gradients and the damped-Newton driver, on
pairs of grid arrays.

Both Newton solvers reduce their inner linear systems to a symmetric
positive definite operator acting on a two-component field; CG with a
spectral (inverse-Helmholtz) preconditioner is the matching iterative
solver. Both run the same outer loop, `newton_solve`, and differ only in
the model hooks it calls. Everything here works on raw arrays for speed.
"""

import numpy as np

from .errors import DivergedIterate, MaxIterExceeded

# Sufficient-decrease constant of the backtracking line search.
ARMIJO_C = 1e-4
# Absolute ceiling on the integrated defect at convergence; this is what
# makes the count-quantized integrals exact to rounding.
MEAN_TOL = 1e-12


def _dot(a1, a2, b1, b2):
    return float(np.dot(a1.ravel(), b1.ravel()) + np.dot(a2.ravel(), b2.ravel()))


def pcg_pair(apply_op, apply_prec, b1, b2, rtol, max_iter=500):
    """Solve op(x) = b for a two-component field with preconditioned CG.

    `apply_op` and `apply_prec` map array pairs to array pairs; `apply_op`
    must be symmetric positive definite and `apply_prec` an SPD
    approximation of its inverse. Returns (x1, x2, iterations).
    """
    x1 = np.zeros_like(b1)
    x2 = np.zeros_like(b2)
    r1 = b1.copy()
    r2 = b2.copy()
    norm0 = np.sqrt(_dot(r1, r2, r1, r2))
    if norm0 == 0.0:
        return x1, x2, 0
    z1, z2 = apply_prec(r1, r2)
    p1 = z1.copy()
    p2 = z2.copy()
    rz = _dot(r1, r2, z1, z2)
    for it in range(1, max_iter + 1):
        q1, q2 = apply_op(p1, p2)
        pq = _dot(p1, p2, q1, q2)
        if pq <= 0.0:
            # loss of positive definiteness to rounding; return best iterate
            return x1, x2, it
        alpha = rz / pq
        x1 += alpha * p1
        x2 += alpha * p2
        r1 -= alpha * q1
        r2 -= alpha * q2
        if np.sqrt(_dot(r1, r2, r1, r2)) <= rtol * norm0:
            return x1, x2, it
        z1, z2 = apply_prec(r1, r2)
        rz_new = _dot(r1, r2, z1, z2)
        p1 = z1 + (rz_new / rz) * p1
        p2 = z2 + (rz_new / rz) * p2
        rz = rz_new
    return x1, x2, max_iter


def newton_solve(work, x1, x2, tol, max_iter):
    """Damped inexact Newton from (x1, x2) with the model hooks on `work`.

    `work.evaluate(x1, x2, trace)` returns (sup, merit, mean defect, trace
    record, state); `work.polish(state)` returns the next iterate;
    `work.direction(state, merit, eta)` returns (d1, d2, kind, bound), and
    a step t is accepted once `work.merit(x1 + t*d1, x2 + t*d2) <= bound(t)`.
    Converged means sup < tol and mean defect <= MEAN_TOL; with only the sup
    below tol, the polish step is taken. Returns (x1, x2, iterations, sup,
    merit, trace). The hooks call `pcg_pair` and the kernels by their names
    on the model modules, where a traced run wraps them.
    """
    trace = []
    it = 0
    step = 0.0
    kind = "init"
    while True:
        sup, merit, mean_defect, record, state = work.evaluate(x1, x2, trace)
        if not np.isfinite(merit) or not np.isfinite(sup):
            raise DivergedIterate("non-finite iterate", trace)
        trace.append({"iter": it, **record, "step": step, "kind": kind})
        if sup < tol and mean_defect <= MEAN_TOL:
            return x1, x2, it, sup, merit, trace
        if it >= max_iter:
            raise MaxIterExceeded(
                f"no convergence in {max_iter} iterations "
                f"({work.sup_label} {sup:.3e}, tol {tol:.1e})",
                trace,
            )
        it += 1
        if sup < tol:
            x1, x2 = work.polish(state)
            step = 0.0
            kind = "polish"
            continue
        d1, d2, kind, bound = work.direction(state, merit, min(0.1, np.sqrt(sup)))
        t = 1.0
        for _ in range(40):
            if work.merit(x1 + t * d1, x2 + t * d2) <= bound(t):
                break
            t *= 0.5
        else:
            raise DivergedIterate("line search failed to find descent", trace)
        x1 = x1 + t * d1
        x2 = x2 + t * d2
        step = t
