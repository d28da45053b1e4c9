"""Shared pointwise kernels for the solvers.

The solvers' pointwise kernels: a clamped exponential with an overflow count
(`tw`) and tanh(x/2) (`vav`); its derivative `df_half` serves `vav.f_fun_t`
and the traced benchmark run's name table. numpy's vectorized transcendentals
run these at SIMD speed (a compiled scalar-loop extension was measured 2-4x
slower and was dropped), so the implementations below are the fast path.
"""

import numpy as np

EXP_CAP = 500.0


def clipped_exp(x):
    """exp(min(x, EXP_CAP)) together with the number of clipped entries.

    The cap converts a diverging iterate into a diagnosable event instead
    of a silent inf/NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    n_clip = int(np.count_nonzero(x > EXP_CAP))
    if n_clip:
        x = np.minimum(x, EXP_CAP)
    return np.exp(x), n_clip


def f_half(x):
    """tanh(x/2), the overflow-safe form of (e^x - 1)/(e^x + 1)."""
    return np.tanh(0.5 * np.asarray(x, dtype=np.float64))


def df_half(x):
    """Derivative of tanh(x/2): (1 - tanh^2(x/2))/2, valued in (0, 1/2]."""
    t = np.tanh(0.5 * np.asarray(x, dtype=np.float64))
    return 0.5 * (1.0 - t * t)
