"""Exact oracles from the torus's covers.

Both systems see the torus only through its sources and 4*pi*N/|S|. On a
k1 x k2 cover, with every source copied to each of its lifts, N/|S| and the
grid spacing are the base's, so the mollified sources are the lifts of the
base's; the functional is strictly convex, so the cover's solution is the
base's, tiled. The discrete system commutes with tiling too (the transform
of a tiled array lives on every k-th mode), so the identity holds to
rounding, not to discretisation error, and the solve takes the base's
iterations.
"""

import numpy as np
import pytest

from vortexlab import (
    TorusGeometry,
    VortexConfiguration,
    solve_tw,
    solve_vav,
    tw_problem,
    vav_problem,
)

# A rectangular base, 24 x 18 cells of 0.25.
BASE = TorusGeometry(6.0, 4.5, 24, 18)
SETS = ("zeros_q", "poles_q", "zeros_p", "poles_p")
COVERS = [(2, 2), (3, 1), (1, 2)]
TOL = 1e-11


def lift(config, geom, k1, k2):
    """The configuration on the k1 x k2 cover of `geom`: each source of
    `config` at every one of its k1*k2 lifts."""

    def lifts(points):
        return [
            (x + i * geom.L1, y + j * geom.L2, m)
            for x, y, m in points
            for i in range(k1)
            for j in range(k2)
        ]

    return VortexConfiguration(*(lifts(getattr(config, name)) for name in SETS))


# Each bound is about 10 times the largest max|tile(base) - cover| over
# U, V, u and v and the three covers, as measured: 4.0e-15 (tw), 7.3e-14
# (vav Newton) and 2.1e-15 (vav fixed point). A lift moved by one cell
# breaks the identity by many orders more.
TW = VortexConfiguration(zeros_q=[(1.1, 2.3, 1)], zeros_p=[(4.2, 3.7, 1)])
VAV = VortexConfiguration(zeros_q=[(1.1, 2.3, 1)], poles_q=[(4.2, 3.7, 1)], zeros_p=[(3.0, 1.0, 1)])
CASES = [
    (tw_problem, solve_tw, "newton", TW, 4e-14),
    (vav_problem, solve_vav, "newton", VAV, 8e-13),
    (vav_problem, solve_vav, "fixed_point", VAV, 2e-14),
]


@pytest.mark.parametrize("k1, k2", COVERS, ids=[f"{k1}x{k2}" for k1, k2 in COVERS])
@pytest.mark.parametrize(
    "build, solve, method, config, bound", CASES, ids=["tw", "vav", "vav-fixed_point"]
)
def test_a_covers_solution_is_the_base_solution_tiled(build, solve, method, config, bound, k1, k2):
    base = solve(build(BASE, config), tol=TOL, method=method)
    cover_geom = TorusGeometry(k1 * BASE.L1, k2 * BASE.L2, k1 * BASE.n1, k2 * BASE.n2)
    problem = build(cover_geom, lift(config, BASE, k1, k2))
    cover = solve(problem, tol=TOL, method=method)
    for name in ("U", "V", "u", "v"):
        tiled = np.tile(getattr(base, name).values, (k1, k2))
        assert np.abs(tiled - getattr(cover, name).values).max() < bound, name
    assert cover.iterations == base.iterations
