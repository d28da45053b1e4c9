import ast
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import vortexlab.surface
import vortexlab.tw
import vortexlab.vav
from vortexlab import (
    BracketFailure,
    ConfigurationError,
    DivergedIterate,
    MaxIterExceeded,
    NonZeroMean,
    SolverError,
    TorusGeometry,
    VortexConfiguration,
    apply_T,
    constraint_shift,
    functional_gradient,
    functional_value,
    grad_energy,
    integrate,
    inv_laplacian,
    laplacian,
    mean,
    solve_tw,
    solve_vav,
    tw_problem,
    vav_problem,
)
from vortexlab._linalg import _CG_MAX_ITER, _dot, newton_operator, pcg_pair
from vortexlab.kernels import EXP_CAP
from vortexlab.surface import check_solver_settings, pack_pair, unpack_pair


@pytest.fixture(scope="module")
def geom():
    return TorusGeometry(2 * np.pi, 2 * np.pi, 64, 64)


def random_field(geom, seed, mean_zero=False, amplitude=1.0):
    rng = np.random.default_rng(seed)
    vals = amplitude * rng.standard_normal((geom.n1, geom.n2))
    if mean_zero:
        vals -= vals.mean()
    return geom.field(vals)


def test_geometry_validation():
    with pytest.raises(ConfigurationError):
        TorusGeometry(0.0, 1.0, 16, 16)
    with pytest.raises(ConfigurationError):
        TorusGeometry(1.0, 1.0, 15, 16)
    with pytest.raises(ConfigurationError):
        TorusGeometry(1.0, 1.0, 4, 16)
    # these raised ValueError, OverflowError, ValueError and TypeError
    for bad in (float("nan"), float("inf"), "a", None):
        with pytest.raises(ConfigurationError):
            TorusGeometry(1.0, 1.0, bad, 16)
        with pytest.raises(ConfigurationError):
            TorusGeometry(1.0, 1.0, 16, bad)
        with pytest.raises(ConfigurationError):
            TorusGeometry(bad, 1.0, 16, 16)
        with pytest.raises(ConfigurationError):
            TorusGeometry(1.0, bad, 16, 16)


@pytest.mark.parametrize(
    "sides", [(1e-200, 1e-200), (1e200, 1e200), (1e200, 1e-10), (1e154, 1e-154)]
)
def test_a_torus_whose_area_or_wave_numbers_overflow_or_underflow_is_refused(sides):
    # area 0.0, area inf, the smallest |k|^2 (2 pi/1e200)^2 = 0.0, the largest
    # |k|^2 (8 pi/1e-154)^2 = inf: each is refused before numpy could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="overflows or underflows"):
            TorusGeometry(*sides, 8, 8)


@pytest.mark.parametrize("side", [1e-150, 1e150])
def test_a_tiny_or_huge_torus_that_floats_can_hold_is_built(side):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = TorusGeometry(side, side, 8, 8)
    assert 0.0 < geom.area < math.inf and np.isfinite(geom._lap_sym).all()
    assert (geom._lap_sym.ravel()[1:] < 0).all()


def test_geometry_equality():
    geom, same = TorusGeometry(1.0, 2.0, 16, 32), TorusGeometry(1.0, 2.0, 16, 32)
    other = TorusGeometry(1.0, 2.0, 16, 16)
    assert geom == same and geom is not same
    assert geom != other
    # equal geometries hash alike, so a set keeps one of them
    assert hash(geom) == hash(same)
    assert {geom, same, other} == {geom, other} and len({geom, same, other}) == 2
    # a non-geometry is not compared field by field: __eq__ hands it back
    assert geom.__eq__((1.0, 2.0, 16, 32)) is NotImplemented
    assert geom != (1.0, 2.0, 16, 32) and not geom == "TorusGeometry"
    assert repr(geom) == "TorusGeometry(L1=1.0, L2=2.0, n1=16, n2=32)"
    assert eval(repr(geom)) == geom


def test_field_validation(geom):
    with pytest.raises(ConfigurationError):
        geom.field(np.zeros((8, 8)))
    bad = np.zeros((geom.n1, geom.n2))
    bad[0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        geom.field(bad)


def test_field_immutable(geom):
    f = geom.zeros()
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_incompatible_geometries(geom):
    other = TorusGeometry(2 * np.pi, 2 * np.pi, 32, 32)
    from vortexlab.surface import _same_geometry

    with pytest.raises(ConfigurationError):
        _same_geometry(geom.zeros(), other.zeros())


def test_laplacian_constant_is_zero(geom):
    f = geom.field(np.full((geom.n1, geom.n2), 2.5))
    assert np.abs(laplacian(f).values).max() < 1e-10


def test_laplacian_eigenfunction(geom):
    x1, _ = geom.nodes()
    f = geom.field(np.sin(2 * np.pi * x1 / geom.L1))
    expected = -((2 * np.pi / geom.L1) ** 2) * f.values
    assert np.abs(laplacian(f).values - expected).max() < 1e-10


def test_inverse_laplacian_zero_field(geom):
    assert np.abs(inv_laplacian(geom.zeros()).values).max() == 0.0


def test_inverse_laplacian_eigenfunction(geom):
    x1, _ = geom.nodes()
    s = np.sin(2 * np.pi * x1 / geom.L1)
    f = geom.field(-((2 * np.pi / geom.L1) ** 2) * s)
    assert np.abs(inv_laplacian(f).values - s).max() < 1e-12


def test_inverse_laplacian_rejects_nonzero_mean(geom):
    with pytest.raises(NonZeroMean):
        inv_laplacian(geom.field(np.ones((geom.n1, geom.n2))))


def test_laplacian_of_inverse_is_identity(geom):
    w = random_field(geom, 1, mean_zero=True)
    back = laplacian(inv_laplacian(w))
    assert np.abs(back.values - w.values).max() < 1e-10


def test_inverse_of_laplacian_is_identity(geom):
    w = random_field(geom, 2, mean_zero=True)
    back = inv_laplacian(laplacian(w))
    assert np.abs(back.values - w.values).max() < 1e-10


@pytest.mark.parametrize("mu", [0.0, 0.3, 7.0])
def test_projected_helmholtz_inverse(geom, mu):
    # (Lap - m) d = a - mean(a) with d mean-free, for each component of the
    # pair solve at the diagonal M = diag(mu, 2 mu), on a square and an
    # anisotropic grid, for right-hand sides that are not mean-free
    for g in (geom, TorusGeometry(5.0, 7.5, 24, 16)):
        a = random_field(g, 4).values + 0.7
        b = random_field(g, 5).values - 0.3
        x, y = g.solve_pair_projected(a, b, ((mu, 0.0), (0.0, 2.0 * mu)))
        for d, rhs, m in ((x, a, mu), (y, b, 2.0 * mu)):
            assert abs(d.mean()) < 1e-14
            assert np.abs(g.lap(d) - m * d - (rhs - rhs.mean())).max() < 1e-10


@pytest.mark.parametrize(
    "M",
    [((2.8, -0.4), (-1.4, 0.4)), ((1.5, 2.0), (-0.5, 0.25)), ((0.0, 0.0), (0.0, 0.0))],
    ids=["mean-jacobian", "non-symmetric", "zero"],
)
def test_pair_solve_with_a_non_symmetric_matrix(geom, M):
    # (Lap - M)(x, y) = (a, b) - their means with x, y mean-free, for a
    # constant M that is not symmetric: the fixed point's mean Jacobian
    # ((4wu, -2wv), (-2wu, 2wv)) at wu = 0.7, wv = 0.2, a matrix whose
    # determinant on a mode is |k|^4 + 1.75|k|^2 + 1.375, and M = 0
    (m11, m12), (m21, m22) = M
    for g in (geom, TorusGeometry(5.0, 7.5, 24, 16)):
        a = random_field(g, 10).values + 0.4
        b = random_field(g, 11).values - 1.1
        x, y = g.solve_pair_projected(a, b, M)
        lx, ly = g.lap(x), g.lap(y)
        assert abs(x.mean()) < 1e-14 and abs(y.mean()) < 1e-14
        assert np.abs(lx - m11 * x - m12 * y - (a - a.mean())).max() < 1e-10
        assert np.abs(ly - m21 * x - m22 * y - (b - b.mean())).max() < 1e-10


def _grid_arrays(g):
    """Names of the geometry's attributes that are arrays of the grid's size."""
    return sorted(
        k for k, v in vars(g).items() if isinstance(v, np.ndarray) and v.size >= g.n1 * g.n2
    )


def test_geometry_keeps_one_grid_sized_array():
    g = TorusGeometry(5.0, 7.5, 24, 16)
    assert _grid_arrays(g) == ["_lap_sym"]
    a, b = random_field(g, 6, mean_zero=True).values, random_field(g, 7).values
    g.inv_lap(a)
    g.inv_lap_projected(b)
    g.solve_pair_projected(a, b, ((1.2, -0.3), (-0.6, 0.3)))
    g.inv_lap_pair_projected(a, b)
    assert _grid_arrays(g) == ["_lap_sym"]
    # the fixed point builds its inverse symbols per call, and needs no -k index
    problem = vav_problem(
        TorusGeometry(6.0, 6.0, 32, 32),
        VortexConfiguration(zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)]),
    )
    solve_vav(problem, method="fixed_point")
    assert _grid_arrays(problem.geometry) == ["_lap_sym"]


def test_geometries_hold_one_symbol_each():
    # 48 geometries at 128^2, as the fixed-point benchmark builds: each holds
    # its 128 KiB symbol, and no second copy (about 258 KiB each with one)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [TorusGeometry(4.0 + 0.1 * i, 5.0, 128, 128) for i in range(48)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 48 and grown < 48 * 136 * 1024


def test_inverse_symbols_are_the_reciprocal_laplacian_symbol():
    # inv_lap, inv_lap_projected and inv_lap_pair_projected give the
    # bits of -1/|k|^2 with the zero mode removed, applied through the same
    # transforms
    for g in (TorusGeometry(2 * np.pi, 2 * np.pi, 64, 64), TorusGeometry(5.0, 7.5, 24, 16)):
        lap = g._lap_sym
        inv = np.zeros_like(lap)
        nz = lap < 0.0
        inv[nz] = 1.0 / lap[nz]
        a, b = random_field(g, 8, mean_zero=True).values, random_field(g, 9).values
        assert g.inv_lap(a).tobytes() == g._apply_real(inv, a).tobytes()
        assert g.inv_lap_projected(b).tobytes() == g._apply_real(inv, b).tobytes()
        got = g.inv_lap_pair_projected(a, b)
        want = unpack_pair(inv * pack_pair(a, b))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_spectral_roundtrip(geom):
    w = random_field(geom, 3)
    back = np.fft.ifft2(np.fft.fft2(w.values)).real
    assert np.abs(back - w.values).max() < 1e-12


def test_integrate_area(geom):
    one = geom.field(np.ones((geom.n1, geom.n2)))
    assert integrate(one) == pytest.approx((2 * np.pi) ** 2, rel=1e-12)


def test_integrate_single_mode_vanishes(geom):
    x1, _ = geom.nodes()
    f = geom.field(np.sin(2 * np.pi * x1 / geom.L1))
    assert abs(integrate(f)) < 1e-12


def test_integral_of_laplacian_vanishes(geom):
    w = random_field(geom, 4)
    sup = np.abs(w.values).max()
    assert abs(integrate(laplacian(w))) < 1e-10 * sup


def test_mean_and_grad_energy_constant(geom):
    c = geom.field(np.full((geom.n1, geom.n2), -1.7))
    assert mean(c) == pytest.approx(-1.7, rel=1e-14)
    assert grad_energy(c) < 1e-20


def test_grad_energy_single_mode(geom):
    x1, _ = geom.nodes()
    f = geom.field(np.sin(2 * np.pi * x1 / geom.L1))
    # |grad|^2 integrates to (area/2) * (2 pi / L1)^2
    assert grad_energy(f) == pytest.approx(0.5 * (2 * np.pi) ** 2, rel=1e-12)


def test_grad_energy_by_parts(geom):
    w = random_field(geom, 5)
    lhs = grad_energy(w)
    rhs = -integrate(geom.field(w.values * laplacian(w).values))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_grad_energy_nonnegative(geom):
    for seed in range(4):
        w = random_field(geom, 10 + seed)
        assert grad_energy(w) > 0.0


def test_anisotropic_grid_operators():
    # distinct lengths and node counts per axis catch axis transpositions
    geom = TorusGeometry(5.0, 7.5, 96, 64)
    x1, x2 = geom.nodes()
    w1 = geom.field(np.sin(2 * np.pi * x1 / geom.L1))
    w2 = geom.field(np.cos(2 * np.pi * 3 * x2 / geom.L2))
    assert np.abs(
        laplacian(w1).values + (2 * np.pi / geom.L1) ** 2 * w1.values
    ).max() < 1e-10
    assert np.abs(
        laplacian(w2).values + (2 * np.pi * 3 / geom.L2) ** 2 * w2.values
    ).max() < 1e-10
    assert integrate(geom.field(np.ones((96, 64)))) == pytest.approx(37.5, rel=1e-13)
    assert grad_energy(w2) == pytest.approx(
        0.5 * (2 * np.pi * 3 / geom.L2) ** 2 * geom.area, rel=1e-12
    )
    w = random_field(geom, 6, mean_zero=True)
    assert np.abs(laplacian(inv_laplacian(w)).values - w.values).max() < 1e-10


def test_packed_spectrum_operations():
    # a non-square grid, so that a wrong -k index or axis shows
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    a = random_field(geom, 11).values
    b = random_field(geom, 12).values
    P = pack_pair(a, b)
    a2, b2 = unpack_pair(P)
    assert np.abs(a2 - a).max() < 1e-13 and np.abs(b2 - b).max() < 1e-13
    for got, want in zip(unpack_pair(geom.lap_packed(P)), geom.lap_pair(a, b)):
        assert np.abs(got - want).max() < 1e-12
    helmholtz = geom.elliptic_inverse_packed(((0.25, 0.0), (0.0, 0.25)))
    for got, want in zip(unpack_pair(helmholtz(P)), geom.helmholtz_pair(a, b, 0.25)):
        assert np.abs(got - want).max() < 1e-12
    assert geom.grad_sq_packed(P) == pytest.approx(
        geom.grad_sq(a) + geom.grad_sq(b), rel=1e-13
    )


@pytest.mark.parametrize(
    "M",
    [
        # -Lap plus the mean of [[w1 + w2, -w2], [-w2, w2]]: tw's weights
        # w1 = 4e^u, w2 = e^v, and vav's w1 = 4(1 - F1^2), w2 = 1 - F2^2
        ((4 * 0.7 + 0.05, -0.05), (-0.05, 0.05)),
        ((1.2 + 0.4, -0.4), (-0.4, 0.4)),
    ],
    ids=["tw", "vav"],
)
def test_elliptic_inverse_packed_is_the_per_mode_solve(M):
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    a = random_field(geom, 13).values
    b = random_field(geom, 14).values
    x1, x2 = unpack_pair(geom.elliptic_inverse_packed(M)(pack_pair(a, b)))
    # a direct 2x2 solve per mode on the spectra of a and b
    ksq = -geom._lap_sym
    K = ksq[..., None, None] * np.eye(2) + np.array(M)
    rhs = np.stack([np.fft.fft2(a), np.fft.fft2(b)], axis=-1)[..., None]
    X = np.linalg.solve(K, rhs)[..., 0]
    want1, want2 = np.fft.ifft2(X[..., 0]).real, np.fft.ifft2(X[..., 1]).real
    assert np.abs(x1 - want1).max() < 1e-12 and np.abs(x2 - want2).max() < 1e-12
    # and the residual of (-Lap + M) x = (a, b) on the grid
    l1, l2 = geom.lap_pair(x1, x2)
    (m11, m12), (_, m22) = M
    r1 = -l1 + m11 * x1 + m12 * x2 - a
    r2 = -l2 + m12 * x1 + m22 * x2 - b
    assert np.abs(r1).max() <= 1e-12 and np.abs(r2).max() <= 1e-12


def test_elliptic_inverse_packed_finite_on_degenerate_means():
    # tw means where e1 underflowed next to a huge e2: the zero-mode block
    # is singular in floating point and is kept invertible by the floor
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    m1, m2 = vortexlab.surface.bounded_means(np.zeros((2, 2)), np.full((2, 2), 1e300))
    assert (m1, m2) == (1e-12, 1e12)
    prec = geom.elliptic_inverse_packed(((m1 + m2, -m2), (-m2, m2)))
    with np.errstate(all="raise"):
        out = prec(pack_pair(random_field(geom, 15).values, random_field(geom, 16).values))
    assert np.isfinite(out).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# The Newton operator and the preconditioner as they were built before their
# arithmetic was written in place, kept verbatim as the oracle of their bits.
def _apply_op_reference(geom, w1, w2, D):
    d1, d2 = unpack_pair(D)
    mix = w2 * (d1 - d2)
    q1 = w1 * d1 + mix
    del d1, d2  # the unpacked pair is not held through the pack
    Q = pack_pair(q1, -mix)
    Q -= geom._lap_sym * D
    return Q


def _elliptic_inverse_reference(geom, M):
    (m11, k12), (_, m22) = M
    s = geom._lap_sym
    k11 = m11 - s
    k22 = m22 - s
    det = k11 * k22 - k12 * k12
    np.maximum(det, vortexlab.surface.COEFF_FLOOR * k11 * k22, out=det)
    alpha = 0.5 * (k11 + k22) / det
    beta = (0.5 * (k22 - k11) - 1j * k12) / det
    return lambda P: geom._conj_mix(P, alpha, beta)


@pytest.mark.parametrize(
    "shape, weights",
    [((8, 12), "random"), ((32, 32), "random"), ((96, 64), "random"), ((16, 24), "degenerate")],
    ids=["8x12", "32x32", "96x64", "degenerate"],
)
def test_newton_operator_and_preconditioner_keep_their_bits(shape, weights):
    # The in-place operator and preconditioner give the bits of the same
    # sums on new arrays; beta = (x - i*k12)/det only as x*(1/det) and
    # -k12*(1/det), since numpy divides by a real det through its reciprocal.
    # "degenerate" has the means of
    # test_elliptic_inverse_packed_finite_on_degenerate_means.
    rng = np.random.default_rng(sum(shape))
    geom = TorusGeometry(5.0, 7.5, *shape)
    if weights == "random":
        w1, w2 = rng.uniform(0.01, 3.0, (2, *shape))
    else:
        w1, w2 = np.zeros(shape), np.full(shape, 1e300)
    m1, m2 = vortexlab.surface.bounded_means(w1, w2)
    M = ((m1 + m2, -m2), (-m2, m2))
    apply_op, prec = newton_operator(geom, w1, w2)
    for _ in range(3):
        D = pack_pair(*rng.standard_normal((2, *shape)))
        kept = D.copy()
        assert np.array_equal(_bits(apply_op(D)), _bits(_apply_op_reference(geom, w1, w2, D)))
        assert np.array_equal(_bits(prec(D)), _bits(_elliptic_inverse_reference(geom, M)(D)))
        assert np.array_equal(_bits(D), _bits(kept))


@pytest.mark.parametrize("shape", [(8, 12), (32, 32), (96, 64), (256, 256)])
def test_transform_seam_is_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    for x in (real, cplx, real.T, cplx.T):
        before = x.copy()
        for seam, ref in (
            (vortexlab.surface.fft2, np.fft.fft2),
            (vortexlab.surface.ifft2, np.fft.ifft2),
        ):
            got = seam(x)
            assert got.dtype == np.complex128 and got.shape == x.shape
            assert np.array_equal(_bits(got), _bits(ref(x)))
            assert np.array_equal(_bits(x), _bits(before))
    for x in (real, real.T):
        before = x.copy()
        got = vortexlab.surface.rfft2(x)
        assert got.dtype == np.complex128 and got.shape == (x.shape[0], x.shape[1] // 2 + 1)
        assert np.array_equal(_bits(got), _bits(np.fft.rfft2(x)))
        assert np.array_equal(_bits(x), _bits(before))
    # half spectra of real arrays, and any complex array of that shape
    for n1, n2 in (shape, shape[::-1]):
        half = (n1, n2 // 2 + 1)
        wild = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        wild_t = (rng.standard_normal(half[::-1]) + 1j * rng.standard_normal(half[::-1])).T
        for X in (np.fft.rfft2(rng.standard_normal((n1, n2))), wild, wild_t):
            before = X.copy()
            got = vortexlab.surface.irfft2(X, n2)
            assert got.dtype == np.float64 and got.shape == (n1, n2)
            assert np.array_equal(_bits(got), _bits(np.fft.irfft2(X, s=(n1, n2))))
            assert np.array_equal(_bits(X), _bits(before))


# Transforms of numpy.fft; its frequency helpers may be used anywhere.
_NUMPY_TRANSFORMS = {
    "fft",
    "ifft",
    "fft2",
    "ifft2",
    "fftn",
    "ifftn",
    "rfft",
    "irfft",
    "rfft2",
    "irfft2",
    "rfftn",
    "irfftn",
    "hfft",
    "ihfft",
}
_SEAM = ("fft2", "ifft2", "rfft2", "irfft2")


def test_transforms_only_through_the_seam():
    outside = []
    for path in sorted(Path(vortexlab.surface.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "from numpy.fft import" not in source, path.name
        tree = ast.parse(source)
        seam = set()
        for fn in tree.body:
            if path.name == "surface.py" and getattr(fn, "name", None) in _SEAM:
                seam.update(ast.walk(fn))
        outside += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in _NUMPY_TRANSFORMS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft"
            and node not in seam
        ]
    assert not outside


# numpy calls that hand their work to BLAS. np.vdot made each CG inner
# product wake a BLAS thread, and its bits depended on the thread count.
_BLAS_CALLS = {"vdot", "dot", "inner", "matmul", "tensordot"}


def test_no_blas_in_the_solve_path():
    found = []
    for path in sorted(Path(vortexlab.surface.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in _BLAS_CALLS:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
            ):
                found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
    assert found == []


_THREAD_PROBE = """
import hashlib
import numpy as np
from vortexlab import (TorusGeometry, VortexConfiguration, solve_tw, solve_vav,
                       tw_problem, vav_problem)
geom = TorusGeometry(8.0, 8.0, 128, 128)
tw = solve_tw(tw_problem(geom, VortexConfiguration(
    zeros_q=[(2.3, 3.1, 1), (5.2, 6.0, 1)], zeros_p=[(6.1, 1.4, 1)])))
vav = solve_vav(vav_problem(geom, VortexConfiguration(
    zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)], zeros_p=[(6.0, 6.5, 1)])))
digest = hashlib.sha256()
for sol in (tw, vav):
    digest.update(sol.U.values.tobytes())
    digest.update(sol.V.values.tobytes())
print(tw.iterations, vav.iterations, digest.hexdigest())
"""


def test_newton_solves_do_not_depend_on_the_blas_thread_count():
    # 128^2 is the smallest grid here whose CG sums OpenBLAS would thread
    src = str(Path(vortexlab.surface.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def _point_calls(trace):
    """For each `point` call of a converged Newton solve, whether it built an
    iterate: the polished start does, and a step 0.5**k was accepted after k
    refused trials."""
    accepted = [True]
    for e in trace[1:]:
        accepted += [False] * round(-math.log2(e["step"])) + [True]
    return accepted


@pytest.mark.parametrize(
    "model, method",
    [("tw", "newton"), ("vav", "newton"), ("vav", "fixed_point")],
    ids=["tw", "vav", "vav-fixed_point"],
)
def test_fft2_counts_per_layer(model, method, monkeypatch):
    # The inner CG runs on packed spectra: per iteration one transform pair
    # for the pointwise part of the operator, plus one to pack the
    # right-hand side and one to unpack the solution. A point packs (f, h)
    # once, for both Dirichlet energies and the gradient's Laplacians, and
    # unpacks those (tw), or makes the residual's lap_pair (vav): 2
    # transforms wherever it is built. A fixed-point iteration makes two
    # real pairs (its inverse Laplacians); one complex pair starts the
    # carried Laplacians and one checks the residual at convergence.
    problem, solve = _problem_and_solver(model)
    count = dict.fromkeys(("fft2", "ifft2", "rfft2", "irfft2"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in count:
        monkeypatch.setattr(
            vortexlab.surface, name, counting(name, getattr(vortexlab.surface, name))
        )
    module = getattr(vortexlab, model)
    calls = {}

    def measured(name, fn, what=lambda args, result: None):
        def wrapped(*args, **kwargs):
            before = sum(count.values())
            result = fn(*args, **kwargs)
            calls.setdefault(name, []).append(
                (sum(count.values()) - before, what(args, result))
            )
            return result

        return wrapped

    def cg_iters(args, result):
        return result[2]

    monkeypatch.setattr(module, "pcg_pair", measured("pcg", module.pcg_pair, cg_iters))
    monkeypatch.setattr(module._Work, "point", measured("point", module._Work.point))
    sol = solve(problem, method=method)
    if method == "fixed_point":
        assert sol.iterations > 0 and "pcg" not in calls and "point" not in calls
        it = sol.iterations
        assert count == {"fft2": 2, "ifft2": 2, "rfft2": 2 * it, "irfft2": 2 * it}
        return
    assert count["rfft2"] == count["irfft2"] == 0
    assert calls["pcg"] and all(it > 0 for _, it in calls["pcg"])
    assert [n for n, _ in calls["pcg"]] == [2 * it + 2 for _, it in calls["pcg"]]
    # the preconditioner inverts the operator's constant part exactly; with
    # the inverse-Helmholtz one these solves took 29 (tw) and 25 (vav)
    assert sum(it for _, it in calls["pcg"]) <= {"tw": 18, "vav": 15}[model]
    points = [n for n, _ in calls["point"]]
    assert len(sol.trace) == sol.iterations + 1
    assert len(points) == len(_point_calls(sol.trace)) and set(points) == {2}


def _backtracking_start(model):
    """Starts (U, V) whose shape, not their means, is far from the solution,
    so that the polished start still refuses full Newton steps: tw from a
    bump of height 200 in U takes 28 iterations, with a step of 1/2 at
    iteration 22; vav from a sine and a cosine of amplitude 8 takes a step of
    1/2 at iteration 2."""
    i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    if model == "tw":
        return 200.0 * np.exp(-((i - 8) ** 2 + (j - 8) ** 2) / 8.0), np.zeros((32, 32))
    return 8.0 * np.sin(2 * np.pi * i / 32), -8.0 * np.cos(2 * np.pi * j / 32)


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_backtracking_trial_becomes_the_iterate(model, monkeypatch):
    # The accepted trial is the next iterate as it stands: its point gives
    # the trace record. The start and every trial are polished before their
    # point is taken, so no point clamps an exponent: a polished tw point has
    # quad(e^u) = a1, so max u <= log(a1/(h1*h2)), far below the cap.
    problem, solve = _problem_and_solver(model)
    work = getattr(vortexlab, model)._Work
    point = work.point
    calls = []

    def recorded(self, y1, y2):
        result = point(self, y1, y2)
        calls.append(result)
        return result

    monkeypatch.setattr(work, "point", recorded)
    sol = solve(problem, x0=_backtracking_start(model))
    assert min(e["step"] for e in sol.trace[1:]) < 1.0
    accepted = _point_calls(sol.trace)
    assert len(calls) == len(accepted) and not all(accepted)
    driver_keys = ("iter", "step", "kind")
    records = [{k: v for k, v in e.items() if k not in driver_keys} for e in sol.trace]
    assert [{"I": c.I, "resid_sup": c.sup} for c, ok in zip(calls, accepted) if ok] == records
    assert not any(c.n_clip for c in calls)


# Solver settings no solve can meet. Before the shared check, tol 0 or NaN
# ran the whole iteration budget and max_iter <= 0 raised MaxIterExceeded
# without an iteration.
UNMEETABLE = [
    {"tol": 0.0},
    {"tol": -1e-8},
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"max_iter": 0},
    {"max_iter": -3},
    {"max_iter": 2.5},
    # bools are refused as _real and _integer refuse them: max_iter=True
    # used to be a budget of one, and tol=True a tolerance of 1.0
    {"tol": True},
    {"max_iter": True},
]


SOLVE_PATHS = [("tw", "newton"), ("vav", "newton"), ("vav", "fixed_point")]


def _no_work(problem):
    raise AssertionError("the solve started")


def _problem_and_solver(model):
    geom = TorusGeometry(6.0, 6.0, 32, 32)
    if model == "tw":
        return tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)])), solve_tw
    cfg = VortexConfiguration(zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)])
    return vav_problem(geom, cfg), solve_vav


@pytest.mark.parametrize("model, method", SOLVE_PATHS)
@pytest.mark.parametrize("settings", UNMEETABLE)
def test_unmeetable_solver_settings_rejected_before_work(model, method, settings, monkeypatch):
    problem, solve = _problem_and_solver(model)
    monkeypatch.setattr(getattr(vortexlab, model), "_Work", _no_work)
    with pytest.raises(ConfigurationError):
        solve(problem, method=method, **settings)


def test_unknown_vav_method_rejected_before_work(monkeypatch):
    problem, solve = _problem_and_solver("vav")
    monkeypatch.setattr(vortexlab.vav, "_Work", _no_work)
    with pytest.raises(ConfigurationError, match="unknown method"):
        solve(problem, method="bogus")


def test_bracket_failure_is_a_solver_error():
    # one class means "the solve failed": the CLI reports it as exit 3
    assert issubclass(BracketFailure, SolverError)


# A non-finite start is a configuration error on every path; left to the
# solvers, one NaN ends in a different error class on each of them.
@pytest.mark.parametrize("model, method", SOLVE_PATHS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_rejected(model, method, bad):
    problem, solve = _problem_and_solver(model)
    x0 = (np.zeros((32, 32)), np.zeros((32, 32)))
    x0[1][5, 7] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        solve(problem, method=method, x0=x0)


# A start that is not exactly two real arrays on the grid is refused before
# any work. It used to raise IndexError, TypeError or ValueError, drop a
# third array, or be cast from complex with only a ComplexWarning; a
# solution's own ScalarFields, rather than their values, raised TypeError.
MALFORMED_STARTS = {
    "one-array": lambda z, field: (z,),
    "number": lambda z, field: 5,
    "string": lambda z, field: "ab",
    "three-arrays": lambda z, field: (z, z, z),
    "complex": lambda z, field: (z + 1j, z),
    "fields": lambda z, field: (field(z), field(z)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model, method", SOLVE_PATHS)
@pytest.mark.parametrize("start", MALFORMED_STARTS.values(), ids=MALFORMED_STARTS)
def test_malformed_start_rejected(model, method, start, monkeypatch):
    problem, solve = _problem_and_solver(model)
    x0 = start(np.zeros((32, 32)), problem.geometry.field)
    monkeypatch.setattr(getattr(vortexlab, model), "_Work", _no_work)
    with pytest.raises(ConfigurationError, match="^x0 "):
        solve(problem, method=method, x0=x0)


# The other model's problem, or a bare array in place of a field, used to
# end in an AttributeError (no `backgrounds`, `u01` or `geometry`).
WRONG_ARGUMENTS = {
    "apply_T-tw-problem": lambda tw, vav, z: apply_T(z, z, tw),
    "functional_value-vav-problem": lambda tw, vav, z: functional_value(z, z, vav),
    "functional_gradient-vav-problem": lambda tw, vav, z: functional_gradient(z, z, vav),
    "solve_tw-vav-problem": lambda tw, vav, z: solve_tw(vav),
    "solve_vav-tw-problem": lambda tw, vav, z: solve_vav(tw),
    "apply_T-array": lambda tw, vav, z: apply_T(z.values, z, vav),
    "functional_value-array": lambda tw, vav, z: functional_value(z, z.values, tw),
    "constraint_shift-array": lambda tw, vav, z: constraint_shift(z.values, z, z, 0.0, z.geometry),
}


@pytest.mark.parametrize("call", WRONG_ARGUMENTS.values(), ids=WRONG_ARGUMENTS)
def test_wrong_problem_or_bare_array_rejected(call):
    (tw, _), (vav, _) = _problem_and_solver("tw"), _problem_and_solver("vav")
    with pytest.raises(ConfigurationError, match="^expected a |^fields must be ScalarFields"):
        call(tw, vav, tw.geometry.zeros())


def _assert_default_solution(problem, solve, sol):
    reference = solve(problem)
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-9
    assert np.abs(sol.V.values - reference.V.values).max() < 1e-9


# Starts where every exponential underflows (tw) or every tanh saturates
# (vav): the Newton operator is singular on constants. The inner CG used to
# take an infinite step there, and the solve ran on NaN trials. The tw
# polish takes its shifts in log form there, and vav's functional is
# coercive in the means: both reach the default solution.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, start", [("tw", (-800.0, -800.0)), ("vav", (50.0, -50.0))])
def test_degenerate_start_reaches_the_default_solution(model, start):
    problem, solve = _problem_and_solver(model)
    x0 = tuple(np.full((32, 32), c) for c in start)
    _assert_default_solution(problem, solve, solve(problem, x0=x0))


def _noise_100_start():
    rng = np.random.default_rng(0)
    return tuple(100.0 * rng.standard_normal((32, 32)) for _ in range(2))


# Far vav starts. With the squared residual norm as the merit, each ended in
# "line search failed": the merit fell while V's mean ran away, until an
# inner CG returned a direction of sup about 1e302. On the functional J the
# means cannot run away.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "start",
    [(4.0, -4.0), (6.0, -6.0), (-4.0, 4.0), _noise_100_start],
    ids=["4,-4", "6,-6", "-4,4", "noise-100"],
)
def test_vav_converges_from_far_starts(start):
    problem, solve = _problem_and_solver("vav")
    x0 = start() if callable(start) else tuple(np.full((32, 32), c) for c in start)
    _assert_default_solution(problem, solve, solve(problem, x0=x0))


def _vav_ripple_start():
    i, j = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    return 10.0 + np.sin(2 * np.pi * i / 32), -10.0 + np.cos(2 * np.pi * j / 32)


# Newton starts from the polished start, whose means minimise the functional
# exactly, so starts whose means are far off cost no extra iteration. Cold,
# tw took 12 iterations from (4, -4) and 16 from (8, -8), raised
# MaxIterExceeded from (-100, 100) and found no descent from (-300, 0);
# vav took 11 from the ripple on means (10, -10), and 16 from (1000, -1000),
# whose polish solves for the mean-free fields: the shifts of the fields
# themselves lie outside _shift's bracket.
@pytest.mark.parametrize(
    "model, start",
    [
        ("tw", (4.0, -4.0)),
        ("tw", (8.0, -8.0)),
        ("tw", (10.0, -10.0)),
        ("tw", (-10.0, 10.0)),
        ("tw", (-100.0, 100.0)),
        ("tw", (-300.0, 0.0)),
        ("vav", _vav_ripple_start),
        ("vav", (1000.0, -1000.0)),
    ],
    ids=["tw(4,-4)", "tw(8,-8)", "tw(10,-10)", "tw(-10,10)", "tw(-100,100)", "tw(-300,0)",
         "vav-ripple", "vav(1000,-1000)"],
)
def test_far_means_take_the_default_iterations(model, start):
    problem, solve = _problem_and_solver(model)
    x0 = start() if callable(start) else tuple(np.full((32, 32), c) for c in start)
    sol = solve(problem, x0=x0)
    reference = solve(problem)
    assert sol.iterations == reference.iterations
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-9
    assert np.abs(sol.V.values - reference.V.values).max() < 1e-9


# Both solvers read a start as (U, V), the pair a solution holds, so a
# solution's own fields are a start at the solution: the solve stops at the
# polished start. Read as Newton's (f, h), the tw start took 6 iterations.
@pytest.mark.parametrize("model", ["tw", "vav"])
def test_warm_start_from_the_solution_stops_at_init(model):
    problem, solve = _problem_and_solver(model)
    sol = solve(problem)
    warm = solve(problem, x0=(sol.U.values, sol.V.values))
    assert warm.iterations == 0
    assert [e["kind"] for e in warm.trace] == ["init"]
    assert np.abs(warm.U.values - sol.U.values).max() < 1e-12
    assert np.abs(warm.V.values - sol.V.values).max() < 1e-12


# A descent direction so long that its slope overflows to -inf, like the
# one of sup 6e153 an overflowing inner CG returned from a cold (30, -30)
# start. Here the first inner solve returns the CG right-hand side's signs
# times 1e308. No trial can pass an Armijo bound of -inf, so that step falls
# back to the preconditioned gradient.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("c", [30.0, -30.0])
def test_vav_non_finite_slope_falls_back_to_the_gradient(c, monkeypatch):
    problem, solve = _problem_and_solver("vav")
    geom = problem.geometry
    pcg = vortexlab.vav.pcg_pair
    slopes = []

    def overflowing_once(apply_op, apply_prec, b1, b2, rtol):
        if slopes:
            return pcg(apply_op, apply_prec, b1, b2, rtol)
        d1, d2 = 1e308 * np.sign(b1), 1e308 * np.sign(b2)
        # the gradient is -b
        slopes.append(geom.quad(-b1 * d1 - b2 * d2))
        return d1, d2, 1

    monkeypatch.setattr(vortexlab.vav, "pcg_pair", overflowing_once)
    sol = solve(problem, x0=(np.full((32, 32), c), np.full((32, 32), -c)))
    assert slopes == [-np.inf]
    assert [e["kind"] for e in sol.trace[:2]] == ["init", "gradient"]
    _assert_default_solution(problem, solve, sol)


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_newton_operator_is_the_gradients_derivative(model):
    # At a smooth non-solution (f, h), the CG operator built from the
    # model's weights, applied to a direction D, is the central difference
    # of the gradient along D.
    problem, _ = _problem_and_solver(model)
    geom = problem.geometry
    work = getattr(vortexlab, model)._Work(problem)
    x1, x2 = geom.nodes()
    wave = 2 * np.pi / geom.L1
    f = 0.6 * np.sin(wave * x1) * np.cos(2 * wave * x2) - 0.2
    h = 0.5 * np.cos(wave * (x1 + x2)) + 0.3
    D1 = np.cos(3 * wave * x1) + 0.4 * np.sin(wave * x2)
    D2 = np.sin(2 * wave * (x1 - x2)) - 0.7
    point = work.point(f, h)
    assert max(np.abs(g).max() for g in (point.g1, point.g2)) > 0.1  # not a solution
    apply_op, _ = newton_operator(geom, *work.weights(point))
    q1, q2 = unpack_pair(apply_op(pack_pair(D1, D2)))
    eps = 1e-4
    plus = work.point(f + eps * D1, h + eps * D2)
    minus = work.point(f - eps * D1, h - eps * D2)
    for q, p, m in ((q1, plus.g1, minus.g1), (q2, plus.g2, minus.g2)):
        fd = (p - m) / (2 * eps)
        assert np.abs(q - fd).max() <= 1e-6 * np.abs(fd).max()


def _huge_start():
    rng = np.random.default_rng(0)
    return tuple(1e200 * rng.standard_normal((32, 32)) for _ in range(2))


def _constant_510_start():
    return np.full((32, 32), 510.0), np.zeros((32, 32))


def _one_505_entry_start():
    U = np.zeros((32, 32))
    U[5, 7] = 505.0
    return U, -0.5 * U


def _constant_700_start():
    return np.full((32, 32), 700.0), np.zeros((32, 32))


def _not_called(*args, **kwargs):
    raise AssertionError("called")


# The polished start itself is the diverging iterate: the driver stops
# before its trace record and before any direction. A start of 1e200 gives
# an infinite merit in tw; in vav its polish finds no shift.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "model, error, message",
    [("tw", DivergedIterate, "non-finite iterate"), ("vav", BracketFailure, "does not cross")],
    ids=["tw-huge", "vav-huge"],
)
def test_divergence_at_the_start_is_named(model, error, message, monkeypatch):
    problem, solve = _problem_and_solver(model)
    monkeypatch.setattr(getattr(vortexlab, model), "pcg_pair", _not_called)
    with pytest.raises(error, match=message) as exc:
        solve(problem, x0=_huge_start())
    assert exc.value.trace == []


# A tw start whose exponent arguments pass EXP_CAP is polished before its
# point is taken, which brings max u below log(a1/(h1*h2)), so it solves to
# the default solution, and quietly.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "start",
    [_constant_510_start, _one_505_entry_start, _constant_700_start],
    ids=["tw-510", "tw-one-505", "tw-700"],
)
def test_a_start_past_the_clamp_converges(start):
    problem, solve = _problem_and_solver("tw")
    U, V = start()
    assert np.any(problem.u01.values + U > EXP_CAP)
    reference = solve(problem)
    sol = solve(problem, x0=(U, V))
    for got, want in ((sol.U, reference.U), (sol.V, reference.V)):
        assert np.abs(got.values - want.values).max() < 1e-9


@pytest.mark.parametrize("model, method", SOLVE_PATHS)
def test_max_iter_exceeded_keeps_every_iterate(model, method):
    # the start and each of the three iterations leave one trace record
    problem, solve = _problem_and_solver(model)
    with pytest.raises(MaxIterExceeded, match="no convergence in 3 iterations") as exc:
        solve(problem, method=method, max_iter=3)
    assert [e["iter"] for e in exc.value.trace] == [0, 1, 2, 3]


def _recorded_rtols(model, monkeypatch):
    pcg, rtols = getattr(vortexlab, model).pcg_pair, []

    def recorded(apply_op, apply_prec, b1, b2, rtol):
        rtols.append(rtol)
        return pcg(apply_op, apply_prec, b1, b2, rtol)

    monkeypatch.setattr(getattr(vortexlab, model), "pcg_pair", recorded)
    return rtols


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_forcing_term_is_of_order_sup_with_a_floor_at_tol(model, monkeypatch):
    # The CG tolerance of each step is eta = min(0.1, max(sup, 0.5*tol/sup))
    # at the sup of the trace record before it (Dembo, Eisenstat & Steihaug,
    # SIAM J. Numer. Anal. 19, 1982; Kelley, 1995, sec. 6.3). The floor
    # holds the last step's CG solve near tol, not far past it.
    problem, solve = _problem_and_solver(model)
    rtols = _recorded_rtols(model, monkeypatch)
    tol = 1e-8
    sol = solve(problem, tol=tol)
    sups = [e["resid_sup"] for e in sol.trace[:-1]]
    assert len(rtols) == len(sups) == sol.iterations >= 3
    assert rtols == [min(0.1, max(sup, 0.5 * tol / sup)) for sup in sups]
    assert rtols[-1] == 0.5 * tol / sups[-1] > sups[-1]


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_zero_sup_above_the_defect_floor_runs_out_its_budget(model, monkeypatch):
    # A point whose residual sup is exactly 0.0 but whose integral defect is
    # above its floor has not converged. Its forcing term is the cap 0.1,
    # where 0.5*tol/sup tends to, not a division by zero, and the solve ends
    # in MaxIterExceeded naming the defect.
    problem, solve = _problem_and_solver(model)
    rtols = _recorded_rtols(model, monkeypatch)
    work = getattr(vortexlab, model)._Work
    point = work.point
    monkeypatch.setattr(
        work, "point", lambda self, y1, y2: point(self, y1, y2)._replace(sup=0.0, defect=1e-3)
    )
    with pytest.raises(MaxIterExceeded, match=r"integral defect 1\.000e-03 above its floor"):
        solve(problem, max_iter=3)
    assert rtols == [0.1] * 3


def test_pcg_of_a_zero_right_hand_side_is_zero():
    zero = np.zeros((8, 8))
    x1, x2, iterations = pcg_pair(_not_called, _not_called, zero, zero, rtol=0.1)
    assert iterations == 0 and not x1.any() and not x2.any()


def test_pcg_stops_where_the_residual_norm_overflows():
    # A diagonal SPD operator on the packed spectrum, with eigenvalues spread
    # over 16 decades, and a right-hand side near the top of the float range:
    # CG's residual grows until its squared norm overflows. CG used to run on
    # with an infinite norm to its iteration cap; it now stops at that step
    # and returns the iterate before it.
    n = 8
    weights = np.logspace(0, 16, n * n).reshape(n, n)
    spectrum = np.full((n, n), 1e146, dtype=complex)
    spectrum[0, 0] = 1e150
    b = np.fft.ifft2(spectrum)

    def run(scale):
        handed = []

        def prec(R):
            handed.append(_dot(R, R))
            return 1e-12 * R

        return (*pcg_pair(lambda P: weights * P, prec, scale * b.real, scale * b.imag, 1e-3),
                handed)

    x1, x2, iterations, handed = run(1.0)
    assert np.isfinite(x1).all() and np.isfinite(x2).all() and x1.any()
    # every residual CG went on from had a finite norm, and the stop is the
    # iteration after the last of them
    assert np.isfinite(handed).all() and 1 < iterations == len(handed) < _CG_MAX_ITER
    # Scaled by 2**-200 the same iteration runs exactly scaled, without the
    # overflow: there the residual of the step CG stopped at has a squared
    # norm beyond the float range once scaled back.
    *_, scaled = run(2.0**-200)
    assert [v * 2.0**400 for v in scaled[:iterations]] == handed
    assert scaled[iterations] * 2.0**400 == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pcg_stops_at_a_step_without_curvature():
    # pcg_pair updates R in place after P = apply_prec(R), so a
    # preconditioner must return a new array; one that returns its input
    # aliases P to R
    rng = np.random.default_rng(5)
    b1, b2 = rng.standard_normal((2, 8, 8))
    x1, x2, _ = pcg_pair(lambda P: 2.0 * P, lambda P: P.copy(), b1, b2, 1e-12)
    assert np.abs(x1 - b1 / 2).max() < 1e-15 and np.abs(x2 - b2 / 2).max() < 1e-15
    # an indefinite operator, a step beyond 1/eps and a NaN curvature: each
    # stops at the first iteration with the zero iterate
    for op in (lambda P: -P, lambda P: 1e-300 * P, lambda P: np.full_like(P, np.nan)):
        x1, x2, iterations = pcg_pair(op, lambda P: P.copy(), b1, b2, 1e-12)
        assert iterations == 1 and not x1.any() and not x2.any()
        assert np.isfinite(x1).all() and np.isfinite(x2).all()


def _nan_direction(apply_op, apply_prec, b1, b2, rtol):
    return np.full_like(b1, np.nan), np.full_like(b2, np.nan), 1


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_nan_direction_falls_back_to_the_gradient(model, monkeypatch):
    # a slope that is not a finite negative number, NaN included, takes the
    # preconditioned gradient in both models
    problem, solve = _problem_and_solver(model)
    monkeypatch.setattr(getattr(vortexlab, model), "pcg_pair", _nan_direction)
    sol = solve(problem)
    assert sol.trace[1]["kind"] == "gradient"
    assert {e["kind"] for e in sol.trace[1:]} <= {"gradient"}


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_line_search_failure_is_one_class(model, monkeypatch):
    # both Newton solvers go through one driver, so trials that no step
    # length can accept end the same way in each model
    problem, solve = _problem_and_solver(model)
    work = getattr(vortexlab, model)._Work
    point = work.point
    calls = []

    def infinite_after_the_polished_start(self, y1, y2):
        result = point(self, y1, y2)
        calls.append(None)
        return result if len(calls) <= 1 else result._replace(I=np.inf)

    monkeypatch.setattr(work, "point", infinite_after_the_polished_start)
    with pytest.raises(DivergedIterate, match="line search failed") as exc:
        solve(problem)
    assert [e["kind"] for e in exc.value.trace] == ["init"]
    # the polished start and 40 trials
    assert len(calls) == 41


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_trial_whose_polish_fails_is_refused_and_halved(model, monkeypatch):
    # A BracketFailure in a trial's polish refuses that trial only: the line
    # search halves the step and goes on. Each polish takes two shifts, so
    # the 3rd shift is the first trial's; tw ended 1.7e-11 from the default
    # solve, vav 1.4e-10 away after 6 iterations against 5.
    problem, solve = _problem_and_solver(model)
    reference = solve(problem)
    work = getattr(vortexlab, model)._Work
    shift = work.shift
    calls = []

    def failing_third(self, x, target):
        calls.append(None)
        if len(calls) == 3:
            raise BracketFailure("stub: no bracket for the first trial")
        return shift(self, x, target)

    monkeypatch.setattr(work, "shift", failing_third)
    sol = solve(problem)
    assert (sol.trace[1]["kind"], sol.trace[1]["step"]) == ("newton", 0.5)
    for got, want in ((sol.U, reference.U), (sol.V, reference.V)):
        assert np.abs(got.values - want.values).max() < 1e-9


def test_solver_settings_accepted():
    for tol, max_iter in [(1e-8, None), (np.float64(1e-3), np.int64(1)), (1, 50)]:
        check_solver_settings(tol, max_iter)
