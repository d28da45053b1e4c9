import numpy as np
import pytest

import vortexlab.tw
import vortexlab.vav
from vortexlab import (
    ConfigurationError,
    DivergedIterate,
    NonZeroMean,
    TorusGeometry,
    VortexConfiguration,
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
from vortexlab.surface import check_solver_settings


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


def test_geometry_equality():
    assert TorusGeometry(1.0, 2.0, 16, 32) == TorusGeometry(1.0, 2.0, 16, 32)
    assert TorusGeometry(1.0, 2.0, 16, 32) != TorusGeometry(1.0, 2.0, 16, 16)


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


def _nan_direction(apply_op, apply_prec, b1, b2, rtol, max_iter=500):
    return np.full_like(b1, np.nan), np.full_like(b2, np.nan), 1


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_line_search_failure_is_one_class(model, monkeypatch):
    # both Newton solvers go through one driver, so a direction that no step
    # length can accept ends the same way in each model
    problem, solve = _problem_and_solver(model)
    monkeypatch.setattr(getattr(vortexlab, model), "pcg_pair", _nan_direction)
    with pytest.raises(DivergedIterate, match="line search failed") as exc:
        solve(problem)
    assert [e["kind"] for e in exc.value.trace] == ["init"]


def test_solver_settings_accepted():
    for tol, max_iter in [(1e-8, None), (np.float64(1e-3), np.int64(1)), (1, 50)]:
        check_solver_settings(tol, max_iter)
