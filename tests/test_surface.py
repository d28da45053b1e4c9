import ast
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
    NonZeroMean,
    SolverError,
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
from vortexlab.surface import check_relaxation, check_solver_settings, pack_pair, unpack_pair


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


def test_packed_spectrum_operations():
    # a non-square grid, so that a wrong -k index or axis shows
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    a = random_field(geom, 11).values
    b = random_field(geom, 12).values
    P = pack_pair(a, b)
    a2, b2 = unpack_pair(P)
    assert np.abs(a2 - a).max() < 1e-13 and np.abs(b2 - b).max() < 1e-13
    m = ((8.0, -4.0), (-3.0, 0.5))
    mixed = unpack_pair(geom.mix_packed(P, m))
    assert np.abs(mixed[0] - (8.0 * a - 4.0 * b)).max() < 1e-12
    assert np.abs(mixed[1] - (-3.0 * a + 0.5 * b)).max() < 1e-12
    for got, want in zip(unpack_pair(geom.lap_packed(P)), geom.lap_pair(a, b)):
        assert np.abs(got - want).max() < 1e-12
    helmholtz = geom.elliptic_inverse_packed(((1.0, 0.0), (0.0, 1.0)), ((0.25, 0.0), (0.0, 0.25)))
    for got, want in zip(unpack_pair(helmholtz(P)), geom.helmholtz_pair(a, b, 0.25)):
        assert np.abs(got - want).max() < 1e-12
    assert geom.grad_sq_packed(P) == pytest.approx(
        geom.grad_sq(a) + geom.grad_sq(b), rel=1e-13
    )


@pytest.mark.parametrize(
    "L, M",
    [
        # tw: -Lap plus a mean coupling matrix [[4e1 + e2, -e2], [-e2, e2]]
        (((1.0, 0.0), (0.0, 1.0)), ((4 * 0.7 + 0.05, -0.05), (-0.05, 0.05))),
        # vav: -AINV*Lap plus diag(mean d1, mean d2)
        (vortexlab.vav._AINV, ((0.3, 0.0), (0.0, 0.1))),
    ],
    ids=["identity", "ainv"],
)
def test_elliptic_inverse_packed_is_the_per_mode_solve(L, M):
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    a = random_field(geom, 13).values
    b = random_field(geom, 14).values
    x1, x2 = unpack_pair(geom.elliptic_inverse_packed(L, M)(pack_pair(a, b)))
    # a direct 2x2 solve per mode on the spectra of a and b
    ksq = -geom._lap_sym
    K = ksq[..., None, None] * np.array(L) + np.array(M)
    rhs = np.stack([np.fft.fft2(a), np.fft.fft2(b)], axis=-1)[..., None]
    X = np.linalg.solve(K, rhs)[..., 0]
    want1, want2 = np.fft.ifft2(X[..., 0]).real, np.fft.ifft2(X[..., 1]).real
    assert np.abs(x1 - want1).max() < 1e-12 and np.abs(x2 - want2).max() < 1e-12
    # and the residual of (-L*Lap + M) x = (a, b) on the grid
    l1, l2 = geom.lap_pair(x1, x2)
    (l11, l12), (_, l22) = L
    (m11, m12), (_, m22) = M
    r1 = -(l11 * l1 + l12 * l2) + m11 * x1 + m12 * x2 - a
    r2 = -(l12 * l1 + l22 * l2) + m12 * x1 + m22 * x2 - b
    assert np.abs(r1).max() <= 1e-12 and np.abs(r2).max() <= 1e-12


def test_elliptic_inverse_packed_finite_on_degenerate_means():
    # tw means where e1 underflowed next to a huge e2: the zero-mode block
    # is singular in floating point and is kept invertible by the floor
    geom = TorusGeometry(5.0, 7.5, 16, 24)
    m1, m2 = vortexlab.surface.bounded_means(np.zeros((2, 2)), np.full((2, 2), 1e300))
    assert (m1, m2) == (1e-12, 1e12)
    prec = geom.elliptic_inverse_packed(((1.0, 0.0), (0.0, 1.0)), ((4 * m1 + m2, -m2), (-m2, m2)))
    with np.errstate(all="raise"):
        out = prec(pack_pair(random_field(geom, 15).values, random_field(geom, 16).values))
    assert np.isfinite(out).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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


@pytest.mark.parametrize(
    "model, method",
    [("tw", "newton"), ("vav", "newton"), ("vav", "fixed_point")],
    ids=["tw", "vav", "vav-fixed_point"],
)
def test_fft2_counts_per_layer(model, method, monkeypatch):
    # The inner CG runs on packed spectra: per iteration one transform pair
    # for the pointwise part of the operator, plus one to pack the
    # right-hand side and one to unpack the solution. A tw evaluate packs
    # (f, h) once for both Laplacians and both Dirichlet energies, and a
    # line-search trial needs only the energies. A fixed-point iteration
    # makes two real pairs (its inverse Laplacians); one complex pair starts
    # the carried Laplacians and one checks the residual at convergence.
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

    def measured(name, fn, cg=False):
        def wrapped(*args, **kwargs):
            before = sum(count.values())
            result = fn(*args, **kwargs)
            calls.setdefault(name, []).append(
                (sum(count.values()) - before, result[2] if cg else None)
            )
            return result

        return wrapped

    monkeypatch.setattr(module, "pcg_pair", measured("pcg", module.pcg_pair, cg=True))
    if model == "tw":
        work = vortexlab.tw._Work
        monkeypatch.setattr(work, "evaluate", measured("evaluate", work.evaluate))
        monkeypatch.setattr(work, "merit", measured("merit", work.merit))
    sol = solve(problem, method=method)
    if method == "fixed_point":
        assert sol.iterations > 0 and "pcg" not in calls
        it = sol.iterations
        assert count == {"fft2": 2, "ifft2": 2, "rfft2": 2 * it, "irfft2": 2 * it}
        return
    assert count["rfft2"] == count["irfft2"] == 0
    assert calls["pcg"] and all(it > 0 for _, it in calls["pcg"])
    assert [n for n, _ in calls["pcg"]] == [2 * it + 2 for _, it in calls["pcg"]]
    # the preconditioner inverts the operator's constant part exactly; with
    # the inverse-Helmholtz one these solves took 29 (tw) and 25 (vav)
    assert sum(it for _, it in calls["pcg"]) <= {"tw": 18, "vav": 15}[model]
    if model == "tw":
        assert calls["evaluate"] and {n for n, _ in calls["evaluate"]} == {2}
        assert calls["merit"] and {n for n, _ in calls["merit"]} == {1}


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


def test_unknown_vav_method_rejected_before_work(monkeypatch):
    problem, solve = _problem_and_solver("vav")
    monkeypatch.setattr(vortexlab.vav, "_Work", _no_work)
    with pytest.raises(ConfigurationError, match="unknown method"):
        solve(problem, method="bogus")


# A relaxation factor outside (0, 1] used to run: 0 ended in Stagnation
# after 50 iterations, and -1, 3 and NaN in BracketFailure from the shifts.
@pytest.mark.parametrize("omega", [0.0, -1.0, 3.0, float("nan"), float("inf")])
def test_fixed_point_relaxation_outside_unit_interval_rejected(omega, monkeypatch):
    problem, solve = _problem_and_solver("vav")
    monkeypatch.setattr(vortexlab.vav, "_Work", _no_work)
    with pytest.raises(ConfigurationError, match="omega"):
        solve(problem, method="fixed_point", omega=omega)


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


# Starts where every exponential underflows (tw) or every tanh saturates
# (vav): the Newton operator is singular on constants. The inner CG used to
# take an infinite step there, and the solve ran on NaN trials.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, start", [("tw", (-800.0, -2400.0)), ("vav", (50.0, -50.0))])
def test_degenerate_start_fails_as_a_solver_error(model, start):
    problem, solve = _problem_and_solver(model)
    x0 = tuple(np.full((32, 32), c) for c in start)
    with pytest.raises(SolverError):
        solve(problem, x0=x0)


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
    for omega in (1, 1.0, 0.5, np.float64(1e-3)):
        check_relaxation(omega)
