import numpy as np
import pytest

from vortexlab import (
    BracketFailure,
    ConfigurationError,
    Inadmissible,
    Stagnation,
    TorusGeometry,
    VortexConfiguration,
    apply_T,
    check_admissibility,
    constraint_shift,
    f_fun,
    f_fun_t,
    grad_energy,
    solve_vav,
    vav_problem,
    vav_quantized_integrals,
)
from vortexlab.kernels import df_half, f_half
from vortexlab.sources import BackgroundSet, background
from vortexlab.vav import VAVProblem, _shift

PI = np.pi

# frozen from the 1024^2-sample quadrature root-find (1048576 nodes) for the
# four-mode test field below on the L = 6 torus
C_ORACLE = -0.0008608220412962638


@pytest.fixture(scope="module")
def geom():
    return TorusGeometry(6.0, 6.0, 64, 64)


@pytest.fixture(scope="module")
def balanced(geom):
    cfg = VortexConfiguration(zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)])
    problem = vav_problem(geom, cfg)
    return problem, solve_vav(problem)


def four_mode_field(geom):
    x1, x2 = geom.nodes()
    L = geom.L1
    return (
        0.7 * np.cos(2 * PI * x1 / L)
        + 0.4 * np.sin(4 * PI * x2 / L)
        + 0.25 * np.cos(2 * PI * (x1 + x2) / L)
        + 0.15 * np.sin(2 * PI * x1 / L) * np.cos(2 * PI * x2 / L)
    )


# ---------------------------------------------------------------- f_fun ----


def test_f_fun_symmetric_zero():
    assert f_fun(1.3, 1.3, 0.0) == 0.0


def test_f_fun_matches_exponential_form():
    rng = np.random.default_rng(0)
    s1, s2, t = rng.normal(size=(3, 1000))
    direct = (np.exp(s1 + t) - np.exp(s2)) / (np.exp(s1 + t) + np.exp(s2))
    np.testing.assert_allclose(f_fun(s1, s2, t), direct, rtol=1e-12)


def test_f_fun_strictly_inside_unit_interval():
    # |f| < 1 for finite arguments; double precision can witness the strict
    # inequality only while |s1 - s2 + t| stays under ~38 (tanh rounds to 1
    # beyond that), so the triples are drawn at unit-ish scale
    rng = np.random.default_rng(1)
    s1, s2, t = 3.0 * rng.standard_normal((3, 10000))
    vals = f_fun(s1, s2, t)
    assert (np.abs(vals) < 1.0).all()


def test_f_fun_saturates_at_infinity():
    assert f_fun(np.inf, 0.0, 0.0) == 1.0
    assert f_fun(0.0, np.inf, 0.0) == -1.0
    assert f_fun(0.0, 0.0, -np.inf) == -1.0


def test_f_fun_derivative_by_finite_differences():
    rng = np.random.default_rng(2)
    s1, s2, t = rng.normal(size=(3, 100)) * 2.0
    eps = 1e-6
    fd = (f_fun(s1, s2, t + eps) - f_fun(s1, s2, t - eps)) / (2 * eps)
    np.testing.assert_allclose(fd, f_fun_t(s1, s2, t), atol=1e-8)
    assert (f_fun_t(s1, s2, t) > 0.0).all()
    assert (f_fun_t(s1, s2, t) <= 0.5).all()


# -------------------------------------------------------- admissibility ----


def test_admissibility_balanced(geom):
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], poles_q=[(4.0, 4.0, 1)])
    assert check_admissibility(cfg, geom) == (0.0, 0.0)


def test_admissibility_single_vortex_values():
    geom = TorusGeometry(2 * PI, 2 * PI, 16, 16)  # |S| = 4 pi^2
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)])
    a, b = check_admissibility(cfg, geom)
    assert a == pytest.approx(-1 / (4 * PI), rel=1e-12)
    assert b == pytest.approx(-1 / (4 * PI), rel=1e-12)


def test_admissibility_rejects_when_bound_hit():
    geom = TorusGeometry(PI, 1.0, 16, 16)  # |S| = pi, needs |N1| < 1
    cfg = VortexConfiguration(zeros_q=[(0.5, 0.5, 4)])
    with pytest.raises(Inadmissible) as exc:
        check_admissibility(cfg, geom)
    assert exc.value.margin_a < 0
    assert exc.value.margin_b < 0


def test_admissibility_sharp_total_bound():
    # N1 = 3, others 0: both bounds read 3 pi / |S| < 1, flip at |S| = 3 pi
    cfg = VortexConfiguration(zeros_q=[(0.1, 0.1, 3)])
    L = np.sqrt(3 * PI)
    with pytest.raises(Inadmissible):
        check_admissibility(cfg, TorusGeometry(L * (1 - 1e-6), L, 16, 16))
    check_admissibility(cfg, TorusGeometry(L * (1 + 1e-6), L, 16, 16))


def test_admissibility_sharp_weighted_bound():
    # N2 = 2, others 0: |a| = 2 pi/|S| but |b| = 4 pi/|S| binds, flip at 4 pi
    cfg = VortexConfiguration(zeros_p=[(0.1, 0.1, 2)])
    L = np.sqrt(4 * PI)
    with pytest.raises(Inadmissible) as exc:
        check_admissibility(cfg, TorusGeometry(L * (1 - 1e-6), L, 16, 16))
    assert exc.value.margin_a > 0  # only the weighted bound is violated
    assert exc.value.margin_b <= 0
    check_admissibility(cfg, TorusGeometry(L * (1 + 1e-6), L, 16, 16))


# ------------------------------------------------------ constraint shift ----


def test_constraint_shift_closed_form(geom):
    zero = geom.zeros()
    for a in (-0.9, 0.0, 0.5):
        c = constraint_shift(zero, zero, zero, a * geom.area, geom)
        assert c == pytest.approx(2 * np.arctanh(a), abs=1e-10)


def test_constraint_shift_log3(geom):
    zero = geom.zeros()
    c = constraint_shift(zero, zero, zero, 0.5 * geom.area, geom)
    assert c == pytest.approx(np.log(3.0), abs=1e-10)


def test_constraint_shift_fine_quadrature_oracle(geom):
    W = four_mode_field(geom)
    c = _shift(W, 0.0, geom)
    assert c == pytest.approx(C_ORACLE, abs=1e-9)


def test_constraint_shift_reflection_identities(geom):
    W = four_mode_field(geom)
    c = _shift(W, 0.0, geom)
    # x -> -x on the node set: reverse both axes and roll the origin back
    refl = np.roll(W[::-1, ::-1], (1, 1), axis=(0, 1))
    assert _shift(refl, 0.0, geom) == pytest.approx(c, abs=1e-12)
    assert _shift(-refl, 0.0, geom) == pytest.approx(-c, abs=1e-12)


def test_constraint_shift_residual_tolerance(geom):
    W = four_mode_field(geom)
    target = 0.3 * geom.area
    c = _shift(W, target, geom)
    assert abs(geom.quad(f_half(W + c)) - target) <= 1e-12


def test_constraint_shift_bracket_failure(geom):
    zero = geom.zeros()
    with pytest.raises(BracketFailure):
        constraint_shift(zero, zero, zero, 1.0001 * geom.area, geom)


# The constraint shift before its warm start, kept verbatim: _shift must return
# the same float for every guess, so that fixed-point iterates, traces and
# field dumps do not move in their last bits.
_SHIFT_TOL = 1e-12
_SHIFT_BRACKET = 700.0


def _shift_reference(base, target, geom, bracket=_SHIFT_BRACKET):
    """Unique c with quad(tanh((base + c)/2)) = target.

    The map is strictly increasing in c, so bisection on [-bracket, bracket]
    followed by Newton polishing converges; |integral - target| <= 1e-12 at
    the returned c. BracketFailure signals saturated or inadmissible data.
    """

    def g(c):
        return geom.quad(f_half(base + c)) - target

    lo, hi = -bracket, bracket
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise BracketFailure(
            f"integral does not cross target within |c| <= {bracket:g} "
            f"(g({lo:g}) = {g_lo:.3e}, g({hi:g}) = {g_hi:.3e})"
        )
    c = 0.0
    g_c = g(c)
    for _ in range(30):
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


def _smooth_field(geom, rng, amplitude):
    """A random trigonometric polynomial with modes |k| <= 3 on the torus."""
    x1, x2 = geom.nodes()
    W = np.zeros_like(x1)
    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            phase = 2 * PI * (k1 * x1 / geom.L1 + k2 * x2 / geom.L2)
            W += rng.standard_normal() * np.cos(phase + rng.uniform(0, 2 * PI))
    return amplitude * W / np.abs(W).max()


def _warm_guesses(root):
    return (0.0, root, root + 1e-6, root - 1e-6, 5.0, -5.0, 650.0, -650.0)


def test_shift_matches_cold_bisection_bit_for_bit(geom):
    rng = np.random.default_rng(11)
    for base in [_smooth_field(geom, rng, amp) for amp in (0.5, 2.0, 6.0)]:
        for frac in (-0.9, -0.3, 0.0, 0.4, 0.95):
            target = frac * geom.area
            root = _shift_reference(base, target, geom)
            for guess in _warm_guesses(root):
                assert _shift(base, target, geom, guess) == root, (frac, guess)


def test_shift_closed_forms_match_cold_bisection(geom):
    zero = geom.zeros()
    for a in (-0.9, 0.0, 0.5, 0.999):
        root = _shift_reference(zero.values, a * geom.area, geom)
        assert constraint_shift(zero, zero, zero, a * geom.area, geom) == root
        for guess in _warm_guesses(2 * np.arctanh(a)):
            assert _shift(zero.values, a * geom.area, geom, guess) == root, (a, guess)


def test_shift_bracket_failure_message_unchanged(geom):
    W = _smooth_field(geom, np.random.default_rng(12), 1.0)
    for frac in (1.0001, -1.0001):
        target = frac * geom.area
        with pytest.raises(BracketFailure) as ref:
            _shift_reference(W, target, geom)
        for guess in (0.0, 3.0, -3.0, 650.0, -650.0):
            with pytest.raises(BracketFailure) as exc:
                _shift(W, target, geom, guess)
            assert str(exc.value) == str(ref.value), (frac, guess)


# ---------------------------------------------------------------- apply_T ----


def _degenerate_problem(geom):
    """Balanced counts with identical zero/pole backgrounds for section q."""
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], poles_q=[(4.0, 4.0, 1)])
    sigma = 2 * geom.h1
    same = background(geom, [(3.0, 3.0, 1)], sigma)
    zero = geom.zeros()
    bset = BackgroundSet(
        u01=same, u02=same, v01=zero, v02=zero, N1=1, P1=1, N2=0, P2=0, sigma=sigma
    )
    return VAVProblem(
        geometry=geom, config=cfg, backgrounds=bset, a=0.0, b=0.0, sigma=sigma
    )


def test_apply_T_degenerate_fixed_point(geom):
    problem = _degenerate_problem(geom)
    t1, t2 = apply_T(geom.zeros(), geom.zeros(), problem)
    assert np.abs(t1.values).max() == 0.0
    assert np.abs(t2.values).max() == 0.0


def test_apply_T_outputs_mean_zero(balanced):
    problem, _ = balanced
    geom = problem.geometry
    rng = np.random.default_rng(3)
    U = geom.field(rng.standard_normal((geom.n1, geom.n2)))
    V = geom.field(rng.standard_normal((geom.n1, geom.n2)))
    t1, t2 = apply_T(U, V, problem)
    assert abs(t1.values.mean()) < 1e-10
    assert abs(t2.values.mean()) < 1e-10


def test_apply_T_bound_structure(balanced):
    # with a = b = 0 the shifted right sides obey |r1| < 12, |r2| < 8, and
    # the outputs satisfy the energy bound |grad T|^2 <= bound * int |T|
    problem, _ = balanced
    geom = problem.geometry
    work_du = problem.backgrounds.u01.values - problem.backgrounds.u02.values
    work_dv = problem.backgrounds.v01.values - problem.backgrounds.v02.values
    rng = np.random.default_rng(4)
    U = rng.standard_normal((geom.n1, geom.n2))
    V = rng.standard_normal((geom.n1, geom.n2))
    c1 = _shift(work_du + U, 0.0, geom)
    c2 = _shift(work_dv + V, 0.0, geom)
    fu = np.tanh(0.5 * (work_du + U + c1))
    fv = np.tanh(0.5 * (work_dv + V + c2))
    r1 = 8 * fu - 4 * fv
    r2 = -4 * fu + 4 * fv
    assert np.abs(r1).max() < 12.0
    assert np.abs(r2).max() < 8.0
    t1, t2 = apply_T(geom.field(U), geom.field(V), problem)
    assert grad_energy(t1) <= 12.0 * geom.quad(np.abs(t1.values)) + 1e-12
    assert grad_energy(t2) <= 8.0 * geom.quad(np.abs(t2.values)) + 1e-12


# ------------------------------------------------------------- solve_vav ----


def test_solve_vacuum_exact(geom):
    problem = vav_problem(geom, VortexConfiguration())
    sol = solve_vav(problem)
    assert sol.iterations == 0
    assert np.abs(sol.U.values).max() == 0.0
    assert np.abs(sol.V.values).max() == 0.0


def test_solve_balanced_quantized(balanced):
    problem, sol = balanced
    qi = vav_quantized_integrals(sol, problem)
    assert abs(qi["Iu"]) <= 1e-2 * problem.geometry.area
    assert abs(qi["Iv"]) <= 1e-2 * problem.geometry.area


def test_solve_single_vortex_quantized(geom):
    problem = vav_problem(geom, VortexConfiguration(zeros_q=[(2.9, 3.3, 1)]))
    sol = solve_vav(problem)
    qi = vav_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(PI, rel=1e-2)


def test_quantized_integrals_mixed_counts(geom):
    # N1 = 2, P1 = 1: both integrals pin to pi
    cfg = VortexConfiguration(
        zeros_q=[(1.2, 1.4, 1), (3.8, 4.4, 1)], poles_q=[(5.0, 2.0, 1)]
    )
    problem = vav_problem(geom, cfg)
    sol = solve_vav(problem)
    qi = vav_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(PI, rel=1e-2)


def test_quantized_integrals_second_species(geom):
    # N2 = 1, others 0: Iu = pi, Iv = 2 pi
    problem = vav_problem(geom, VortexConfiguration(zeros_p=[(2.5, 2.5, 1)]))
    sol = solve_vav(problem)
    qi = vav_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(2 * PI, rel=1e-2)


def test_solution_pointwise_bounds(balanced):
    _, sol = balanced
    assert (np.abs(np.tanh(0.5 * sol.u.values)) < 1.0).all()
    assert (np.abs(np.tanh(0.5 * sol.v.values)) < 1.0).all()


def test_newton_residual_certified(balanced):
    from vortexlab import residual_report

    problem, sol = balanced
    assert residual_report(sol, problem)["sup"] < 1e-8
    assert sol.final_residual < 1e-8


def test_fixed_point_agrees_with_newton_small_torus():
    geom = TorusGeometry(4.0, 4.0, 64, 64)
    cfg = VortexConfiguration(zeros_q=[(1.1, 1.5, 1)], poles_q=[(2.9, 2.6, 1)])
    problem = vav_problem(geom, cfg)
    newton = solve_vav(problem)
    picard = solve_vav(problem, method="fixed_point")
    diff = max(
        np.abs(newton.U.values - picard.U.values).max(),
        np.abs(newton.V.values - picard.V.values).max(),
    )
    assert diff < 1e-5


def test_fixed_point_constraint_at_return(balanced):
    problem, _ = balanced
    sol = solve_vav(problem, method="fixed_point")
    geom = problem.geometry
    # the returned fields carry the final shifts, so the integral constraints
    # hold at the shift root-find tolerance
    fu = np.tanh(0.5 * sol.u.values)
    fv = np.tanh(0.5 * sol.v.values)
    assert abs(geom.quad(fu) - problem.a * geom.area) <= 2e-12
    assert abs(geom.quad(fv) - problem.b * geom.area) <= 2e-12


@pytest.mark.parametrize("method", ["newton", "fixed_point"])
def test_wrong_shape_start_rejected(geom, method):
    problem = vav_problem(geom, VortexConfiguration())
    x0 = (np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ConfigurationError):
        solve_vav(problem, method=method, x0=x0)


def test_fixed_point_stagnation_on_large_torus():
    geom = TorusGeometry(8.0, 8.0, 64, 64)
    cfg = VortexConfiguration(zeros_q=[(2.2, 3.0, 1)], poles_q=[(5.8, 5.2, 1)])
    problem = vav_problem(geom, cfg)
    with pytest.raises(Stagnation) as exc:
        solve_vav(problem, method="fixed_point")
    assert len(exc.value.trace) > 50


def test_anisotropic_grid_quantized_integrals():
    geom = TorusGeometry(5.0, 7.5, 96, 64)
    cfg = VortexConfiguration(zeros_q=[(1.3, 5.9, 1)], poles_p=[(3.7, 2.2, 1)])
    problem = vav_problem(geom, cfg)
    sol = solve_vav(problem)
    qi = vav_quantized_integrals(sol, problem)
    assert abs(qi["Iu"]) <= 1e-2 * geom.area
    assert qi["Iv"] == pytest.approx(-PI, rel=1e-2)


def test_shifted_and_unshifted_residuals_match(balanced):
    problem, sol = balanced
    geom = problem.geometry
    bg = problem.backgrounds
    du = bg.u01.values - bg.u02.values
    dv = bg.v01.values - bg.v02.values
    fu = np.tanh(0.5 * (du + sol.U.values))
    fv = np.tanh(0.5 * (dv + sol.V.values))
    l1, l2 = geom.lap_pair(sol.U.values, sol.V.values)
    N1, P1, N2, P2 = problem.config.counts()
    r1_direct = l1 - (8 * fu - 4 * fv + 4 * PI * (N1 - P1) / geom.area)
    r2_direct = l2 - (-4 * fu + 4 * fv + 4 * PI * (N2 - P2) / geom.area)
    r1_shift = l1 - (8 * (fu - problem.a) - 4 * (fv - problem.b))
    r2_shift = l2 - (-4 * (fu - problem.a) + 4 * (fv - problem.b))
    assert np.abs(r1_direct - r1_shift).max() < 1e-12
    assert np.abs(r2_direct - r2_shift).max() < 1e-12
