import dataclasses

import numpy as np
import pytest

import vortexlab.vav
from vortexlab import (
    BracketFailure,
    ConfigurationError,
    Inadmissible,
    SolverError,
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
from vortexlab._linalg import Solution
from vortexlab.diagnostics import _curvature_arrays, _residuals, residual_report
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
    c = _shift(W, 0.0, geom)[0]
    assert c == pytest.approx(C_ORACLE, abs=1e-9)


def test_constraint_shift_reflection_identities(geom):
    W = four_mode_field(geom)
    c = _shift(W, 0.0, geom)[0]
    # x -> -x on the node set: reverse both axes and roll the origin back
    refl = np.roll(W[::-1, ::-1], (1, 1), axis=(0, 1))
    assert _shift(refl, 0.0, geom)[0] == pytest.approx(c, abs=1e-12)
    assert _shift(-refl, 0.0, geom)[0] == pytest.approx(-c, abs=1e-12)


def test_constraint_shift_residual_tolerance(geom):
    W = four_mode_field(geom)
    target = 0.3 * geom.area
    c = _shift(W, target, geom)[0]
    assert abs(geom.quad(f_half(W + c)) - target) <= 1e-12


def test_constraint_shift_bracket_failure(geom):
    zero = geom.zeros()
    with pytest.raises(BracketFailure):
        constraint_shift(zero, zero, zero, 1.0001 * geom.area, geom)


@pytest.mark.parametrize(
    "fields, other",
    [((6.0, 6.0, 32, 32), (12.0, 12.0, 32, 32)), ((6.0, 6.0, 16, 16), (6.0, 6.0, 32, 32))],
)
def test_constraint_shift_refuses_a_geometry_not_the_fields(fields, other):
    # the integral used to be taken over the other geometry: a wrong shift
    # on an equal grid of another area, a BracketFailure on a finer grid
    on = TorusGeometry(*fields)
    W = on.field(four_mode_field(on))
    zero = on.zeros()
    target = 0.3 * on.area
    with pytest.raises(ConfigurationError, match="geometry other than geom"):
        constraint_shift(W, zero, zero, target, TorusGeometry(*other))
    c = constraint_shift(W, zero, zero, target, on)
    assert abs(on.quad(f_half(W.values + c)) - target) <= 1e-12


# The constraint shift before its warm start (a cold bisection on
# [-700, 700], then Newton polishing), kept verbatim as the oracle: from every
# guess, _shift must meet the residual tolerance and land within 2e-12 of the
# root this procedure returns.
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


def _assert_root(c, base, target, geom, root, label):
    assert abs(geom.quad(f_half(base + c)) - target) <= 1e-12, label
    assert abs(c - root) <= 2e-12, label


def test_shift_matches_cold_bisection_root(geom):
    rng = np.random.default_rng(11)
    for base in [_smooth_field(geom, rng, amp) for amp in (0.5, 2.0, 6.0)]:
        for frac in (-0.9, -0.3, 0.0, 0.4, 0.95):
            target = frac * geom.area
            root = _shift_reference(base, target, geom)
            for guess in _warm_guesses(root):
                c = _shift(base, target, geom, guess)[0]
                _assert_root(c, base, target, geom, root, (frac, guess))


def test_shift_closed_forms_match_cold_bisection(geom):
    zero = geom.zeros()
    for a in (-0.9, 0.0, 0.5, 0.999):
        target = a * geom.area
        root = _shift_reference(zero.values, target, geom)
        c = constraint_shift(zero, zero, zero, target, geom)
        _assert_root(c, zero.values, target, geom, root, a)
        for guess in _warm_guesses(2 * np.arctanh(a)):
            c = _shift(zero.values, target, geom, guess)[0]
            _assert_root(c, zero.values, target, geom, root, (a, guess))


def test_shift_from_a_close_guess_takes_at_most_three_tanh(geom, monkeypatch):
    # each grid-wide tanh (f_half or df_half) is one evaluation
    calls = []

    def counted(kernel):
        def wrapper(x):
            calls.append(1)
            return kernel(x)

        return wrapper

    monkeypatch.setattr(vortexlab.vav, "f_half", counted(f_half))
    monkeypatch.setattr(vortexlab.vav, "df_half", counted(df_half))
    rng = np.random.default_rng(11)
    for base in [_smooth_field(geom, rng, amp) for amp in (0.5, 2.0, 6.0)]:
        for frac in (-0.9, -0.3, 0.0, 0.4, 0.95):
            target = frac * geom.area
            root = _shift_reference(base, target, geom)
            for guess in (root + 1e-6, root - 1e-6):
                calls.clear()
                _shift(base, target, geom, guess)
                assert len(calls) <= 3, (frac, guess, len(calls))


def test_shift_accepts_a_rounding_level_residual_on_a_large_torus():
    # areas 1e6 and 1e8: the quadrature rounds at about eps*area (2e-10 and
    # 2e-8), so |g| <= 1e-12 is out of reach for some targets. At area 1e8
    # an absolute 1e-9 acceptance raised BracketFailure on 2 of these 20
    # inputs, and so does the cold bisection.
    for L in (1000.0, 10000.0):
        geom = TorusGeometry(L, L, 64, 64)
        rng = np.random.default_rng(0)
        for _ in range(20):
            base = 3.0 * rng.standard_normal((64, 64))
            target = rng.uniform(-0.9, 0.9) * geom.area

            def g(c):
                return geom.quad(f_half(base + c)) - target

            c = _shift(base, target, geom)[0]
            assert abs(g(c)) <= max(1e-9, 1e-15 * geom.area), L
            # g changes sign within 1e-12 of c, far above its rounding here
            assert g(c - 1e-12) < 0.0 < g(c + 1e-12), L
            try:
                root = _shift_reference(base, target, geom)
            except BracketFailure:
                continue
            assert c == pytest.approx(root, abs=1e-12), L


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


def test_shift_returns_the_tanh_at_the_shift_it_returns(geom, monkeypatch):
    # t is f_half(base + c) to the byte: the fixed-point loop uses it as fu
    # and fv in place of taking the tanh again
    rng = np.random.default_rng(13)
    for base in [_smooth_field(geom, rng, amp) for amp in (0.5, 2.0, 6.0)]:
        for frac in (-0.9, 0.0, 0.95):
            for guess in (0.0, 5.0, -650.0):
                c, t = _shift(base, frac * geom.area, geom, guess)
                assert t.tobytes() == f_half(base + c).tobytes(), (frac, guess)
    # a loop cut after one step returns the Newton step past its one
    # evaluated point, accepted at the 1e-9 level: t is taken there afresh
    base = _smooth_field(geom, rng, 2.0)
    target = 0.3 * geom.area
    root = _shift_reference(base, target, geom)
    monkeypatch.setattr(vortexlab.vav, "_SHIFT_STEPS", 1)
    accept = vortexlab.vav._SHIFT_ACCEPT * max(
        1.0, vortexlab.vav._QUAD_ROUNDING * geom.area / vortexlab.vav._SHIFT_TOL
    )
    c, t = _shift(base, target, geom, root + 1e-11)
    assert c != root + 1e-11
    assert t.tobytes() == f_half(base + c).tobytes()
    # and an accepted shift meets the acceptance at the c it returns
    assert abs(geom.quad(t) - target) <= accept
    # On a saturated base g' is 0, so the one step bisects from a start
    # within the acceptance to c = -350, where g is about -2 area. The loop
    # must judge that c, not its start, and so refuse it.
    base = np.full((geom.n1, geom.n2), 100.0)
    target = geom.quad(f_half(base)) - 0.5 * accept
    with pytest.raises(BracketFailure, match="stalled"):
        _shift(base, target, geom, 0.0)


# ---------------------------------------------------------------- apply_T ----


def _degenerate_problem(geom):
    """Balanced counts with identical zero/pole backgrounds for section q."""
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], poles_q=[(4.0, 4.0, 1)])
    sigma = 2 * geom.h1
    same = background(geom, [(3.0, 3.0, 1)], sigma)
    zero = geom.zeros()
    bset = BackgroundSet(u01=same, u02=same, v01=zero, v02=zero)
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
    c1 = _shift(work_du + U, 0.0, geom)[0]
    c2 = _shift(work_dv + V, 0.0, geom)[0]
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


def _assert_shared_record(sol, problem):
    # the record is the shared one, with u = b1 + U and v = b2 + V bit for bit
    work = vortexlab.vav._Work(problem)
    assert isinstance(sol, Solution)
    assert np.array_equal(sol.u.values, work.b1 + sol.U.values)
    assert np.array_equal(sol.v.values, work.b2 + sol.V.values)


def test_solution_pointwise_bounds(balanced):
    problem, sol = balanced
    _assert_shared_record(sol, problem)
    assert sol.method == "newton" and sol.c1 == sol.c2 == 0.0
    assert (np.abs(np.tanh(0.5 * sol.u.values)) < 1.0).all()
    assert (np.abs(np.tanh(0.5 * sol.v.values)) < 1.0).all()


def test_newton_residual_certified(balanced):
    from vortexlab import residual_report

    problem, sol = balanced
    assert residual_report(sol, problem)["sup"] < 1e-8
    assert sol.final_residual < 1e-8


def test_newton_descends_the_functional_of_its_gradient(balanced):
    # Newton minimises I = 8J over (f, h) = (U, U + 2V), with the gradient
    # (-r1, -r1 - 2*r2): at a smooth non-solution the central difference of
    # I along D matches quad(g.D). Along each accepted trace I rises by no
    # more than the line search's rounding slack.
    problem, sol = balanced
    geom = problem.geometry
    work = vortexlab.vav._Work(problem)
    x1, x2 = geom.nodes()
    U = 0.5 * four_mode_field(geom) + 0.3
    V = -0.4 * np.cos(2 * PI * (x1 - 2 * x2) / geom.L1) - 0.1
    D1 = four_mode_field(geom) - 0.2
    D2 = np.sin(2 * PI * x1 / geom.L1) + 0.5
    f, h = U, U + 2.0 * V
    *_, g1, g2 = work.point(f, h)[5]
    fields = {"U": U, "V": V, "u": work.b1 + U, "v": work.b2 + V}
    moved = dataclasses.replace(sol, **{k: geom.field(a) for k, a in fields.items()})
    r1, r2 = _residuals(moved, problem, *_curvature_arrays(moved)[:2])
    assert np.abs(g1 + r1).max() < 1e-12 and np.abs(g2 + r1 + 2.0 * r2).max() < 1e-12
    slope = geom.quad(g1 * D1 + g2 * D2)
    eps = 1e-4
    I_plus = work.point(f + eps * D1, h + eps * D2)[0]
    I_minus = work.point(f - eps * D1, h - eps * D2)[0]
    assert (I_plus - I_minus) / (2 * eps) == pytest.approx(slope, rel=1e-6)
    traces = [sol.trace]
    for c in (4.0, -600.0):
        x0 = (np.full(U.shape, c), np.full(U.shape, -c))
        traces.append(solve_vav(problem, x0=x0).trace)
    for trace in traces:
        merit = [e["I"] for e in trace]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(merit, merit[1:]))


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
    _assert_shared_record(sol, problem)
    last = sol.trace[-1]
    assert sol.method == "fixed_point" and (sol.c1, sol.c2) == (last["c1"], last["c2"])
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


@pytest.mark.parametrize("L", [8.0, 16.0, 24.0])
def test_fixed_point_converges_on_large_tori(L):
    # the sources keep their fractional positions as the torus scales
    s = L / 8.0
    geom = TorusGeometry(L, L, 64, 64)
    cfg = VortexConfiguration(
        zeros_q=[(2.2 * s, 3.0 * s, 1)], poles_q=[(5.8 * s, 5.2 * s, 1)]
    )
    problem = vav_problem(geom, cfg)
    newton = solve_vav(problem)
    picard = solve_vav(problem, method="fixed_point")
    assert picard.final_residual < 1e-8
    diff = max(
        np.abs(newton.U.values - picard.U.values).max(),
        np.abs(newton.V.values - picard.V.values).max(),
    )
    assert diff < 1e-5


def test_fixed_point_stagnation_is_detected(monkeypatch):
    # a step that does not move the fields leaves the residual where it is
    problem = _fp_problem("balanced")
    monkeypatch.setattr(
        TorusGeometry,
        "solve_pair_projected",
        lambda self, a, b, M: (np.zeros_like(a), np.zeros_like(b)),
    )
    with pytest.raises(Stagnation) as exc:
        solve_vav(problem, method="fixed_point")
    assert len(exc.value.trace) > 50


def test_fixed_point_at_the_weighted_bound(monkeypatch):
    # One q-zero and one p-zero force a = -2 pi/|S| and b = -3 pi/|S|, so
    # the square torus of area 3 pi/(1 - eps) leaves the margin 1 - |b| = eps.
    # Towards the bound the coupled step takes no more iterations, the
    # fixed point stays within 1e-6 of Newton, and its carried Laplacians
    # stay exact: one lap_pair starts the carry and one checks the fields.
    calls = _counted_lap_pairs(monkeypatch)
    iterations = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        L = np.sqrt(3 * PI / (1 - eps))
        cfg = VortexConfiguration(
            zeros_q=[(0.3 * L, 0.4 * L, 1)], zeros_p=[(0.7 * L, 0.6 * L, 1)]
        )
        problem = vav_problem(TorusGeometry(L, L, 64, 64), cfg)
        assert 1.0 - abs(problem.b) == pytest.approx(eps, rel=1e-6)
        newton = solve_vav(problem)
        calls.clear()
        picard = solve_vav(problem, method="fixed_point")
        assert len(calls) == 2
        iterations.append(picard.iterations)
        diff = max(
            np.abs(newton.U.values - picard.U.values).max(),
            np.abs(newton.V.values - picard.V.values).max(),
        )
        assert picard.final_residual < 1e-8 and diff < 1e-6
    assert iterations == sorted(iterations, reverse=True)


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


def _manufactured_problem(n):
    """A VAVProblem on the L = 6 torus at n^2 whose discrete solution is the
    smooth (U*, V*): with A = Lap U* and B = Lap V* (a = b = 0, no sources),
    the system asks fu = (A + B)/4 and fv = (A + 2B)/4, which the
    backgrounds u01 = 2 atanh(fu) - U*, v01 = 2 atanh(fv) - V* produce."""
    geom = TorusGeometry(6.0, 6.0, n, n)
    x1, x2 = geom.nodes()
    k = 2 * PI / 6.0
    U_star = 0.05 * np.exp(np.cos(k * x1)) * np.sin(k * x2)
    V_star = 0.05 * np.cos(k * x1) * np.exp(np.sin(k * x2))
    A, B = geom.lap_pair(U_star, V_star)
    zero = geom.zeros()
    bset = BackgroundSet(
        u01=geom.field(2.0 * np.arctanh((A + B) / 4.0) - U_star),
        u02=zero,
        v01=geom.field(2.0 * np.arctanh((A + 2.0 * B) / 4.0) - V_star),
        v02=zero,
    )
    problem = VAVProblem(
        geometry=geom,
        config=VortexConfiguration(),
        backgrounds=bset,
        a=0.0,
        b=0.0,
        sigma=geom.h1,
    )
    return problem, U_star, V_star


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("method, err", [("newton", 1e-12), ("fixed_point", 1e-8)])
def test_manufactured_solution_is_recovered(n, method, err):
    problem, U_star, V_star = _manufactured_problem(n)
    sol = solve_vav(problem, method=method)
    assert np.abs(sol.U.values - U_star).max() <= err
    assert np.abs(sol.V.values - V_star).max() <= err


# ------------------------------------------------- the carried Laplacian ----
# The fixed-point loop carries Lap(U) and Lap(V) through its damped updates
# instead of transforming the iterate; only its convergence check transforms.

FP_SOURCES = {
    "balanced": VortexConfiguration(zeros_q=[(1.1, 1.5, 1)], poles_q=[(2.9, 2.6, 1)]),
    "unbalanced": VortexConfiguration(
        zeros_q=[(1.1, 1.5, 2)], poles_q=[(2.9, 2.6, 1)], zeros_p=[(0.7, 3.1, 1)]
    ),
}


def _fp_problem(sources):
    return vav_problem(TorusGeometry(4.0, 4.0, 32, 32), FP_SOURCES[sources])


def _residual_sup(sol, problem):
    # the report's residual of the returned fields, from true Laplacians:
    # the loop's own final check takes it the same way
    return residual_report(sol, problem)["sup"]


@pytest.mark.parametrize("start", ["default", "seeded"])
@pytest.mark.parametrize("sources", ["balanced", "unbalanced"])
def test_fixed_point_reports_the_residual_of_its_fields(sources, start):
    problem = _fp_problem(sources)
    geom = problem.geometry
    x0 = None
    if start == "seeded":
        rng = np.random.default_rng(21)
        x0 = (_smooth_field(geom, rng, 0.5), _smooth_field(geom, rng, 0.5))
    sol = solve_vav(problem, method="fixed_point", x0=x0)
    assert sol.iterations > 0
    assert sol.final_residual == _residual_sup(sol, problem)
    assert sol.final_residual < 1e-8
    assert sol.trace[-1]["resid_sup"] == sol.final_residual


def _wrong_first_laplacians(monkeypatch, error):
    """Make the first TorusGeometry.lap_pair call of a solve, the one that
    starts the carried Laplacians, return error(l1, l2) instead."""
    true_lap_pair = TorusGeometry.lap_pair
    calls = []

    def lap_pair(self, a, b):
        calls.append(1)
        l1, l2 = true_lap_pair(self, a, b)
        return error(l1, l2) if len(calls) == 1 else (l1, l2)

    monkeypatch.setattr(TorusGeometry, "lap_pair", lap_pair)
    return calls


def _counted_lap_pairs(monkeypatch):
    """Count the TorusGeometry.lap_pair calls, changing none."""
    return _wrong_first_laplacians(monkeypatch, lambda l1, l2: (l1, l2))


@pytest.mark.parametrize("sources", ["balanced", "unbalanced"])
def test_fixed_point_recovers_from_a_wrong_carried_laplacian(sources, monkeypatch):
    problem = _fp_problem(sources)
    x1, x2 = problem.geometry.nodes()
    smooth = 50.0 * np.cos(2 * PI * x1 / 4.0) * np.sin(2 * PI * x2 / 4.0)
    _wrong_first_laplacians(monkeypatch, lambda l1, l2: (l1 + smooth, l2 - 2.0 * smooth))
    try:
        sol = solve_vav(problem, method="fixed_point")
    except SolverError:
        return
    assert _residual_sup(sol, problem) < 1e-8
    assert sol.final_residual == _residual_sup(sol, problem)


@pytest.mark.parametrize("sources", ["balanced", "unbalanced"])
def test_a_clean_fixed_point_solve_transforms_twice(sources, monkeypatch):
    # The carried Laplacians take each step at its length exactly, so the
    # check at the fields returned does not miss: one lap_pair starts the
    # carry and one checks. Each record holds the step length that led to
    # its iterate, 0.0 at the start.
    problem = _fp_problem(sources)
    calls = _counted_lap_pairs(monkeypatch)
    sol = solve_vav(problem, method="fixed_point")
    assert len(calls) == 2
    assert sol.iterations > 0 and sol.trace[0]["step"] == 0.0
    assert all(0.0 < e["step"] < np.inf for e in sol.trace[1:])


def test_fixed_point_shifts_start_from_their_prediction(monkeypatch):
    # Each shift starts from its last value moved by the first-order change
    # the step makes to the integral of tanh. From the third prediction of
    # each shift on, that start is at least ten times closer to the root
    # than the last value, whose error is first order in the step.
    calls = []

    def recorded(base, target, geom, guess=0.0):
        c, t = _shift(base, target, geom, guess)
        calls.append((target, guess, c))
        return c, t

    monkeypatch.setattr(vortexlab.vav, "_shift", recorded)
    sol = solve_vav(_fp_problem("unbalanced"), method="fixed_point")
    assert sol.iterations > 5
    targets = {t for t, _, _ in calls}  # c1's and c2's, which differ here
    assert len(targets) == 2
    for target in targets:
        shift = [(guess, c) for t, guess, c in calls if t == target]
        assert len(shift) == sol.iterations + 1
        for (_, last), (guess, c) in list(zip(shift, shift[1:]))[2:]:
            assert abs(guess - c) <= 0.1 * abs(last - c)


def test_fixed_point_iterates_on_after_a_missed_check(monkeypatch):
    # The carried Laplacians start equal to the first right-hand sides, so
    # the carried residual reads zero at the start while the true one does
    # not. The check must miss, and the solve must go on from the true
    # Laplacians to the fields of an undisturbed solve.
    problem = _fp_problem("unbalanced")
    geom = problem.geometry
    clean = solve_vav(problem, method="fixed_point")
    bg = problem.backgrounds
    du = bg.u01.values - bg.u02.values
    dv = bg.v01.values - bg.v02.values
    fu = f_half(du + _shift(du, problem.a * geom.area, geom)[0])
    fv = f_half(dv + _shift(dv, problem.b * geom.area, geom)[0])
    rhs1, rhs2 = vortexlab.vav._Work(problem).rhs(fu, fv)
    calls = _wrong_first_laplacians(monkeypatch, lambda l1, l2: (rhs1, rhs2))
    sol = solve_vav(problem, method="fixed_point")
    assert sol.trace[0]["resid_sup"] > 1.0
    # start, missed check, restart from the true Laplacians, final check
    assert len(calls) == 4
    assert sol.iterations == clean.iterations
    assert np.array_equal(sol.U.values, clean.U.values)
    assert np.array_equal(sol.V.values, clean.V.values)
    assert sol.final_residual == _residual_sup(sol, problem) < 1e-8
