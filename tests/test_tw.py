import re

import numpy as np
import pytest

import vortexlab._linalg
import vortexlab.tw
from vortexlab import (
    BradlowViolation,
    ConfigurationError,
    MaxIterExceeded,
    TorusGeometry,
    VortexConfiguration,
    check_bradlow,
    functional_gradient,
    functional_value,
    integrate,
    residual_report,
    solve_tw,
    tw_problem,
    tw_quantized_integrals,
)
from vortexlab._linalg import Solution
from vortexlab.tw import TWProblem

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def geom():
    return TorusGeometry(6.0, 6.0, 64, 64)


@pytest.fixture(scope="module")
def one_vortex(geom):
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    return problem, solve_tw(problem)


@pytest.fixture(scope="module")
def mixed(geom):
    cfg = VortexConfiguration(zeros_q=[(2.3, 3.1, 1)], zeros_p=[(4.1, 1.9, 1)])
    problem = tw_problem(geom, cfg)
    return problem, solve_tw(problem)


def smooth_pair(geom, seed, amplitude=0.5):
    rng = np.random.default_rng(seed)
    x1, x2 = geom.nodes()
    f = np.zeros((geom.n1, geom.n2))
    h = np.zeros((geom.n1, geom.n2))
    for arr in (f, h):
        for _ in range(4):
            m, n = rng.integers(-3, 4, size=2)
            arr += rng.normal() * np.cos(
                2 * np.pi * (m * x1 / geom.L1 + n * x2 / geom.L2) + rng.uniform(0, TWO_PI)
            )
        arr *= amplitude
    return f, h


def test_check_bradlow_values(geom):
    a1, a2 = check_bradlow(VortexConfiguration(zeros_q=[(1.0, 1.0, 1)]), geom)
    assert a1 == pytest.approx(36 - TWO_PI, rel=1e-12)
    assert a2 == pytest.approx(36 - TWO_PI, rel=1e-12)


def test_check_bradlow_empty(geom):
    a1, a2 = check_bradlow(VortexConfiguration(), geom)
    assert a1 == a2 == geom.area


def test_check_bradlow_violation():
    geom = TorusGeometry(4.0, 4.0, 16, 16)  # |S| = 16 < 6 pi
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], zeros_p=[(2.0, 2.0, 1)])
    with pytest.raises(BradlowViolation) as exc:
        check_bradlow(cfg, geom)
    assert exc.value.margin == pytest.approx(16 - 6 * np.pi, rel=1e-12)


def test_check_bradlow_strict_at_threshold():
    # N1 + 2 N2 = 3: existence needs |S| > 6 pi strictly
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], zeros_p=[(2.0, 2.0, 1)])
    L = np.sqrt(6 * np.pi)
    with pytest.raises(BradlowViolation):
        check_bradlow(cfg, TorusGeometry(L * (1 - 1e-8), L, 16, 16))
    check_bradlow(cfg, TorusGeometry(L * (1 + 1e-8), L, 16, 16))


def test_rejects_poles(geom):
    cfg = VortexConfiguration(poles_q=[(1.0, 1.0, 1)])
    with pytest.raises(ConfigurationError):
        check_bradlow(cfg, geom)


def test_functional_vacuum_value(geom):
    problem = tw_problem(geom, VortexConfiguration())
    val = functional_value(geom.zeros(), geom.zeros(), problem)
    assert val == pytest.approx(8 * geom.area, rel=1e-12)


def test_functional_lower_bound_random(mixed):
    problem, _ = mixed
    geom = problem.geometry
    bound = 4 * (np.log(geom.area / problem.a1) + np.log(geom.area / problem.a2))
    for seed in range(20):
        f, h = smooth_pair(geom, seed)
        assert functional_value(geom.field(f), geom.field(h), problem) >= bound


def test_functional_overflow_warning(geom):
    problem = tw_problem(geom, VortexConfiguration())
    big = geom.field(np.full((geom.n1, geom.n2), 600.0))
    with pytest.warns(RuntimeWarning):
        functional_value(big, geom.zeros(), problem)


def test_gradient_vacuum_zero(geom):
    problem = tw_problem(geom, VortexConfiguration())
    g1, g2 = functional_gradient(geom.zeros(), geom.zeros(), problem)
    assert np.abs(g1.values).max() == 0.0
    assert np.abs(g2.values).max() == 0.0


def test_gradient_matches_finite_differences(mixed):
    problem, _ = mixed
    geom = problem.geometry
    eps = 1e-5
    for seed in range(3):
        f, h = smooth_pair(geom, 100 + seed)
        df, dh = smooth_pair(geom, 200 + seed)
        g1, g2 = functional_gradient(geom.field(f), geom.field(h), problem)
        analytic = integrate(geom.field(g1.values * df + g2.values * dh))
        plus = functional_value(
            geom.field(f + eps * df), geom.field(h + eps * dh), problem
        )
        minus = functional_value(
            geom.field(f - eps * df), geom.field(h - eps * dh), problem
        )
        fd = (plus - minus) / (2 * eps)
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_gradient_integrals_vanish_at_solution(mixed):
    problem, sol = mixed
    geom = problem.geometry
    f = sol.U
    h = geom.field(sol.U.values + 2 * sol.V.values)
    g1, g2 = functional_gradient(f, h, problem)
    assert abs(integrate(g1)) < 1e-8
    assert abs(integrate(g2)) < 1e-8


def test_solve_vacuum_exact(geom):
    problem = tw_problem(geom, VortexConfiguration())
    sol = solve_tw(problem)
    assert sol.iterations <= 1
    assert np.abs(sol.U.values).max() == 0.0
    assert np.abs(sol.V.values).max() == 0.0
    assert residual_report(sol, problem)["sup"] < 1e-12
    assert sol.functional_value == pytest.approx(8 * geom.area, rel=1e-12)


def test_solve_one_vortex_quantization(one_vortex):
    problem, sol = one_vortex
    qi = tw_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(TWO_PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(TWO_PI, rel=1e-2)


def test_solve_mixed_quantization(mixed):
    problem, sol = mixed
    qi = tw_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(2 * TWO_PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(3 * TWO_PI, rel=1e-2)


def test_solution_pointwise_bound(one_vortex):
    problem, sol = one_vortex
    # the record is the shared one, with u = u01 + U and v = v01 + V bit for bit
    work = vortexlab.tw._Work(problem)
    assert isinstance(sol, Solution)
    assert np.array_equal(sol.u.values, work.b1 + sol.U.values)
    assert np.array_equal(sol.v.values, work.b2 + sol.V.values)
    assert np.exp(sol.u.values).max() < 1.05
    assert np.exp(sol.v.values).max() < 1.05


def test_minimum_near_vortex_center(one_vortex):
    problem, sol = one_vortex
    geom = problem.geometry
    eu = np.exp(sol.u.values)
    i, j = np.unravel_index(np.argmin(eu), eu.shape)
    dx = (geom.x1[i] - 2.3 + geom.L1 / 2) % geom.L1 - geom.L1 / 2
    dy = (geom.x2[j] - 3.1 + geom.L2 / 2) % geom.L2 - geom.L2 / 2
    assert np.hypot(dx, dy) <= problem.sigma


def test_polish_restores_the_integrals_exactly(mixed):
    # The polish, a hook that both models' `_Work` inherit from
    # `_linalg.NewtonWork`, folds tw's closed-form shifts into the means:
    # from a converged state with both means moved by 1e-3, it restores
    # both pinned integrals to the geometry's quad_floor.
    problem, sol = mixed
    work = vortexlab.tw._Work(problem)
    assert type(work).polish is vortexlab._linalg.NewtonWork.polish
    f = sol.U.values + 1e-3
    h = sol.U.values + 2.0 * sol.V.values + 1e-3
    assert work.point(f, h).defect > 1e-2
    f, h = work.polish(f, h)
    assert work.point(f, h).defect <= problem.geometry.quad_floor


# The shift alone, one closed form for every offset of the log-field: e^x
# underflows on the whole grid at -800, integrates to a subnormal at -745
# and -720, and passes EXP_CAP at 800.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("offset", [-800.0, -745.0, -720.0, 0.0, 400.0, 800.0])
def test_shift_meets_its_target_at_any_offset(mixed, offset):
    problem, _ = mixed
    work = vortexlab.tw._Work(problem)
    for b, target in zip((work.b1, work.b2), work.targets):
        x = b + offset
        c = work.shift(x, target)
        assert abs(problem.geometry.quad(np.exp(x + c)) - target) <= 1e-12 * target


# Starts where e^u or e^v underflows on the whole grid: quad(e) is 0 there,
# which the polish's log form does not divide by. With log(a/quad(e)) each of
# these ended at the polished start as "non-finite iterate". From (-720, 0),
# (-740, 0) and (-745, 0) quad(e^u) is subnormal and a/quad(e^u) overflows,
# which ended the same way while the polish tested only the integrals.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "start",
    [
        (-750, -1500),
        (-740, -1480),
        (-800, -800),
        (-1000, -2000),
        (-2000, -1000),
        (-746, 0),
        (-720, 0),
        (-740, 0),
        (-745, 0),
    ],
    ids=lambda s: f"{s[0]},{s[1]}",
)
def test_underflowed_start_reaches_the_default_solution(start):
    geom = TorusGeometry(6.0, 6.0, 32, 32)
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    reference = solve_tw(problem)
    x0 = tuple(np.full((32, 32), float(c)) for c in start)
    sol = solve_tw(problem, x0=x0)
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-9
    assert np.abs(sol.V.values - reference.V.values).max() < 1e-9


# White-noise starts near the Bradlow bound (area 1.04 times 2*pi). Without
# a polish of each trial, the first Newton step left max u near -33, where
# the mean mode's curvature e^u is about 1e-14, so the next direction moved
# u by about 1e13 and no trial of 40 halvings descended: every amplitude
# here ended in "line search failed to find descent". A polished trial
# meets its pinned integrals, which keeps the means where the curvature is
# O(1).
@pytest.mark.parametrize("amplitude", [10.0, 30.0, 100.0])
def test_rough_start_converges_near_the_bound(amplitude):
    geom = TorusGeometry(3.612, 1.806, 128, 128)
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(1.0, 0.7, 1)]))
    rng = np.random.default_rng(1)
    x0 = tuple(amplitude * rng.standard_normal((128, 128)) for _ in range(2))
    sol = solve_tw(problem, x0=x0)
    reference = solve_tw(problem)
    assert sol.final_residual < 1e-8
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-6
    assert np.abs(sol.V.values - reference.V.values).max() < 1e-6


def test_solutions_at_the_bradlow_bound_follow_its_log_law():
    # One q-zero and one p-zero on the square torus of area 6 pi + a2 leave
    # the margin a2 = int e^v of the bound. As a2 -> 0, e^v dissolves and
    # q = mean V - log a2 tends to a constant to first order in a2 (Bradlow,
    # Commun. Math. Phys. 135, 1990). Measured at 32^2: Newton takes 4
    # iterations at every margin, q reads -3.093396 at 1e-1 and -3.088802 at
    # 1e-8, and |q(a2) - q(1e-8)|/a2 reads 0.0456 to 0.0460.
    margins = (1e-1, 1e-2, 1e-4, 1e-6, 1e-8)
    iterations, q = [], []
    for a2 in margins:
        L = np.sqrt(3 * TWO_PI + a2)
        cfg = VortexConfiguration(zeros_q=[(0.3 * L, 0.4 * L, 1)], zeros_p=[(0.7 * L, 0.6 * L, 1)])
        problem = tw_problem(TorusGeometry(L, L, 32, 32), cfg)
        assert problem.a2 == pytest.approx(a2, rel=1e-6)
        sol = solve_tw(problem)
        iterations.append(sol.iterations)
        q.append(sol.V.values.mean() - np.log(problem.a2))
    assert iterations == sorted(iterations, reverse=True)
    for a2, qa in zip(margins[:-1], q):
        assert 0.044 < abs(qa - q[-1]) / a2 < 0.048


def test_residual_below_tolerance(mixed):
    problem, sol = mixed
    assert residual_report(sol, problem)["sup"] < 1e-8


def test_monotone_descent(mixed):
    _, sol = mixed
    values = [entry["I"] for entry in sol.trace]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-12 * (1 + abs(prev))


def test_lower_bound_along_iterates(mixed):
    problem, sol = mixed
    geom = problem.geometry
    bound = 4 * (np.log(geom.area / problem.a1) + np.log(geom.area / problem.a2))
    for entry in sol.trace:
        assert entry["I"] >= bound


def test_uniqueness_from_random_starts(geom):
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    sols = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        x0 = (
            rng.standard_normal((geom.n1, geom.n2)),
            rng.standard_normal((geom.n1, geom.n2)),
        )
        sols.append(solve_tw(problem, x0=x0))
    diff = np.abs(sols[0].U.values - sols[1].U.values).max()
    diff = max(diff, np.abs(sols[0].V.values - sols[1].V.values).max())
    assert diff < 1e-6


def test_max_iter_exceeded(geom):
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    with pytest.raises(MaxIterExceeded) as exc:
        solve_tw(problem, max_iter=1)
    assert len(exc.value.trace) >= 1


def test_a_defect_above_its_floor_is_named_when_the_budget_runs_out(monkeypatch):
    # With the floor forced to -1.0, which no defect |quad(t) - target| can
    # meet, a 70 x 70 solve gets its sup far below tol and then steps on,
    # until its budget is spent. The message names the defect and the floor,
    # not only a sup below tol.
    monkeypatch.setattr(TorusGeometry, "quad_floor", -1.0)
    geom = TorusGeometry(70.0, 70.0, 64, 64)
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(17.5, 35.0, 1)]))
    held = r"integral defect (\S+) above its floor -1\.000e\+00; residual sup (\S+), tol 1\.0e-08"
    with pytest.raises(MaxIterExceeded, match=held) as exc:
        solve_tw(problem)
    defect, sup = (float(x) for x in re.search(held, str(exc.value)).groups())
    assert defect >= 0.0 and sup < 1e-8


def test_max_iter_none_is_the_default_budget(one_vortex, monkeypatch):
    # check_solver_settings documents max_iter=None as the method's default,
    # as solve_vav takes it: the Newton budget of 50
    problem, default = one_vortex
    newton_solve = vortexlab.tw.newton_solve
    budgets = []

    def recorded(work, U, V, tol, max_iter, pcg):
        budgets.append(max_iter)
        return newton_solve(work, U, V, tol, max_iter, pcg)

    monkeypatch.setattr(vortexlab.tw, "newton_solve", recorded)
    sol = solve_tw(problem, max_iter=None)
    assert budgets == [50]
    assert sol.iterations == default.iterations
    assert np.array_equal(sol.U.values, default.U.values)
    assert np.array_equal(sol.V.values, default.V.values)


def test_no_stall_near_the_minimum():
    # Once grad sup is near 1e-7, the functional's Armijo decrease is below
    # the rounding of I ~ 1e2; without a rounding allowance in the bound the
    # line search halves every step and this cold 128^2 solve stalls at grad
    # sup 1.016e-07 after 50 iterations.
    L = 1.1 * np.sqrt(6 * np.pi)
    geom = TorusGeometry(L, L, 128, 128)
    cfg = VortexConfiguration(
        zeros_q=[(L / 6, 1.5 * L / 6, 1)], zeros_p=[(2 * L / 6, 2.5 * L / 6, 1)]
    )
    problem = tw_problem(geom, cfg)
    sol = solve_tw(problem)
    assert sol.iterations <= 10
    assert sol.final_residual < 1e-8
    qi = tw_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(2 * TWO_PI, abs=1e-10)
    assert qi["Iv"] == pytest.approx(3 * TWO_PI, abs=1e-10)


def test_unknown_method_rejected(geom):
    problem = tw_problem(geom, VortexConfiguration())
    with pytest.raises(ConfigurationError):
        solve_tw(problem, method="bogus")


def test_anisotropic_grid_quantization():
    geom = TorusGeometry(5.0, 7.5, 96, 64)
    cfg = VortexConfiguration(zeros_q=[(1.3, 5.9, 1)], zeros_p=[(3.7, 2.2, 1)])
    problem = tw_problem(geom, cfg)
    sol = solve_tw(problem)
    qi = tw_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(2 * TWO_PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(3 * TWO_PI, rel=1e-2)


def test_gradient_fallback_is_labelled(one_vortex, monkeypatch):
    # the first inner solve returns the ascent direction, so that step must
    # fall back to the preconditioned gradient and be logged as such
    calls = []
    pcg_pair = vortexlab.tw.pcg_pair

    def ascent_once(apply_op, apply_prec, b1, b2, rtol):
        calls.append(None)
        if len(calls) == 1:
            return -b1, -b2, 1
        return pcg_pair(apply_op, apply_prec, b1, b2, rtol)

    monkeypatch.setattr(vortexlab.tw, "pcg_pair", ascent_once)
    problem, reference = one_vortex
    sol = solve_tw(problem)
    kinds = [e["kind"] for e in sol.trace]
    assert kinds[:2] == ["init", "gradient"]
    assert set(kinds[2:]) <= {"newton"}
    assert sol.final_residual < 1e-8
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-6


def _manufactured_problem(n, analytic):
    """A TWProblem on the L = 6 torus at n^2 whose solution is the smooth
    (U*, V*): with A = Lap U* and B = Lap V* (no sources), the system asks
    e^u = 1 + (A + B)/2 and e^v = 1 + A/2 + B, which the backgrounds
    u01 = log(1 + (A + B)/2) - U* and v01 = log(1 + A/2 + B) - V* produce;
    a1 = a2 = |S|. With A, B taken on the grid the discrete solution is
    (U*, V*) itself; taken analytically, the grid's error in them remains."""
    geom = TorusGeometry(6.0, 6.0, n, n)
    x1, x2 = geom.nodes()
    k = 2 * np.pi / 6.0
    U_star = 0.05 * np.exp(np.cos(k * x1)) * np.sin(k * x2)
    V_star = 0.05 * np.cos(k * x1) * np.exp(np.sin(k * x2))
    if analytic:
        A = k * k * U_star * (np.sin(k * x1) ** 2 - np.cos(k * x1) - 1.0)
        B = k * k * V_star * (np.cos(k * x2) ** 2 - np.sin(k * x2) - 1.0)
    else:
        A, B = geom.lap_pair(U_star, V_star)
    problem = TWProblem(
        geometry=geom,
        config=VortexConfiguration(),
        u01=geom.field(np.log(1.0 + 0.5 * A + 0.5 * B) - U_star),
        v01=geom.field(np.log(1.0 + 0.5 * A + B) - V_star),
        a1=geom.area,
        a2=geom.area,
        sigma=geom.h1,
    )
    return problem, U_star, V_star


def _manufactured_error(n, analytic):
    problem, U_star, V_star = _manufactured_problem(n, analytic)
    sol = solve_tw(problem, tol=1e-11)
    return max(np.abs(sol.U.values - U_star).max(), np.abs(sol.V.values - V_star).max())


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_manufactured_solution_is_recovered(n):
    # 7.5e-14 to 8.1e-14 seen on every grid at tol 1e-11. The forcing term's
    # floor 0.5*tol/sup stops the last CG solve near tol, not far below it:
    # at tol 1e-10 the error is 2.3e-12 to 2.5e-12, and at the default tol the
    # solve stops at a sup near 2.7e-9, with an error of 2.3e-10 to 2.5e-10
    assert _manufactured_error(n, analytic=False) <= 1e-12


def test_manufactured_solution_converges_spectrally():
    # With the analytic Laplacian the error is the grid's: 6.4e-5, 1.8e-7,
    # 4.1e-10 and 7.4e-14 at 8^2, 12^2, 16^2 and 24^2, the last at the
    # solve's tol 1e-11. It falls by more than 100 per 4 more points, and the
    # observed algebraic order log(e1/e2)/log(n2/n1) grows with n, as a
    # geometric decay's does, until rounding is reached.
    ns = (8, 12, 16, 24)
    errors = [_manufactured_error(n, analytic=True) for n in ns]
    assert errors[-1] <= 1e-12
    assert all(e1 > 100.0 * e2 for e1, e2 in zip(errors[:3], errors[1:3]))
    orders = [
        np.log(e1 / e2) / np.log(n2 / n1)
        for e1, e2, n1, n2 in zip(errors, errors[1:3], ns, ns[1:3])
    ]
    assert 10.0 < orders[0] < orders[1]
