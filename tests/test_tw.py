import numpy as np
import pytest

import vortexlab.tw
from vortexlab import (
    BradlowViolation,
    ConfigurationError,
    DivergedIterate,
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
from vortexlab._linalg import MEAN_TOL

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
    _, sol = one_vortex
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
    # The polish folds the exact shifts into the means. From a converged
    # state with both means moved by 1e-3, a linearised 2x2 step on the
    # means leaves a mean defect of 4.7e-5.
    problem, sol = mixed
    work = vortexlab.tw._Work(problem)
    f = sol.U.values + 1e-3
    h = sol.U.values + 2.0 * sol.V.values + 1e-3
    assert work.point(f, h)[2] > 1e-2
    f, h = work.polish(work.point(f, h)[5])
    assert work.point(f, h)[2] <= MEAN_TOL


# Starts where e^u or e^v underflows on the whole grid: quad(e) is 0 there,
# so the polish takes its shifts in log form. With log(a/quad(e)) each of
# these ended at the polished start as "non-finite iterate".
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "start",
    [(-750, -1500), (-740, -1480), (-800, -800), (-1000, -2000), (-2000, -1000), (-746, 0)],
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
    assert sol.final_gradient_norm < 1e-8
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_iterate_is_diagnosed(geom):
    # the start's exponent arguments are clamped, and the driver stops there
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    absurd = np.full((geom.n1, geom.n2), 700.0)
    with pytest.raises(DivergedIterate):
        solve_tw(problem, x0=(absurd, np.zeros_like(absurd)))


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
    assert set(kinds[2:]) <= {"newton", "polish"} and "gradient" not in kinds[2:]
    assert sol.final_gradient_norm < 1e-8
    assert np.abs(sol.U.values - reference.U.values).max() < 1e-6
