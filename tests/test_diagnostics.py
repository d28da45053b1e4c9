import itertools

import numpy as np
import pytest

import vortexlab
from vortexlab import (
    ConfigurationError,
    TorusGeometry,
    VortexConfiguration,
    curvatures_tw,
    curvatures_vav,
    energy_tw,
    energy_vav,
    flux_report_tw,
    flux_report_vav,
    integrate,
    residual_report,
    solve_tw,
    solve_vav,
    tw_problem,
    tw_quantized_integrals,
    vav_problem,
    vav_quantized_integrals,
)
from vortexlab.diagnostics import MODELS, build_report

PI = np.pi


@pytest.fixture(scope="module")
def geom():
    return TorusGeometry(6.0, 6.0, 64, 64)


@pytest.fixture(scope="module")
def tw_case(geom):
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    return problem, solve_tw(problem)


@pytest.fixture(scope="module")
def vav_case(geom):
    cfg = VortexConfiguration(zeros_q=[(1.2, 1.4, 2)], poles_p=[(4.6, 3.0, 1)])
    problem = vav_problem(geom, cfg)
    return problem, solve_vav(problem)


def test_curvatures_tw_vacuum(geom):
    problem = tw_problem(geom, VortexConfiguration())
    sol = solve_tw(problem)
    fhat, ftilde = curvatures_tw(sol)
    assert np.abs(fhat.values).max() == 0.0
    assert np.abs(ftilde.values).max() == 0.0


def test_tw_flux_integrals(tw_case):
    problem, sol = tw_case
    fhat, ftilde = curvatures_tw(sol)
    assert integrate(problem.geometry.field(fhat.values - ftilde.values)) == (
        pytest.approx(2 * PI, rel=1e-2)
    )
    assert abs(integrate(ftilde)) <= 1e-2 * 2 * PI


def test_tw_flux_report(tw_case):
    problem, sol = tw_case
    fx = flux_report_tw(sol, problem)
    assert fx["chern1"]["value"] == pytest.approx(1.0, abs=0.01)
    assert fx["chern2"]["value"] == pytest.approx(0.0, abs=0.01)
    assert fx["chern1"]["expected"] == 1.0


def test_vav_flux_integrals(vav_case):
    # N1 = 2, P2 = 1: flux integrals pin to 2 pi (N1-P1) and 2 pi (N2-P2)
    problem, sol = vav_case
    geom = problem.geometry
    fhat, ftilde = curvatures_vav(sol)
    assert integrate(geom.field(fhat.values - ftilde.values)) == (
        pytest.approx(4 * PI, rel=1e-2)
    )
    assert integrate(ftilde) == pytest.approx(-2 * PI, rel=1e-2)
    assert integrate(fhat) == pytest.approx(2 * PI, rel=1e-2)


def test_vav_flux_report(vav_case):
    problem, sol = vav_case
    fx = flux_report_vav(sol, problem)
    assert fx["chern1"]["value"] == pytest.approx(2.0, abs=0.01)
    assert fx["chern2"]["value"] == pytest.approx(-1.0, abs=0.01)
    assert fx["total"]["value"] == pytest.approx(1.0, abs=0.01)


def test_energy_tw_values():
    assert energy_tw(VortexConfiguration()) == 0.0
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], zeros_p=[(2.0, 2.0, 1)])
    assert energy_tw(cfg) == 2.0 * PI * 2
    assert energy_tw(VortexConfiguration(zeros_q=[(1.0, 1.0, 3)])) == 2.0 * PI * 3


def test_energy_vav_values():
    assert energy_vav(VortexConfiguration()).total == 0.0
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)], poles_q=[(2.0, 2.0, 1)])
    e = energy_vav(cfg)
    assert e.total == 4.0 * PI * 2
    assert e.chern_flux == 0.0
    assert e.thom_q == 8.0 * PI
    assert e.thom_p == 0.0
    all_one = VortexConfiguration(
        zeros_q=[(1.0, 1.0, 1)],
        poles_q=[(2.0, 2.0, 1)],
        zeros_p=[(3.0, 3.0, 1)],
        poles_p=[(4.0, 4.0, 1)],
    )
    assert energy_vav(all_one).total == 16.0 * PI


def test_energy_decomposition_sums_to_total(vav_case):
    problem, _ = vav_case
    e = energy_vav(problem.config)
    assert e.chern_flux + e.thom_q + e.thom_p == pytest.approx(e.total, rel=1e-14)


def test_energy_monotone_in_counts():
    base = VortexConfiguration(
        zeros_q=[(1.0, 1.0, 1)],
        poles_q=[(2.0, 2.0, 1)],
        zeros_p=[(3.0, 3.0, 1)],
        poles_p=[(4.0, 4.0, 1)],
    )
    e0 = energy_vav(base).total
    bumps = (
        VortexConfiguration(zeros_q=[(1.0, 1.0, 2)], poles_q=base.poles_q,
                            zeros_p=base.zeros_p, poles_p=base.poles_p),
        VortexConfiguration(zeros_q=base.zeros_q, poles_q=[(2.0, 2.0, 2)],
                            zeros_p=base.zeros_p, poles_p=base.poles_p),
        VortexConfiguration(zeros_q=base.zeros_q, poles_q=base.poles_q,
                            zeros_p=[(3.0, 3.0, 2)], poles_p=base.poles_p),
        VortexConfiguration(zeros_q=base.zeros_q, poles_q=base.poles_q,
                            zeros_p=base.zeros_p, poles_p=[(4.0, 4.0, 2)]),
    )
    for cfg in bumps:
        assert energy_vav(cfg).total > e0


def test_flux_two_ways_consistency(tw_case, vav_case):
    # curvature-field integral vs quantized-integral combination: identical
    # discrete quadratures of identical fields
    problem, sol = tw_case
    fhat, _ = curvatures_tw(sol)
    qi = tw_quantized_integrals(sol, problem)
    assert abs(integrate(fhat) - qi["Iu"]) < 1e-10

    problem_v, sol_v = vav_case
    fhat_v, _ = curvatures_vav(sol_v)
    qi_v = vav_quantized_integrals(sol_v, problem_v)
    assert abs(integrate(fhat_v) - 2.0 * qi_v["Iu"]) < 1e-10


def test_residual_report_vacuum(geom):
    problem = tw_problem(geom, VortexConfiguration())
    sol = solve_tw(problem)
    rep = residual_report(sol, problem)
    assert rep["sup"] < 1e-12
    assert rep["l2"] < 1e-12


def test_residual_report_tracks_tolerance(geom):
    problem = tw_problem(geom, VortexConfiguration(zeros_q=[(2.3, 3.1, 1)]))
    loose = residual_report(solve_tw(problem, tol=1e-6), problem)
    tight = residual_report(solve_tw(problem, tol=5e-7), problem)
    assert loose["sup"] < 1e-6
    assert tight["sup"] < 5e-7


def test_report_expected_entries_from_counts(vav_case):
    from vortexlab.diagnostics import report_vav

    problem, sol = vav_case
    rep = report_vav(sol, problem, inputs={}, wall_seconds=0.0)
    N1, P1, N2, P2 = problem.config.counts()
    assert rep.quantized_integrals["Iu"]["expected"] == PI * (N1 - P1 + N2 - P2)
    assert rep.quantized_integrals["Iv"]["expected"] == PI * (N1 - P1 + 2 * (N2 - P2))
    assert rep.fluxes["chern1"]["expected"] == float(N1 - P1)
    assert rep.energy["value"] == 4.0 * PI * (N1 + P1 + N2 + P2)


# ------------------------------------------- both models, one system ----
# Both models are the curvature-form system with their own kernel phi.


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_report_residual_is_the_newton_gradient(model, request):
    # At a smooth non-solution (U, V), the residual the report takes of the
    # curvature-form system is the Newton gradient at (f, h) = (U, U + 2V):
    # r1 = -g1 and r2 = (g1 - g2)/2.
    problem, _ = request.getfixturevalue(f"{model}_case")
    geom = problem.geometry
    work = getattr(vortexlab, model)._Work(problem)
    x1, x2 = geom.nodes()
    wave = 2 * PI / geom.L1
    U = 0.6 * np.sin(wave * x1) * np.cos(2 * wave * x2) - 0.2
    V = 0.5 * np.cos(wave * (x1 + x2)) + 0.3
    r1, r2 = work.residual(U, V, work.kernel(work.b1 + U)[0], work.kernel(work.b2 + V)[0])
    point = work.point(U, U + 2.0 * V)
    g1, g2 = point.g1, point.g2
    assert np.abs(g1).max() > 0.1  # not a solution
    assert np.abs(r1 + g1).max() < 1e-12
    assert np.abs(r2 - 0.5 * (g1 - g2)).max() < 1e-12


@pytest.mark.parametrize("model, kernel", [("tw", "clipped_exp"), ("vav", "f_half")])
def test_a_report_evaluates_the_kernel_once_per_field(model, kernel, request, monkeypatch):
    # The quantized integrals, the curvatures, the fluxes and the residual of
    # a report all come from one evaluation of the kernel at u and one at v.
    problem, sol = request.getfixturevalue(f"{model}_case")
    module = getattr(vortexlab, model)
    evaluate = getattr(module, kernel)
    calls = []

    def counted(x):
        calls.append(x.shape)
        return evaluate(x)

    monkeypatch.setattr(module, kernel, counted)
    report = build_report(sol, problem, inputs={}, wall_seconds=0.0)
    assert report.solver_trace["residuals"]["sup"] < 1e-8
    assert calls == [sol.u.values.shape] * 2


# Tori far inside both models' bounds whose area lifts the rounding of a
# pinned integral above 1e-12. With Newton's defect test fixed at 1e-12,
# every `tw` solve here reached a sup below tol and then spent its budget
# re-polishing a defect of a few eps*area that no polish lowers
# (MaxIterExceeded).
LARGE_TORI = {
    "70x70-64": (70.0, 70.0, 64, {"zeros_q": [(17.5, 35.0, 1)]}),
    "100x100-64": (100.0, 100.0, 64, {"zeros_q": [(17.5, 35.0, 1)], "zeros_p": [(60.0, 70.0, 1)]}),
    "70x70-128": (70.0, 70.0, 128, {"zeros_q": [(17.5, 35.0, 1)]}),
    "120x30-128": (120.0, 30.0, 128, {"zeros_q": [(17.5, 15.0, 1)]}),
}
SOLVERS = {
    "tw": (tw_problem, solve_tw, {}),
    "vav-newton": (vav_problem, solve_vav, {}),
    "vav-fixed_point": (vav_problem, solve_vav, {"method": "fixed_point"}),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("torus", sorted(LARGE_TORI))
def test_large_tori_meet_their_pinned_integrals_to_the_floor(torus, solver):
    L1, L2, n, sources = LARGE_TORI[torus]
    geom = TorusGeometry(L1, L2, n, n)
    make, solve, kwargs = SOLVERS[solver]
    problem = make(geom, VortexConfiguration(**sources))
    sol = solve(problem, **kwargs)
    assert sol.final_residual < 1e-8
    assert geom.quad_floor > 1e-12
    report = vortexlab.diagnostics.build_report(sol, problem, {}, 0.0)
    for entry in report.quantized_integrals.values():
        assert entry["abs_error"] <= geom.quad_floor


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_admissible_exactly_when_the_pinned_integrals_fit_the_kernel(model):
    # The integrals of phi(u) and phi(v) are the pinned values p, and phi is
    # decreasing, so they lie in |S| times (phi(inf), phi(-inf)):
    # (-inf, 1) for tw, (-2, 2) for vav. That is each model's existence bound.
    record = MODELS[model]
    # phi at the ends of the range of the kernel's grid values
    lo, hi = (record.work.phi(t) for t in {"tw": (np.inf, 0.0), "vav": (1.0, -1.0)}[model])
    assert (lo, hi) == {"tw": (-np.inf, 1.0), "vav": (-2.0, 2.0)}[model]
    poles = range(3) if model == "vav" else (0,)
    seen = set()

    def bits(values):
        return [float(v).hex() for v in values]  # tells -0.0 from 0.0

    for L in np.linspace(1.5, 7.5, 13):
        geom = TorusGeometry(L, L, 8, 8)
        area = geom.area
        for N1, P1, N2, P2 in itertools.product(range(4), poles, range(4), poles):
            sets = zip(("zeros_q", "poles_q", "zeros_p", "poles_p"), (N1, P1, N2, P2))
            config = VortexConfiguration(
                **{name: [(0.3 * k + 0.2, 0.2, m)] for k, (name, m) in enumerate(sets) if m}
            )
            adm = record.admissibility(config, geom)
            forced = adm.forced
            # the record is the count formulas written out, bit for bit
            n1, n2 = N1 - P1, N2 - P2
            assert forced.n == (n1, n2)
            assert bits(forced.p) == bits((2 * PI * (n1 + n2), 2 * PI * (n1 + 2 * n2)))
            assert bits(forced.k) == bits((4 * PI * n1 / area, 4 * PI * n2 / area))
            # the integrals of e^x and tanh(x/2) that the counts force
            t = {
                "tw": (area - 2 * PI * (N1 + N2), area - 2 * PI * (N1 + 2 * N2)),
                "vav": (-PI * (n1 + n2), -PI * (n1 + 2 * n2)),
            }[model]
            assert bits(forced.t) == bits(t)
            # the model's constants are those integrals: (a1, a2) for tw, and
            # (a, b) = t/|S| for vav, which balanced counts make -0.0
            per_area = {"tw": 1.0, "vav": area}[model]
            assert bits(adm.constants) == bits(x / per_area for x in forced.t)
            if model == "vav" and n1 + n2 == 0:
                assert bits((adm.constants[0], adm.report["a"])) == ["-0x0.0p+0"] * 2
            inside = all(lo * area < p < hi * area for p in forced.p)
            assert adm.satisfied == inside
            seen.add(inside)
    assert seen == {True, False}


_READERS = {
    "build_report": lambda sol, problem: vortexlab.diagnostics.build_report(sol, problem, {}, 0.0),
    "residual_report": residual_report,
    "flux_report": vortexlab.diagnostics.flux_report,
    "tw_quantized_integrals": tw_quantized_integrals,
    "vav_quantized_integrals": vav_quantized_integrals,
}


@pytest.fixture(scope="module")
def tw_small():
    problem = tw_problem(
        TorusGeometry(6.0, 6.0, 16, 16), VortexConfiguration(zeros_q=[(2.3, 3.1, 1)])
    )
    return problem, solve_tw(problem)


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "other",
    [
        "larger_torus",
        "other_model",
        "configuration",
        "none",
        "problem_as_solution",
        "none_as_solution",
    ],
)
def test_diagnostics_refuse_a_solution_of_another_problem(tw_small, reader, other):
    # Read against a 12 x 12 problem on the same 16^2 grid, the 6 x 6 tw
    # solution gave Chern numbers 4.0 against an expected 1; read against a
    # vav problem, tw's phi met vav's count formulas. Read against what is no
    # problem at all, a configuration or None, a bare KeyError was raised.
    # A problem or None in the solution's place raised AttributeError or
    # KeyError, in the readers and in the curvatures alike.
    problem, sol = tw_small
    config = problem.config
    read = sol
    if other == "larger_torus":
        wrong = tw_problem(TorusGeometry(12.0, 12.0, 16, 16), config)
    elif other == "other_model":
        wrong = vav_problem(problem.geometry, config)
    elif other in ("configuration", "none"):
        wrong = config if other == "configuration" else None
    else:
        wrong, read = problem, (problem if other == "problem_as_solution" else None)
        for curvatures in (curvatures_tw, curvatures_vav):
            with pytest.raises(ConfigurationError):
                curvatures(read)
    with pytest.raises(ConfigurationError):
        _READERS[reader](read, wrong)
    if reader != "vav_quantized_integrals":
        _READERS[reader](sol, problem)
