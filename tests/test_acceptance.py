"""Acceptance suite: one test (or test pair) per criterion, at the stated
tolerances and grid scales. The conftest hook prints one PASS/FAIL line per
criterion at the end of the run."""

import json
import math

import numpy as np
import pytest

from vortexlab import (
    Inadmissible,
    TorusGeometry,
    VortexConfiguration,
    check_admissibility,
    check_bradlow,
    constraint_shift,
    curvatures_tw,
    curvatures_vav,
    energy_tw,
    energy_vav,
    f_fun,
    functional_gradient,
    functional_value,
    integrate,
    residual_report,
    solve_tw,
    solve_vav,
    tw_problem,
    tw_quantized_integrals,
    vav_problem,
    vav_quantized_integrals,
)
from vortexlab.cli import main

PI = math.pi
TWO_PI = 2.0 * math.pi

# relative noise floor for the grid-refinement comparison: the quantized
# integrals are exact consequences of the discrete equations, so their
# errors sit at rounding level on both grids (see notes in the solver)
REFINE_FLOOR = 1e-10

# frozen development-time value of the mode-sum oracle for criterion 14
ANTIPODE_ORACLE = 0.6916131997720597


def criterion(label):
    def deco(fn):
        fn._criterion = label
        return fn

    return deco


# ------------------------------------------------------------- fixtures ----

TW_POINTS_Q = [(2.3, 3.1, 1)]
TW_POINTS_P = [(4.1, 1.9, 1)]


@pytest.fixture(scope="module")
def tw_solves():
    """TW instances of criteria 2/3/7: (N1, N2) in {(1,0), (1,1)} at 128^2
    and 256^2 on the L = 6 torus with kappa = 2."""
    out = {}
    for with_p in (False, True):
        cfg = VortexConfiguration(
            zeros_q=TW_POINTS_Q, zeros_p=TW_POINTS_P if with_p else ()
        )
        for n in (128, 256):
            geom = TorusGeometry(6.0, 6.0, n, n)
            problem = tw_problem(geom, cfg, kappa=2.0)
            out[(cfg.N1, cfg.N2, n)] = (problem, solve_tw(problem))
    return out


@pytest.fixture(scope="module")
def uniqueness_solves():
    """Criterion 5: N1 = 2, N2 = 1 on L = 8 at 128^2 from two random starts."""
    geom = TorusGeometry(8.0, 8.0, 128, 128)
    cfg = VortexConfiguration(
        zeros_q=[(2.1, 2.8, 1), (5.6, 5.9, 1)], zeros_p=[(4.0, 2.0, 1)]
    )
    problem = tw_problem(geom, cfg)
    sols = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        x0 = (
            rng.standard_normal((geom.n1, geom.n2)),
            rng.standard_normal((geom.n1, geom.n2)),
        )
        sols.append(solve_tw(problem, x0=x0))
    return problem, sols


@pytest.fixture(scope="module")
def vav_geom():
    return TorusGeometry(6.0, 6.0, 128, 128)


# ------------------------------------------------------------- criteria ----


@criterion("01 vacuum exactness")
def test_c01_vacuum_tw():
    geom = TorusGeometry(6.0, 6.0, 128, 128)
    problem = tw_problem(geom, VortexConfiguration())
    sol = solve_tw(problem)
    assert np.abs(sol.U.values).max() == 0.0
    assert np.abs(sol.V.values).max() == 0.0
    assert residual_report(sol, problem)["sup"] < 1e-12
    assert energy_tw(problem.config) == 0.0


@criterion("01 vacuum exactness")
def test_c01_vacuum_vav():
    geom = TorusGeometry(6.0, 6.0, 128, 128)
    problem = vav_problem(geom, VortexConfiguration())
    sol = solve_vav(problem)
    assert np.abs(sol.U.values).max() == 0.0
    assert np.abs(sol.V.values).max() == 0.0
    assert residual_report(sol, problem)["sup"] < 1e-12
    assert energy_vav(problem.config).total == 0.0


@criterion("02 tw quantization with refinement")
def test_c02_tw_quantization(tw_solves):
    for n1v, n2v in ((1, 0), (1, 1)):
        errs = {}
        for n in (128, 256):
            problem, sol = tw_solves[(n1v, n2v, n)]
            qi = tw_quantized_integrals(sol, problem)
            exp_u = TWO_PI * (n1v + n2v)
            exp_v = TWO_PI * (n1v + 2 * n2v)
            err_u = abs(qi["Iu"] - exp_u) / exp_u
            err_v = abs(qi["Iv"] - exp_v) / exp_v
            assert err_u < 1e-2
            assert err_v < 1e-2
            errs[n] = (err_u, err_v)
        # the identities are discretely exact, so both grids sit at the
        # rounding floor; the halving clause applies above the floor only
        assert errs[256][0] <= max(errs[128][0] / 2, REFINE_FLOOR)
        assert errs[256][1] <= max(errs[128][1] / 2, REFINE_FLOOR)


@criterion("03 tw energy and flux")
def test_c03_tw_energy_flux(tw_solves):
    for n1v, n2v in ((1, 0), (1, 1)):
        problem, sol = tw_solves[(n1v, n2v, 128)]
        geom = problem.geometry
        fhat, ftilde = curvatures_tw(sol)
        chern1 = integrate(geom.field(fhat.values - ftilde.values)) / TWO_PI
        chern2 = integrate(ftilde) / TWO_PI
        assert chern1 == pytest.approx(n1v, abs=0.01)
        assert chern2 == pytest.approx(n2v, abs=0.01)
        assert energy_tw(problem.config) == TWO_PI * (n1v + n2v)


@criterion("04 Bradlow threshold")
def test_c04_bradlow_threshold(tmp_path):
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.5, 1)], zeros_p=[(2.0, 2.5, 1)])
    # exactness of the strict bound at |S| = 6 pi
    L_star = math.sqrt(6 * PI)
    with pytest.raises(Exception):
        check_bradlow(cfg, TorusGeometry(L_star * (1 - 1e-9), L_star, 16, 16))
    check_bradlow(cfg, TorusGeometry(L_star * (1 + 1e-9), L_star, 16, 16))

    base = {
        "torus": {"L1": 6.0, "L2": 6.0, "n1": 128, "n2": 128},
        "sources": {"zeros_q": [[1.0, 1.5, 1]], "zeros_p": [[2.0, 2.5, 1]]},
        "solver": {"model": "tw"},
    }
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps(base))

    # sweep: admissibility flag flips exactly where |S| crosses 6 pi
    assert main(
        ["sweep", "--config", str(cfg_path), "--lengths", "4,4.4,4.8,5.2,5.6,6",
         "--out", str(tmp_path / "sw")]
    ) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()[1:]
    ]
    for row in rows:
        assert int(row[1]) == (1 if float(row[0]) > 6 * PI else 0)

    # solves succeed for |S| in {25, 36} and are refused for |S| = 16
    codes = {}
    for L in (4.0, 5.0, 6.0):
        run = dict(base)
        run["torus"] = {"L1": L, "L2": L, "n1": 128, "n2": 128}
        p = tmp_path / f"run{L}.json"
        p.write_text(json.dumps(run))
        codes[L * L] = main(["solve", "--config", str(p), "--out", str(tmp_path / f"out{L}")])
    assert codes[16.0] == 2
    assert codes[25.0] == 0
    assert codes[36.0] == 0
    refused = json.loads((tmp_path / "out4.0" / "report.json").read_text())
    assert refused["status"] == "inadmissible"
    assert refused["admissibility"]["violated"] == "Bradlow bound"


@criterion("05 tw uniqueness")
def test_c05_uniqueness(uniqueness_solves):
    _, sols = uniqueness_solves
    diff = max(
        np.abs(sols[0].U.values - sols[1].U.values).max(),
        np.abs(sols[0].V.values - sols[1].V.values).max(),
    )
    assert diff < 1e-6


@criterion("06 gradient consistency")
def test_c06_gradient_finite_differences():
    geom = TorusGeometry(6.0, 6.0, 48, 48)
    cfg = VortexConfiguration(zeros_q=TW_POINTS_Q, zeros_p=TW_POINTS_P)
    problem = tw_problem(geom, cfg)
    rng = np.random.default_rng(7)
    x1, x2 = geom.nodes()
    eps = 1e-5

    def smooth(scale=0.5):
        arr = np.zeros((geom.n1, geom.n2))
        for _ in range(5):
            m, n = rng.integers(-3, 4, size=2)
            arr += rng.normal() * np.cos(
                2 * PI * (m * x1 / geom.L1 + n * x2 / geom.L2)
                + rng.uniform(0, TWO_PI)
            )
        return scale * arr

    for _ in range(10):
        f, h = smooth(), smooth()
        df, dh = smooth(), smooth()
        g1, g2 = functional_gradient(geom.field(f), geom.field(h), problem)
        analytic = integrate(geom.field(g1.values * df + g2.values * dh))
        plus = functional_value(geom.field(f + eps * df), geom.field(h + eps * dh), problem)
        minus = functional_value(geom.field(f - eps * df), geom.field(h - eps * dh), problem)
        assert (plus - minus) / (2 * eps) == pytest.approx(analytic, rel=1e-6)


@criterion("07 functional lower bound at iterates")
def test_c07_lower_bound(tw_solves, uniqueness_solves):
    for problem, sol in tw_solves.values():
        geom = problem.geometry
        bound = 4 * (
            math.log(geom.area / problem.a1) + math.log(geom.area / problem.a2)
        )
        for entry in sol.trace:
            assert entry["I"] >= bound
    problem, sols = uniqueness_solves
    geom = problem.geometry
    bound = 4 * (math.log(geom.area / problem.a1) + math.log(geom.area / problem.a2))
    for sol in sols:
        for entry in sol.trace:
            assert entry["I"] >= bound


@criterion("08 vav admissibility sharpness")
def test_c08_admissibility_sharp():
    # N1 = 3, others 0: both inequalities read 3 pi/|S| < 1, flip at 3 pi
    cfg3 = VortexConfiguration(zeros_q=[(0.1, 0.1, 3)])
    L3 = math.sqrt(3 * PI)
    with pytest.raises(Inadmissible):
        check_admissibility(cfg3, TorusGeometry(L3 * (1 - 1e-6), L3, 16, 16))
    check_admissibility(cfg3, TorusGeometry(L3 * (1 + 1e-6), L3, 16, 16))

    # N2 = 2, others 0: the weighted bound 4 pi/|S| < 1 binds, flip at 4 pi
    cfg2 = VortexConfiguration(zeros_p=[(0.1, 0.1, 2)])
    L2 = math.sqrt(4 * PI)
    with pytest.raises(Inadmissible) as exc:
        check_admissibility(cfg2, TorusGeometry(L2 * (1 - 1e-6), L2, 16, 16))
    assert exc.value.margin_a > 0
    assert exc.value.margin_b <= 0
    check_admissibility(cfg2, TorusGeometry(L2 * (1 + 1e-6), L2, 16, 16))


@criterion("09 vav quantization")
def test_c09_vav_quantization(vav_geom):
    problem = vav_problem(vav_geom, VortexConfiguration(zeros_q=[(2.9, 3.3, 1)]))
    sol = solve_vav(problem)
    qi = vav_quantized_integrals(sol, problem)
    assert qi["Iu"] == pytest.approx(PI, rel=1e-2)
    assert qi["Iv"] == pytest.approx(PI, rel=1e-2)

    balanced = vav_problem(
        vav_geom,
        VortexConfiguration(zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)]),
    )
    sol_b = solve_vav(balanced)
    qi_b = vav_quantized_integrals(sol_b, balanced)
    assert abs(qi_b["Iu"]) <= 1e-2 * vav_geom.area
    assert abs(qi_b["Iv"]) <= 1e-2 * vav_geom.area


@criterion("10 vav fluxes and energy")
def test_c10_vav_flux_energy(vav_geom):
    cfg = VortexConfiguration(
        zeros_q=[(1.2, 1.4, 1), (3.8, 4.4, 1)], poles_p=[(4.6, 3.0, 1)]
    )
    problem = vav_problem(vav_geom, cfg)
    sol = solve_vav(problem)
    fhat, ftilde = curvatures_vav(sol)
    chern1 = integrate(vav_geom.field(fhat.values - ftilde.values)) / TWO_PI
    chern2 = integrate(ftilde) / TWO_PI
    assert chern1 == pytest.approx(2.0, abs=0.01)
    assert chern2 == pytest.approx(-1.0, abs=0.01)
    energy = energy_vav(cfg)
    assert energy.total == 12.0 * PI
    assert energy.chern_flux == 2.0 * TWO_PI * 1
    assert energy.thom_q == 0.0
    assert energy.thom_p == 8.0 * PI


@criterion("11 constraint-shift closed form")
def test_c11_shift_closed_form():
    geom = TorusGeometry(6.0, 6.0, 128, 128)
    zero = geom.zeros()
    for a in (-0.9, 0.0, 0.5):
        c = constraint_shift(zero, zero, zero, a * geom.area, geom)
        assert c == pytest.approx(2.0 * math.atanh(a), abs=1e-10)


@criterion("12 f-function properties")
def test_c12_f_properties():
    rng = np.random.default_rng(12)
    s1, s2, t = 3.0 * rng.standard_normal((3, 10000))
    vals = f_fun(s1, s2, t)
    assert (np.abs(vals) < 1.0).all()
    eps = 1e-6
    fd = (f_fun(s1, s2, t + eps) - f_fun(s1, s2, t - eps)) / (2 * eps)
    assert (fd > 0.0).all()
    assert (fd <= 0.5 + 1e-9).all()


@criterion("13 method agreement")
def test_c13_method_agreement(vav_geom):
    cfg = VortexConfiguration(zeros_q=[(1.7, 2.2, 1)], poles_q=[(4.3, 3.9, 1)])
    problem = vav_problem(vav_geom, cfg)
    newton = solve_vav(problem, method="newton")
    picard = solve_vav(problem, method="fixed_point")
    diff = max(
        np.abs(newton.U.values - picard.U.values).max(),
        np.abs(newton.V.values - picard.V.values).max(),
    )
    assert diff < 1e-5


@criterion("14 background oracle equivalence")
def test_c14_background_oracle():
    from vortexlab import background

    L, n = 8.0, 128
    geom = TorusGeometry(L, L, n, n)
    sigma = 2.0 * geom.h1
    z = (4.0, 4.0)
    bg = background(geom, [(z[0], z[1], 1)], sigma)
    value = bg.values[0, 0]  # antipode of the vortex

    # independent truncated-Fourier mode sum, ~1e6 modes
    modes = np.arange(-500, 501)
    k = 2 * PI * modes / L
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    ksq = K1**2 + K2**2
    nz = ksq > 0
    terms = np.zeros_like(ksq)
    terms[nz] = (
        np.cos(K1[nz] * (0.0 - z[0]) + K2[nz] * (0.0 - z[1]))
        * np.exp(-0.5 * sigma**2 * ksq[nz])
        / ksq[nz]
    )
    oracle = -4 * PI * terms.sum() / (L * L)
    assert oracle == pytest.approx(ANTIPODE_ORACLE, abs=1e-9)
    assert value == pytest.approx(oracle, abs=1e-6)
