import numpy as np
import pytest

from vortexlab import (
    ConfigurationError,
    SigmaTooSmall,
    TorusGeometry,
    VortexConfiguration,
    background,
    build_backgrounds,
    constraint_shift,
    integrate,
    laplacian,
    mean,
    mollified_delta,
    tw_problem,
    vav_problem,
)


@pytest.fixture(scope="module")
def geom():
    # L/n = 0.25 is exactly representable, so grid-cell shifts are bitwise
    return TorusGeometry(8.0, 8.0, 32, 32)


def test_configuration_counts():
    cfg = VortexConfiguration(
        zeros_q=[(1.0, 2.0, 2), (3.0, 0.5, 1)],
        poles_q=[(5.0, 5.0, 1)],
        zeros_p=[(2.0, 2.0, 3)],
    )
    assert cfg.counts() == (3, 1, 3, 0)


def test_configuration_rejects_bad_multiplicity():
    # every malformed entry is a ConfigurationError, never a bare ValueError,
    # OverflowError or TypeError, and bools and non-finite coordinates are no
    # numbers
    for entry in (
        (1.0, 2.0, 0),
        (1.0, 2.0, 1.5),
        (1.0, 2.0, float("nan")),
        (1.0, 2.0, float("inf")),
        (1.0, 2.0, True),
        5,
        ("a", 2.0, 1),
        (float("nan"), 2.0, 1),
        (1.0, float("-inf"), 1),
    ):
        with pytest.raises(ConfigurationError):
            VortexConfiguration(zeros_q=[entry])
    # a source list that is not a list; a string used to be read one
    # character at a time, and None or a number raised a bare TypeError
    for points in (None, 3, "ab"):
        with pytest.raises(ConfigurationError, match="list of"):
            VortexConfiguration(zeros_q=points)


def test_configuration_rejects_coincident_zero_pole():
    with pytest.raises(ConfigurationError):
        VortexConfiguration(zeros_q=[(1.0, 2.0, 1)], poles_q=[(1.0, 2.0, 1)])
    # same point in different sections is fine
    VortexConfiguration(zeros_q=[(1.0, 2.0, 1)], poles_p=[(1.0, 2.0, 1)])


def test_mollified_delta_unit_mass(geom):
    for sigma in (geom.h1, 2 * geom.h1, 5 * geom.h1):
        d = mollified_delta(geom, (1.3, 6.1), sigma)
        assert integrate(d) == pytest.approx(1.0, abs=1e-12)


def test_mollified_delta_peak(geom):
    sigma = 2 * geom.h1
    d = mollified_delta(geom, (2.0, 3.0), sigma)  # on a grid node
    assert d.values.max() == pytest.approx(1.0 / (2 * np.pi * sigma**2), rel=1e-6)


def test_mollified_delta_periodicity(geom):
    sigma = 2 * geom.h1
    d1 = mollified_delta(geom, (1.25, 3.5), sigma)
    d2 = mollified_delta(geom, (1.25 + geom.L1, 3.5), sigma)
    assert np.array_equal(d1.values, d2.values)


def test_mollified_delta_rejects_small_sigma(geom):
    with pytest.raises(SigmaTooSmall):
        mollified_delta(geom, (1.0, 1.0), 0.5 * geom.h1)


def test_mollified_delta_rejects_a_width_over_the_torus_side(geom):
    # the image sums take about 12*sigma/L terms per node: at sigma = 1e7 on
    # this torus, arrays of about 1 GB each
    assert integrate(mollified_delta(geom, (1.0, 1.0), geom.L1)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigurationError, match="over the torus side"):
        mollified_delta(geom, (1.0, 1.0), 1.5 * geom.L1)
    narrow = TorusGeometry(8.0, 2.0, 32, 32)
    with pytest.raises(ConfigurationError, match="over the torus side"):
        mollified_delta(narrow, (1.0, 1.0), 3.0)


@pytest.mark.parametrize("width", [float("nan"), float("inf"), True])
def test_a_width_that_is_not_a_finite_number_is_refused(width):
    # a NaN kappa used to escape from the image sum as a bare ValueError,
    # and a bool kappa was taken as 1
    geom = TorusGeometry(4.0, 4.0, 16, 16)
    cfg = VortexConfiguration(zeros_q=[(1.0, 1.0, 1)])
    for build in (tw_problem, vav_problem):
        with pytest.raises(ConfigurationError, match="kappa must be a finite number"):
            build(geom, cfg, kappa=width)
    with pytest.raises(ConfigurationError, match="sigma must be a finite number"):
        mollified_delta(geom, (1.0, 1.0), width)


@pytest.mark.parametrize("sources", [{}, {"zeros_q": [(1.0, 1.0, 1)]}])
def test_a_width_the_grid_or_the_torus_cannot_hold_is_refused(sources):
    # the problem builders refuse it through `mollifier_width`, with sources
    # or without; without, they used to build a problem at any kappa
    geom = TorusGeometry(6.0, 6.0, 32, 32)
    cfg = VortexConfiguration(**sources)
    for build in (tw_problem, vav_problem):
        with pytest.raises(SigmaTooSmall, match="under grid cell 1.875e-01"):
            build(geom, cfg, kappa=0.5)
        with pytest.raises(ConfigurationError, match="over the torus side 6.000e"):
            build(geom, cfg, kappa=64)
        assert build(geom, cfg, kappa=16).geometry is geom  # half the side is held


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf"), True])
def test_a_shift_target_that_is_not_a_finite_number_is_refused(target, geom):
    # a NaN or infinite target used to run the root search into a
    # BracketFailure, a solver error, and a bool target was taken as 1
    zero = geom.zeros()
    with pytest.raises(ConfigurationError, match="target must be a finite number"):
        constraint_shift(zero, zero, zero, target, geom)


def test_background_empty_is_zero(geom):
    bg = background(geom, [], 2 * geom.h1)
    assert np.abs(bg.values).max() == 0.0


def test_background_mean_zero(geom):
    bg = background(geom, [(2.7, 4.2, 1)], 2 * geom.h1)
    assert abs(mean(bg)) < 1e-10


def test_background_solves_poisson(geom):
    sigma = 2 * geom.h1
    points = [(2.7, 4.2, 1), (6.0, 1.0, 2)]
    bg = background(geom, points, sigma)
    rhs = np.full((geom.n1, geom.n2), -4 * np.pi * 3 / geom.area)
    for x, y, m in points:
        rhs += 4 * np.pi * m * mollified_delta(geom, (x, y), sigma).values
    assert np.abs(laplacian(bg).values - rhs).max() < 1e-8


def test_background_linearity(geom):
    sigma = 2 * geom.h1
    a = [(1.0, 1.0, 1)]
    b = [(5.5, 6.5, 2)]
    both = background(geom, a + b, sigma)
    split = background(geom, a, sigma).values + background(geom, b, sigma).values
    assert np.abs(both.values - split).max() < 1e-10


def test_background_multiplicity_is_coefficient(geom):
    sigma = 2 * geom.h1
    double = background(geom, [(3.0, 3.0, 2)], sigma)
    unit = background(geom, [(3.0, 3.0, 1)], sigma)
    assert np.abs(double.values - 2 * unit.values).max() < 1e-10


def test_background_translation_by_grid_cells(geom):
    sigma = 2 * geom.h1
    base = background(geom, [(2.0, 3.0, 1)], sigma)
    shifted = background(geom, [(2.0 + 3 * geom.h1, 3.0 + 5 * geom.h2, 1)], sigma)
    rolled = np.roll(base.values, (3, 5), axis=(0, 1))
    assert np.abs(shifted.values - rolled).max() < 1e-12


def test_background_deepens_as_sigma_shrinks(geom):
    mins = [
        background(geom, [(4.0, 4.0, 1)], k * geom.h1).values.min()
        for k in (4, 3, 2)
    ]
    assert mins[0] > mins[1] > mins[2]


def test_background_against_mode_sum_oracle():
    # independent check: truncated Fourier sum for the mollified point source
    L, n = 8.0, 64
    geom = TorusGeometry(L, L, n, n)
    sigma = 2 * geom.h1
    z = (4.0, 4.0)
    bg = background(geom, [(z[0], z[1], 1)], sigma)

    modes = np.arange(-250, 251)
    k = 2 * np.pi * modes / L
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    ksq = K1**2 + K2**2
    nz = ksq > 0
    d = (0.0 - z[0], 0.0 - z[1])
    terms = np.zeros_like(ksq)
    terms[nz] = np.cos(K1[nz] * d[0] + K2[nz] * d[1]) * np.exp(
        -0.5 * sigma**2 * ksq[nz]
    ) / ksq[nz]
    oracle = -4 * np.pi * terms.sum() / (L * L)
    assert bg.values[0, 0] == pytest.approx(oracle, abs=1e-6)


def test_build_backgrounds_counts(geom):
    cfg = VortexConfiguration(
        zeros_q=[(1.0, 1.0, 1)],
        poles_q=[(4.0, 4.0, 2)],
        zeros_p=[(2.0, 6.0, 1)],
    )
    sigma = 2 * geom.h1
    bset = build_backgrounds(geom, cfg, sigma)
    # each source set's background, in its slot
    for f, points in zip(
        (bset.u01, bset.u02, bset.v01), (cfg.zeros_q, cfg.poles_q, cfg.zeros_p)
    ):
        assert np.array_equal(f.values, background(geom, points, sigma).values)
    assert np.abs(bset.v02.values).max() == 0.0
    for f in (bset.u01, bset.u02, bset.v01):
        assert abs(mean(f)) < 1e-10
