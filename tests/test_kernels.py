import numpy as np
import pytest

import vortexlab.tw
import vortexlab.vav
from vortexlab.diagnostics import MODELS
from vortexlab.kernels import EXP_CAP, clipped_exp, df_half, f_half

rng = np.random.default_rng(42)
SAMPLE = rng.standard_normal((64, 64)) * 3.0


def test_clipped_exp_plain():
    got, n_clip = clipped_exp(SAMPLE)
    assert n_clip == 0
    np.testing.assert_allclose(got, np.exp(SAMPLE), rtol=1e-15)


def test_clipped_exp_counts_and_caps():
    x = np.array([[0.0, 600.0], [501.0, -700.0]])
    got, n_clip = clipped_exp(x)
    assert n_clip == 2
    assert got[0, 1] == got[1, 0] == np.exp(EXP_CAP)
    assert got[1, 1] == pytest.approx(0.0, abs=1e-300)


def test_f_half_matches_exponential_form():
    direct = (np.exp(SAMPLE) - 1.0) / (np.exp(SAMPLE) + 1.0)
    np.testing.assert_allclose(f_half(SAMPLE), direct, rtol=1e-12)


def test_f_half_saturates():
    assert f_half(np.array([800.0]))[0] == 1.0
    assert f_half(np.array([-800.0]))[0] == -1.0


def test_df_half_bounds():
    x = np.linspace(-800.0, 800.0, 100001)
    d = df_half(x)
    assert (d >= 0.0).all() and (d <= 0.5).all()
    assert df_half(np.zeros(1))[0] == 0.5


def test_df_half_matches_finite_differences():
    eps = 1e-6
    fd = (f_half(SAMPLE + eps) - f_half(SAMPLE - eps)) / (2 * eps)
    np.testing.assert_allclose(df_half(SAMPLE), fd, atol=1e-9)


# ------------------------------------------- the kernel each model gives ----
# The Newton driver builds I, its gradient and its Hessian from these pieces;
# a wrong weight would only slow Newton down, so they are checked here.


@pytest.mark.parametrize("model", ["tw", "vav"])
def test_model_kernel_pieces_are_consistent(model):
    # On x spanning [-30, 30], by central differences: the bulk is an
    # antiderivative of -phi, and the weight is -phi'. The solver's phi is
    # the one the reports use.
    module = getattr(vortexlab, model)
    work = module._Work
    x = np.linspace(-30.0, 30.0, 1201)
    eps = 1e-5

    def kernel(y):
        return work.kernel(y)[0]

    def central_difference(fn):
        return (fn(x + eps) - fn(x - eps)) / (2 * eps)

    t = kernel(x)
    phi = work.phi(t)
    d_bulk = central_difference(lambda y: work.bulk(y, kernel(y)))
    np.testing.assert_allclose(d_bulk, -phi, rtol=1e-7, atol=1e-8)
    d_phi = central_difference(lambda y: work.phi(kernel(y)))
    np.testing.assert_allclose(work.weight(t), -d_phi, rtol=1e-7, atol=1e-8)
    assert MODELS[model].work is work
