"""Weight-kernel invariants, scipy density-ratio oracles, property tests."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from wle.weights import (DEFAULT_SPECS, GammaKernel, GevKernel, KERNELS,
                         ScaledFKernel, WeibullKernel)

ALL_SPECS = [GammaKernel(1.01), GammaKernel(1.5), GammaKernel(5.0),
             WeibullKernel(1.01), WeibullKernel(2.0),
             GevKernel(0.5), GevKernel(10.0),
             ScaledFKernel(2.1, 1.0), ScaledFKernel(2.5, 4.0)]

TAUS = np.array([-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 1.0, 3.0, 10.0, 100.0])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_endpoint_values(spec):
    assert spec.weight(0.0) == pytest.approx(1.0, abs=1e-12)
    assert spec.weight(-1.0) == 0.0
    assert spec.weight(np.inf) == 0.0
    assert spec.weight(-2.0) == 0.0


EDGE_TAUS = np.array([-1.0, -2.0, np.inf, -np.inf, np.nan, 1e300])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_edge_residuals_give_zero_without_warnings(spec):
    # the kernel runs on the whole array and zeroes tau <= -1, +inf and
    # NaN afterwards; no warning escapes, and an array gives bit for bit
    # the weights of its entries taken one at a time
    mixed = np.concatenate([EDGE_TAUS, TAUS, EDGE_TAUS[::-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [spec.weight(t) for t in EDGE_TAUS] == [0.0] * EDGE_TAUS.size
        array = spec.weight(mixed)
        single = np.array([spec.weight(t) for t in mixed])
    assert array.tobytes() == single.tobytes()


def _weight_reference(spec, tau):
    """The kernel written with a fresh exp and a clip to [0, 1]."""
    tau = np.asarray(tau, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.exp(spec._log_weight(tau))
    out[~((tau > -1.0) & (tau < np.inf))] = 0.0
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_in_place_kernel_matches_reference_bit_for_bit(spec):
    # the edge values, the domain endpoint approached from inside, tiny
    # and huge residuals of both signs, and a (B, n) batch
    rng = np.random.default_rng(11)
    tau = np.concatenate([
        EDGE_TAUS, TAUS, -1.0 + np.logspace(-300, 0, 61),
        np.logspace(-300, 300, 61), -np.logspace(-300, -1e-9, 61),
        np.nextafter(-1.0, 0.0) * np.ones(1), rng.exponential(2.0, 136) - 1.0,
    ]).reshape(12, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spec.weight(tau)
    assert got.tobytes() == _weight_reference(spec, tau).tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_range_and_mode(spec):
    w = spec.weight(TAUS)
    assert np.all(w >= 0.0) and np.all(w <= 1.0)
    assert np.all(w <= spec.weight(0.0) + 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_flat_at_zero(spec):
    h = 1e-6
    assert abs(spec.weight(h) - spec.weight(-h)) / (2 * h) < 1e-4
    assert abs(spec.weight_derivative(0.0)) < 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_unimodal_derivative_sign(spec):
    up = np.array([-0.9, -0.5, -0.1])
    down = np.array([0.5, 2.0, 8.0])
    assert np.all(spec.weight_derivative(up) > 0)
    assert np.all(spec.weight_derivative(down) < 0)


def test_gamma_oracle():
    # H is the gamma(alpha, rate alpha-1) density normalized at its mode 1
    spec = GammaKernel(1.5)
    oracle = (st.gamma.pdf(TAUS + 1, a=1.5, scale=2.0)
              / st.gamma.pdf(1.0, a=1.5, scale=2.0))
    np.testing.assert_allclose(spec.weight(TAUS), oracle, atol=1e-12)


def test_weibull_oracle():
    spec = WeibullKernel(2.0)
    oracle = (st.weibull_min.pdf(TAUS + 1, 2.0, scale=spec.scale)
              / st.weibull_min.pdf(1.0, 2.0, scale=spec.scale))
    np.testing.assert_allclose(spec.weight(TAUS), oracle, atol=1e-12)


def test_gev_oracle():
    # scipy's genextreme with shape c = -xi, our location/scale, mode at 0
    spec = GevKernel(3.0)
    oracle = (st.genextreme.pdf(TAUS, -3.0, loc=spec.location,
                                scale=spec.scale)
              / st.genextreme.pdf(0.0, -3.0, loc=spec.location,
                                  scale=spec.scale))
    np.testing.assert_allclose(spec.weight(TAUS), oracle, atol=1e-12)


def test_scaled_f_oracle():
    spec = ScaledFKernel(2.5, 1.0)
    a = spec.mode_scale
    oracle = (st.f.pdf((TAUS + 1) / a, 2.5, 1.0)
              / st.f.pdf(1.0 / a, 2.5, 1.0))
    np.testing.assert_allclose(spec.weight(TAUS), oracle, atol=1e-12)


def test_second_derivative_closed_forms():
    assert GammaKernel(1.7).second_derivative_at_zero() == pytest.approx(-0.7)
    spec = ScaledFKernel(2.5, 1.0)
    expected = (2.0 - 2.5) * 3.0 / (2.0 * 3.5)
    assert spec.second_derivative_at_zero() == pytest.approx(expected)
    assert WeibullKernel(1.5).second_derivative_at_zero() == pytest.approx(
        -1.5 * 0.5)
    assert GevKernel(4.0).second_derivative_at_zero() == pytest.approx(
        -5.0 / 16.0)
    # central differences of the weight agree with the closed forms
    h = 1e-4
    for s in (GammaKernel(1.7), ScaledFKernel(2.5, 1.0), WeibullKernel(1.5),
              GevKernel(4.0)):
        num = (s.weight(h) - 2 * s.weight(0.0) + s.weight(-h)) / h**2
        assert num == pytest.approx(s.second_derivative_at_zero(), abs=1e-4)


def test_tuning_monotonicity():
    # stronger tuning downweights every nonzero residual more
    for tau in (-0.5, 0.7, 2.0):
        assert GammaKernel(1.5).weight(tau) > GammaKernel(3.0).weight(tau)
        assert WeibullKernel(1.2).weight(tau) > WeibullKernel(2.0).weight(tau)
        # larger xi weakens GEV downweighting
        assert GevKernel(20.0).weight(tau) > GevKernel(2.0).weight(tau)
        # d1 toward 2 weakens scaled-F downweighting
        assert (ScaledFKernel(2.05, 1.0).weight(tau)
                > ScaledFKernel(3.0, 1.0).weight(tau))


def test_likelihood_limits():
    # tuning at its boundary recovers unit weights (plain likelihood)
    taus = np.array([-0.8, 0.5, 4.0])
    assert np.all(GammaKernel(1.0 + 1e-9).weight(taus) > 1 - 1e-6)
    assert np.all(WeibullKernel(1.0 + 1e-9).weight(taus) > 1 - 1e-6)
    assert np.all(GevKernel(1e6).weight(taus) > 1 - 1e-4)
    assert np.all(ScaledFKernel(2.0 + 1e-9, 1.0).weight(taus) > 1 - 1e-6)


def test_registries():
    assert set(KERNELS) == {"gamma", "weibull", "gev", "scaled_f"}
    assert DEFAULT_SPECS["gamma"] == GammaKernel(1.01)
    assert DEFAULT_SPECS["weibull"] == WeibullKernel(1.01)
    assert DEFAULT_SPECS["gev"] == GevKernel(10.0)
    assert DEFAULT_SPECS["scaled_f"] == ScaledFKernel(2.1, 1.0)


# a non-finite value of any tuning field fails by the field's name
_NON_FINITE = [pytest.param(lambda k=kernel, n=f.name, v=v: k(**{n: v}),
                            id=f"{name}-{f.name}-{v}")
               for name, kernel in KERNELS.items() for f in fields(kernel)
               for v in (np.inf, np.nan)]


@pytest.mark.parametrize("bad", [lambda: GammaKernel(1.0),
                                 lambda: WeibullKernel(0.9),
                                 lambda: GevKernel(0.0),
                                 lambda: ScaledFKernel(2.0, 1.0),
                                 lambda: ScaledFKernel(2.5, 0.0),
                                 *_NON_FINITE])
def test_invalid_tuning_rejected(bad):
    with pytest.raises(ValueError, match=r"^(\w+) = \S+: \1 must be "):
        bad()


@settings(max_examples=200, deadline=None)
@given(tau=hst.floats(min_value=-1.0, max_value=1e6),
       spec=hst.sampled_from(ALL_SPECS))
def test_property_range(tau, spec):
    w = spec.weight(tau)
    assert 0.0 <= w <= 1.0


@settings(max_examples=200, deadline=None)
@given(tau=hst.floats(min_value=-0.99, max_value=50.0),
       alpha=hst.floats(min_value=1.001, max_value=10.0))
def test_property_gamma_matches_formula(tau, alpha):
    expected = ((1.0 + tau) * np.exp(-tau)) ** (alpha - 1.0)
    assert GammaKernel(alpha).weight(tau) == pytest.approx(
        min(expected, 1.0), rel=1e-10, abs=1e-300)
