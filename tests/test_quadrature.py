"""Adaptive quadrature against closed-form integrals and scipy."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr

from wle.quadrature import Quadrature, QuadratureWarning


def test_polynomial_exact():
    q = Quadrature()
    val = q.integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)


def test_gaussian_density_mass():
    q = Quadrature(tol=1e-10)
    dens = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    assert q.integrate(dens, -10, 10) == pytest.approx(1.0, abs=1e-10)


def test_vector_valued_integrand():
    q = Quadrature()
    val = q.integrate(lambda x: np.column_stack([x**2, np.sin(x)]), 0.0, 1.0)
    np.testing.assert_allclose(val, [1.0 / 3.0, 1.0 - np.cos(1.0)],
                               atol=1e-10)


def test_matrix_valued_integrand():
    q = Quadrature()

    def f(x):
        out = np.zeros((x.size, 2, 2))
        out[:, 0, 0] = x
        out[:, 1, 1] = x**3
        return out

    val = q.integrate(f, 0.0, 2.0)
    np.testing.assert_allclose(val, [[2.0, 0.0], [0.0, 4.0]], atol=1e-10)


def test_breakpoints_isolate_jump():
    # integrand with a jump at 0.3: forcing a panel break there keeps the
    # piecewise-smooth convergence; the reference is exact
    q = Quadrature(tol=1e-10)
    f = lambda x: np.where(x < 0.3, 1.0, 2.0) * x
    val = q.integrate(f, 0.0, 1.0, points=[0.3])
    exact = 0.5 * 0.3**2 + (1.0 - 0.3**2)
    assert val == pytest.approx(exact, abs=1e-10)


def test_kink_against_scipy():
    q = Quadrature(tol=1e-10)
    f = lambda x: np.abs(x - 0.25) * np.exp(-x)
    ours = q.integrate(f, 0.0, 2.0, points=[0.25])
    ref = scipy_quad(f, 0.0, 2.0, points=[0.25], limit=200)[0]
    assert ours == pytest.approx(ref, abs=1e-10)


def test_adaptive_narrow_spike():
    # a spike far narrower than the initial panels forces bisection; the
    # breakpoints bracket the spike so the rule cannot step over it
    q = Quadrature(tol=1e-9)
    f = lambda x: np.exp(-0.5 * ((x - 0.1) / 1e-3) ** 2)
    val = q.integrate(f, -5.0, 5.0, points=[0.095, 0.105])
    exact = 1e-3 * np.sqrt(2 * np.pi)
    assert val == pytest.approx(exact, rel=1e-5)


def test_tail_integral_of_normal():
    q = Quadrature(tol=1e-12)
    dens = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    assert q.integrate(dens, 1.0, 10.0) == pytest.approx(ndtr(-1.0),
                                                         abs=1e-11)


def test_warning_when_tolerance_not_met():
    # a jump at 1/3 never falls on a panel edge: at the depth limit the
    # panel holding it still errs by about its width, far above 1e-14
    q = Quadrature(tol=1e-14)
    with pytest.warns(QuadratureWarning):
        q.integrate(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


def test_validation():
    with pytest.raises(ValueError):
        Quadrature(tol=0.0)
    q = Quadrature()
    with pytest.raises(ValueError):
        q.integrate(lambda x: x, 1.0, 1.0)


def test_outside_breakpoints_ignored():
    q = Quadrature()
    val = q.integrate(lambda x: x, 0.0, 1.0, points=[-3.0, 7.0])
    assert val == pytest.approx(0.5, abs=1e-12)
