"""Empirical-function conventions and tail-residual branch logic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr

from wle.datasets import load_dataset
from wle.families import get_family
from wle.residuals import (EmpiricalFunctions, ResidualConfig, tau_branch,
                           tau_for_sample)
from wle.solver import SolverConfig, solve_from
from wle.weights import GammaKernel, WeibullKernel


def _grid_tau(config, empirical, family, theta, x):
    # the residual at arbitrary points x, with the inclusive F_n and S_n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    F, S = family.cdf_survival(theta, x)
    return tau_branch(empirical.cdf(x), empirical.survival(x), F, S, config.p)


def test_empirical_inclusive_conventions():
    emp = EmpiricalFunctions([1.0, 2.0, 2.0, 4.0])
    assert emp.cdf(2.0)[0] == pytest.approx(0.75)       # X <= x
    assert emp.survival(2.0)[0] == pytest.approx(0.75)  # X >= x
    assert emp.cdf(1.5)[0] == pytest.approx(0.25)
    assert emp.survival(4.0)[0] == pytest.approx(0.25)
    assert emp.cdf(0.0)[0] == 0.0
    assert emp.survival(0.0)[0] == 1.0


def test_empirical_sample_point_ranks():
    # tied observations take consecutive ranks in sample order
    x = [1.0, 2.0, 2.0, 4.0]
    Fn, Sn = EmpiricalFunctions(x).at_sample(x)
    np.testing.assert_array_equal(Fn, [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(Sn, [1.0, 0.75, 0.5, 0.25])
    x = [4.0, 2.0, 1.0, 2.0]
    Fn, Sn = EmpiricalFunctions(x).at_sample(x)
    np.testing.assert_array_equal(Fn, [1.0, 0.5, 0.25, 0.75])
    np.testing.assert_array_equal(Sn, [0.25, 0.75, 1.0, 0.5])


def test_empirical_sample_points_discrete_and_checked():
    # under a discrete family the sample points keep the inclusive counts
    x = [1.0, 2.0, 2.0, 4.0]
    emp = EmpiricalFunctions(x)
    Fn, Sn = emp.at_sample(x, discrete=True)
    np.testing.assert_array_equal(Fn, [0.25, 0.75, 0.75, 1.0])
    np.testing.assert_array_equal(Sn, [1.0, 0.75, 0.75, 0.25])
    # rank values belong to one sample in one order
    for other in ([4.0, 2.0, 1.0, 2.0], [1.0, 2.0, 2.0]):
        with pytest.raises(ValueError):
            emp.at_sample(other)
        with pytest.raises(ValueError):
            tau_for_sample(ResidualConfig(), get_family("normal"),
                           np.array([2.0, 1.0]), other, empirical=emp)


@pytest.mark.parametrize("bivariate", [False, True])
def test_sample_check_reads_a_private_copy(bivariate):
    # an equal copy passes the check, the object's own read-only copy
    # passes by identity, and a reordered sample or the caller's array
    # changed in place after the build still raises
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 2) if bivariate else 12)
    emp = EmpiricalFunctions(x, bivariate=bivariate)
    ref = emp.at_sample(x)
    for same in (x.copy(), emp.sample):
        np.testing.assert_array_equal(emp.at_sample(same), ref)
    with pytest.raises(ValueError):
        emp.sample[0] = 0.0
    x[0] = x[1]
    for other in (x[::-1].copy(), x):
        with pytest.raises(ValueError):
            emp.at_sample(other)
    x[0] = emp.sample[0]
    np.testing.assert_array_equal(emp.at_sample(x), ref)


def test_tied_sample_order_does_not_move_the_fit():
    # only the set of weights within a tied group enters the closed-form
    # fit, so the order of the observations cannot matter
    x = load_dataset("newcomb").column("deviation")
    assert np.unique(x).size < x.size
    fam, rc = get_family("normal"), ResidualConfig()
    spec, sc = WeibullKernel(1.1), SolverConfig()
    ref = solve_from(fam, x, rc, spec, sc, fam.mle(x)).theta
    rng = np.random.default_rng(5)
    for _ in range(3):
        xs = rng.permutation(x)
        theta = solve_from(fam, xs, rc, spec, sc, fam.mle(x)).theta
        np.testing.assert_allclose(theta, ref, rtol=0, atol=1e-10)


def test_poisson_sample_residual_by_hand():
    # under Poisson(1) the atom at 1 straddles the split, P(X < 1) = 1/e
    # <= 1/2 < P(X <= 1) = 2/e, and F = 2/e >= 1 - p puts it in the upper
    # branch: tau = S_n / S - 1 with the inclusive S_n(1) = #{X >= 1}/n
    fam = get_family("poisson")
    x = np.array([0.0, 1.0, 1.0, 3.0])
    tau = tau_for_sample(ResidualConfig(), fam, np.array([1.0]), x)
    e = np.e
    assert tau[0] == pytest.approx((1 / 4) / (1 / e) - 1.0, rel=1e-12)
    assert tau[1] == tau[2] == pytest.approx((3 / 4) / (1 - 1 / e) - 1.0,
                                             rel=1e-12)
    assert tau[3] == pytest.approx((1 / 4) / (1 - 2.5 / e) - 1.0, rel=1e-12)


def test_poisson_clean_sample_keeps_full_weight():
    # at the model the inclusive counts track P(X <= x) and P(X >= x), so
    # on clean Poisson data the weights stay near 1 and the weighted root
    # stays next to the MLE. Ranking the tied atoms instead would leave
    # weights below 1 at the model and move the root by about 5%.
    fam, sc = get_family("poisson"), SolverConfig()
    x = np.random.default_rng(3).poisson(0.4, 2000).astype(float)
    mle = fam.mle(x)
    root = solve_from(fam, x, ResidualConfig(), GammaKernel(2.0), sc, mle)
    assert root.converged
    assert root.weights.mean() > 0.99
    assert abs(root.theta[0] - mle[0]) < 0.5 * np.sqrt(0.4 / x.size)


def test_empirical_cdf_plus_survival():
    x = np.array([0.0, 1.0, 1.0, 3.0, 5.0])
    emp = EmpiricalFunctions(x)
    for v in x:
        atom = np.mean(x == v)
        assert (emp.cdf(v)[0] + emp.survival(v)[0]
                == pytest.approx(1.0 + atom))


def test_empirical_quadrants_sum():
    rng = np.random.default_rng(3)
    xy = rng.normal(size=(40, 2))
    emp = EmpiricalFunctions(xy, bivariate=True)
    q = emp.quadrants(xy)
    # quadrant masses double-count the boundary rows/columns through the
    # inclusive conventions, so each row sums to at least 1
    assert np.all(q.sum(axis=1) >= 1.0 - 1e-12)
    assert np.all(q >= 1.0 / 40 - 1e-12)  # the point itself is in all four


def test_tau_zero_when_model_matches_empirical():
    # if F_n equals F_theta at every point the residual vanishes
    fam = get_family("normal")
    theta = np.array([0.0, 1.0])
    x = np.array([-0.5, 0.1, 1.2])
    emp = EmpiricalFunctions(x)

    class Fake:
        def cdf_survival(self, th, xs):
            return emp.cdf(xs), emp.survival(xs)

    cfg = ResidualConfig()
    tau = _grid_tau(cfg, emp, Fake(), theta, x)
    np.testing.assert_allclose(tau, 0.0, atol=1e-12)
    del fam


def test_tau_branches_hand_computed():
    # single observation at 0 under N(0,1): F_n = S_n = 1, F = S = 1/2,
    # lower branch applies at F <= p: tau = 1/(1/2) - 1 = 1
    fam = get_family("normal")
    cfg = ResidualConfig()
    emp = EmpiricalFunctions([0.0])
    tau = _grid_tau(cfg, emp, fam, np.array([0.0, 1.0]), [0.0])
    assert tau[0] == pytest.approx(1.0, rel=1e-12)


def test_tau_middle_region_zero_for_small_p():
    fam = get_family("normal")
    cfg = ResidualConfig(p=0.2)
    x = np.linspace(-2.0, 2.0, 21)
    emp = EmpiricalFunctions(x)
    tau = _grid_tau(cfg, emp, fam, np.array([0.0, 1.0]), x)
    F, _ = fam.cdf_survival(np.array([0.0, 1.0]), x)
    middle = (F > 0.2) & (F < 0.8)
    assert np.all(tau[middle] == 0.0)
    assert np.any(tau[~middle] != 0.0)


def test_solver_path_maps_dead_tails_to_inf():
    fam = get_family("exponential")
    x = np.array([1.0, 2.0, 5000.0])
    tau = tau_for_sample(ResidualConfig(), fam, np.array([1.0]), x)
    assert np.isinf(tau[-1])
    assert np.all(np.isfinite(tau[:-1]))


def test_tau_regression_standard_normal_reference():
    # at beta = (0, 0) and sigma = 1 the standardized residuals are y; with
    # no ties their sample ranks equal the inclusive counts
    z = np.array([-1.5, -0.2, 0.3, 1.1])
    xy = np.column_stack([[2.0, -1.0, 0.5, 3.0], z])
    tau = tau_for_sample(ResidualConfig(kind="regression"),
                         get_family("normal_regression"),
                         np.array([0.0, 0.0, 1.0]), xy)
    emp = EmpiricalFunctions(z)
    for i, zi in enumerate(z):
        if ndtr(zi) <= 0.5:
            expected = emp.cdf(zi)[0] / ndtr(zi) - 1.0
        else:
            expected = emp.survival(zi)[0] / ndtr(-zi) - 1.0
        assert tau[i] == pytest.approx(expected, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        ResidualConfig(p=0.0)
    with pytest.raises(ValueError):
        ResidualConfig(p=0.6)
    with pytest.raises(ValueError):
        ResidualConfig(kind="nope")


def test_population_residual_shrinks_with_n():
    # tau at the true parameter tends to 0 in probability
    fam = get_family("normal")
    theta = np.array([0.0, 1.0])
    rng = np.random.default_rng(11)
    sup = []
    for n in (200, 20000):
        x = rng.normal(size=n)
        emp = EmpiricalFunctions(x)
        grid = np.linspace(-1.5, 1.5, 31)  # interior quantiles
        tau = _grid_tau(ResidualConfig(), emp, fam, theta, grid)
        sup.append(np.max(np.abs(tau)))
    assert sup[1] < sup[0]
    assert sup[1] < 0.05


@settings(max_examples=100, deadline=None)
@given(hst.lists(hst.floats(min_value=-50, max_value=50), min_size=1,
                 max_size=60))
def test_property_empirical_bounds(xs):
    emp = EmpiricalFunctions(xs)
    grid = np.linspace(min(xs) - 1, max(xs) + 1, 13)
    F, S = emp.cdf(grid), emp.survival(grid)
    assert np.all((0 <= F) & (F <= 1)) and np.all((0 <= S) & (S <= 1))
    assert np.all(np.diff(F) >= 0) and np.all(np.diff(S) <= 0)
