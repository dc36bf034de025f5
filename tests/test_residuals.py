"""Empirical-function conventions and tail-residual branch logic."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr

from wle.datasets import load_dataset
from wle.families import get_family
from wle.residuals import (EmpiricalFunctions, ResidualConfig, model_tail,
                           tau_branch, tau_for_sample)
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


def _tau_branch_reference(Fn, Sn, F, S, p):
    # the two-division residual that tau_branch replaced: both tail ratios
    # at every point, then the branch picks one
    F = np.asarray(F, dtype=float)
    S = np.asarray(S, dtype=float)
    lower = F <= p
    upper = F >= 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = np.where(upper, Sn / S, np.where(lower, Fn / F, 1.0))
    tau -= 1.0
    np.copyto(tau, np.inf, where=~np.isfinite(tau))
    return tau


def _assert_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


# standardized residuals at the branch split, at the float limits of ndtr
# and past its underflow
_EDGE_Z = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17,
                    np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1.0,
                    -1.0, 8.3, -8.3, 38.5, -38.5, 40.0, -40.0])
_ONE_TAIL_CASES = {
    # theta 0 (unit variance) leaves the edge values as they are; a tiny
    # variance or sigma standardizes a 1e300 observation to +-inf
    "normal": (np.r_[_EDGE_Z, 1e300, -1e300],
               np.array([[0.0, 1.0], [0.0, 1e-300], [0.3, 2.0]])),
    "normal_location": (_EDGE_Z, np.array([[0.0], [1e-17], [-0.7]])),
    "normal_regression": (
        np.column_stack([np.linspace(-1.0, 1.0, _EDGE_Z.size + 2),
                         np.r_[_EDGE_Z, 1e300, -1e300]]),
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e-300], [0.2, -0.5, 1.5]])),
}


def _reference_z(name, thetas, x):
    # the standardized residual of the normal-error families, written out
    if name == "normal":
        return (x - thetas[:, 0:1]) / np.sqrt(thetas[:, 1:2])
    if name == "normal_location":
        return x - thetas[:, 0:1]
    return ((x[:, 1] - thetas[:, 0:1] - thetas[:, 1:2] * x[:, 0])
            / thetas[:, 2:3])


@pytest.mark.parametrize("p", [0.5, 0.45, 0.2, 0.1])
@pytest.mark.parametrize("name", sorted(_ONE_TAIL_CASES))
def test_one_tail_residual_matches_both_tails_bit_for_bit(name, p):
    # the solver residual of a normal-error family reads one tail,
    # ndtr(-|z|), per observation; it must equal the three-branch residual
    # of both tails, ndtr(z) and ndtr(-z), bit for bit and without a warning
    x, thetas = _ONE_TAIL_CASES[name]
    fam = get_family(name)
    rc = ResidualConfig(p=p, kind=fam.kind)
    with np.errstate(over="ignore"):
        z = _reference_z(name, thetas, x)
    if name == "normal_regression":
        Fn, Sn = np.array([EmpiricalFunctions(row).at_sample(row)
                           for row in z]).transpose(1, 0, 2)
    else:
        Fn, Sn = EmpiricalFunctions(x).at_sample(x)
    ref = _tau_branch_reference(Fn, Sn, ndtr(z), ndtr(-z), p)
    if name != "normal_location":
        np.testing.assert_array_equal(z[1, -2:], [np.inf, -np.inf])
    with np.errstate(over="ignore"):
        _assert_bits(fam.residuals(thetas, x), z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_bits(tau_for_sample(rc, fam, thetas, x), ref)
        for b, theta in enumerate(thetas):
            _assert_bits(tau_for_sample(rc, fam, theta, x), ref[b])


@pytest.mark.parametrize("p", [0.5, 0.2])
def test_undefined_model_tail_gets_inf(p):
    # an undefined standardized residual or F gets weight zero, not the
    # central region's residual 0 (weight one), whichever p
    fam, x = get_family("normal_location"), np.array([-1.0, 0.0, 2.0])
    tau = tau_for_sample(ResidualConfig(p=p), fam, np.array([np.nan]), x)
    assert np.all(tau == np.inf)
    F = np.array([0.1, np.nan, 0.5, np.nan])
    assert np.array_equal(tau_branch(0.5, 0.5, F, 1.0 - F, p) == np.inf,
                          np.isnan(F))


@pytest.mark.parametrize("p", [0.5, 0.45, 0.2, 0.1])
def test_tau_branch_matches_two_division_reference(p):
    # tau_branch picks each point's tails before its one division; the
    # result is the two-division residual bit for bit, at the branch
    # boundaries, for vanished tails, batched against one sample's Fn and
    # Sn, and for scalars
    rng = np.random.default_rng(21)
    F = np.r_[rng.uniform(size=40), 0.0, 1.0, p, 1.0 - p, 0.5,
              np.nextafter(p, 1.0), np.nextafter(1.0 - p, 0.0)]
    S = np.r_[1.0 - F[:40], 1.0, 0.0, 1.0 - p, p, 0.5, 0.5, 0.5]
    Fn = np.r_[rng.uniform(0.01, 1.0, 40), 0.0, 0.5, 0.3, 0.7, 0.5, 0.5,
               0.5]
    Sn = np.r_[rng.uniform(0.01, 1.0, 40), 0.5, 0.0, 0.7, 0.3, 0.5, 0.5,
               0.5]
    batch = np.stack([F, F[::-1], np.sort(F)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_bits(tau_branch(Fn, Sn, F, S, p),
                     _tau_branch_reference(Fn, Sn, F, S, p))
        _assert_bits(tau_branch(Fn, Sn, batch, 1.0 - batch, p),
                     _tau_branch_reference(Fn, Sn, batch, 1.0 - batch, p))
        for i in range(F.size):
            _assert_bits(tau_branch(Fn[i], Sn[i], F[i], S[i], p),
                         _tau_branch_reference(Fn[i], Sn[i], F[i], S[i], p))


def test_model_tail_branch_boundaries():
    # F = 1/2 reads the upper tail at p = 1/2; at p = 0.2 the two branch
    # boundaries F = p and F = 1 - p read the lower and the upper tail
    F = np.array([0.5, 0.2, 0.8])
    S = np.array([0.6, 0.9, 0.3])
    upper, T = model_tail(F[:1], S[:1], 0.5)
    assert upper.tolist() == [True] and T.tolist() == [0.6]
    upper, T = model_tail(F[1:], S[1:], 0.2)
    assert upper.tolist() == [False, True] and T.tolist() == [0.2, 0.3]
