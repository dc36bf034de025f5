"""Population diagnostics: consistency, influence, mixture root scans."""

import warnings

import numpy as np
import pytest
from scipy.optimize import bisect

from wle.diagnostics import (ContaminationSpec, ModelDistribution,
                             fisher_consistency_check, influence_first_order,
                             influence_report, influence_second_order,
                             mixture_root_scan, population_weighted_score)
from wle.families import DomainError, get_family
from wle.residuals import ResidualConfig
from wle.weights import GammaKernel, GevKernel, ScaledFKernel, WeibullKernel

KERNELS = [GammaKernel(1.01), GammaKernel(2.0), WeibullKernel(1.5),
           GevKernel(5.0), ScaledFKernel(2.5, 1.0)]

CASES = [("normal", (0.0, 1.0)), ("normal", (2.0, 4.0)),
         ("normal_location", (0.5,)), ("exponential", (1.0,)),
         ("exponential", (0.3,)), ("poisson", (2.5,))]


@pytest.mark.parametrize("spec", KERNELS, ids=str)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
def test_fisher_consistency(spec, case):
    # at the model the population residual vanishes, every weight is 1,
    # and the weighted score integral reduces to the plain score: zero
    name, theta = case
    val = fisher_consistency_check(get_family(name), np.array(theta),
                                   ResidualConfig(), spec)
    assert np.max(np.abs(val)) < 1e-6


def test_influence_at_model_equals_mle_influence_normal():
    # with no contamination T'(y) = I(theta)^{-1} u_theta(y)
    fam = get_family("normal")
    theta = (0.0, 1.0)
    for spec in (GammaKernel(1.5), ScaledFKernel(2.5, 1.0)):
        t0 = influence_first_order(fam, theta, spec, 0.0)
        np.testing.assert_allclose(t0, [0.0, -1.0], atol=1e-5)
        t2 = influence_first_order(fam, theta, spec, 2.0)
        np.testing.assert_allclose(t2, [2.0, 3.0], atol=1e-5)


def test_influence_at_model_equals_mle_influence_exponential():
    fam = get_family("exponential")
    t = influence_first_order(fam, (1.0,), GammaKernel(2.0), 3.0)
    # I(1) = 1 and u_1(3) = 1 - 3 = -2
    assert t[0] == pytest.approx(-2.0, abs=1e-5)


def test_influence_at_model_location_family():
    fam = get_family("normal_location")
    for y in (-1.5, 0.0, 2.5):
        t = influence_first_order(fam, (0.0,), GammaKernel(3.0), y)
        assert t[0] == pytest.approx(y, abs=1e-5)


def test_influence_matches_finite_difference_of_functional():
    # compare T'(y) against a numerically contaminated root of the
    # population weighted score for the location family
    fam = get_family("normal_location")
    spec = GammaKernel(2.0)
    y, eps = 2.0, 1e-4
    base = ModelDistribution(fam, (0.0,))
    tiny = ModelDistribution(fam, (y,))  # narrow stand-in for a point mass

    # analytic influence at the model
    t1 = influence_first_order(fam, (0.0,), spec, y)[0]
    cs = ContaminationSpec(base=base, eps=eps, contaminant=tiny)
    roots = mixture_root_scan(cs, spec, np.linspace(-1.0, 1.0, 11))
    # N(y, 1) contamination spreads the point mass; first order in eps the
    # shift agrees with the point-mass influence up to the smoothing error
    assert roots[0] / eps == pytest.approx(t1, rel=0.15)


def test_second_order_term_sign_and_magnitude():
    # downweighting must pull the second-order bias negative at a far
    # outlier for the location family: T'' < 0 while the MLE has none
    fam = get_family("normal_location")
    t2 = influence_second_order(fam, (0.0,), GammaKernel(3.0), 3.0)
    assert t2 < 0.0


def test_bias_curves_below_mle_line():
    # predicted bias eps*T' + eps^2/2 * T'' stays below the eps*y line of
    # maximum likelihood for every alpha and every eps in (0, 0.1]
    fam = get_family("normal_location")
    y = 3.0
    for alpha in (2.0, 3.0, 5.0):
        rep = influence_report(fam, (0.0,), GammaKernel(alpha), y)
        eps, bias = rep.bias_curve[:, 0], rep.bias_curve[:, 1]
        assert rep.t_prime[0] == pytest.approx(y, abs=1e-5)
        mle_line = eps * y
        assert np.all(bias[eps > 0] < mle_line[eps > 0])


def test_stronger_tuning_bends_bias_down_faster():
    fam = get_family("normal_location")
    t2 = [influence_second_order(fam, (0.0,), GammaKernel(a), 3.0)
          for a in (2.0, 3.0, 5.0)]
    assert t2[0] > t2[1] > t2[2]


def test_mixture_scan_clean_model_single_root():
    fam = get_family("normal_location")
    base = ModelDistribution(fam, (0.0,))
    cs = ContaminationSpec(base=base, eps=0.0,
                           contaminant=ModelDistribution(fam, (5.0,)))
    roots = mixture_root_scan(cs, GammaKernel(1.1),
                              np.linspace(-2.0, 7.0, 46))
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-3


def test_mixture_scan_contaminated_three_roots():
    fam = get_family("normal_location")
    base = ModelDistribution(fam, (0.0,))
    cs = ContaminationSpec(base=base, eps=0.2,
                           contaminant=ModelDistribution(fam, (5.0,)))
    roots = mixture_root_scan(cs, GammaKernel(1.1),
                              np.linspace(-2.0, 7.0, 46))
    assert len(roots) == 3
    assert abs(roots[0] - 0.0) < 0.3
    assert abs(roots[-1] - 5.0) < 0.3


@pytest.mark.parametrize("eps, mean", [(0.2, 5.0), (0.1, 4.0), (0.2, 4.0),
                                       (0.3, 3.0), (0.25, 6.0)])
def test_scan_roots_equal_scipy_bisect(eps, mean):
    # the scan's own bisection, which reads f at the left end off the
    # grid, runs scipy's iteration: the roots agree bit for bit
    norm = get_family("normal")
    cs = ContaminationSpec(base=ModelDistribution(norm, (0.0, 1.0)),
                           eps=eps,
                           contaminant=ModelDistribution(norm, (mean, 1.0)))
    spec = GammaKernel(1.05)
    grid = np.arange(-4.0, mean + 4.0 + 1e-9, 0.25)

    def psi(mu):
        return population_weighted_score(cs, spec, mu)

    values = np.array([psi(mu) for mu in grid])
    brackets = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    assert brackets.size
    expected = sorted(bisect(psi, grid[i], grid[i + 1], xtol=1e-6)
                      for i in brackets)
    assert mixture_root_scan(cs, spec, grid) == expected


def test_contamination_spec_validation():
    fam = get_family("normal_location")
    base = ModelDistribution(fam, (0.0,))
    with pytest.raises(ValueError):
        ContaminationSpec(base=base, eps=1.5,
                          contaminant=ModelDistribution(fam, (1.0,)))


INFLUENCE_ORDERS = [influence_first_order, influence_second_order,
                    influence_report]


@pytest.mark.parametrize("influence", INFLUENCE_ORDERS,
                         ids=lambda f: f.__name__)
def test_influence_rejects_y_outside_the_support(influence):
    # an exponential observation is nonnegative
    with pytest.raises(DomainError):
        influence(get_family("exponential"), (1.0,), GammaKernel(2.0), -1.0)


@pytest.mark.parametrize("influence", INFLUENCE_ORDERS,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("name, y", [("exponential", 0.0),
                                     ("normal_location", 38.0),
                                     ("normal_location", -40.0),
                                     ("normal_location", np.inf)])
def test_influence_rejects_y_with_zero_model_tail(influence, name, y):
    # the residual at y divides by the model tail there: F(0) = 0 for the
    # exponential, and ndtr underflows to 0 past |z| = 37.7
    fam = get_family(name)
    with pytest.raises(ValueError, match="model tail"):
        influence(fam, (1.0,) if name == "exponential" else (0.0,),
                  GammaKernel(2.0), y)


def test_influence_near_the_support_edge_unchanged():
    # a y just inside the support keeps its values: the MLE influence
    # 1 - y at the model, and the second-order term as before the checks
    fam = get_family("exponential")
    t1 = influence_first_order(fam, (1.0,), GammaKernel(2.0), 1e-3)
    assert t1[0] == pytest.approx(0.999, abs=1e-5)
    t2 = influence_second_order(fam, (1.0,), GammaKernel(2.0), 1e-3)
    assert t2 == pytest.approx(-2.5299043393020075, rel=1e-12)
    # T'' diverges like log y towards the edge
    for y, ref in ((1e-6, -9.4276148914421), (1e-9, -16.335360116823875)):
        assert influence_second_order(fam, (1.0,), GammaKernel(2.0),
                                      y) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("y", [1e-12, 1e-300])
def test_second_order_raises_where_it_cannot_certify(y):
    # the quadrature error estimates are 1.3e-1 and 6.9e-1 against 1e-8
    with pytest.raises(ValueError, match=rf"y = {y} cannot be certified"):
        influence_second_order(get_family("exponential"), (1.0,),
                               GammaKernel(2.0), y)


def test_population_score_is_odd_in_symmetric_case():
    # symmetric mixture around 2.5: the weighted score at mu = 2.5 is zero
    fam = get_family("normal_location")
    cs = ContaminationSpec(base=ModelDistribution(fam, (0.0,)), eps=0.5,
                           contaminant=ModelDistribution(fam, (5.0,)))
    val = population_weighted_score(cs, GammaKernel(1.5), 2.5)
    assert abs(val) < 1e-7


def test_scan_rejects_unsorted_grid():
    fam = get_family("normal_location")
    cs = ContaminationSpec(base=ModelDistribution(fam, (0.0,)), eps=0.0,
                           contaminant=ModelDistribution(fam, (5.0,)))
    with pytest.raises(ValueError):
        mixture_root_scan(cs, GammaKernel(1.1), np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("p", [0.0, -0.1, 0.5000001, 0.9])
def test_population_score_and_scan_reject_p_outside_half(p):
    # past 1/2 the two tail branches overlap; the scan must not report
    # roots of that residual
    fam = get_family("normal_location")
    cs = ContaminationSpec(base=ModelDistribution(fam, (0.0,)), eps=0.2,
                           contaminant=ModelDistribution(fam, (5.0,)))
    with pytest.raises(ValueError, match=r"p must be in \(0, 0.5\]"):
        population_weighted_score(cs, GammaKernel(1.1), 0.0, p=p)
    with pytest.raises(ValueError, match=r"p must be in \(0, 0.5\]"):
        mixture_root_scan(cs, GammaKernel(1.1), np.linspace(-2.0, 7.0, 46),
                          p=p)


def _normal_mixture():
    norm = get_family("normal")
    return ContaminationSpec(base=ModelDistribution(norm, (0.0, 1.0)),
                             eps=0.2,
                             contaminant=ModelDistribution(norm, (5.0, 1.0)))


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
def test_population_score_rejects_non_finite_mu_by_name(mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        population_weighted_score(_normal_mixture(), GammaKernel(1.05), mu)


@pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [np.nan],
                                  [0.0, np.inf], [-np.inf, 0.0]])
def test_scan_rejects_non_finite_grid_by_name(grid):
    with pytest.raises(ValueError, match="mu grid must be finite"):
        mixture_root_scan(_normal_mixture(), GammaKernel(1.05), grid)


_MAX = np.finfo(float).max


@pytest.mark.parametrize("mu", [1e6, 1e300, -1e300, _MAX, -_MAX])
def test_population_score_far_out_is_zero_without_a_warning(mu):
    # every mixture point lies where the N(mu, 1) model tail is 0: its
    # residual is +inf and its weight 0, and the mixture density there
    # underflows to 0 without an overflow warning; at the largest float
    # the quadrature halves each panel's ends before it adds them, so no
    # midpoint or half-width overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert population_weighted_score(_normal_mixture(),
                                         GammaKernel(1.05), mu) == 0.0


def test_population_score_rejects_a_range_longer_than_any_float():
    # the contaminant's range ends near 1e308 and the model's near -1e308:
    # their span is not a float, and this is raised before any quadrature
    norm = get_family("normal")
    cs = ContaminationSpec(base=ModelDistribution(norm, (0.0, 1.0)), eps=0.2,
                           contaminant=ModelDistribution(norm, (1e308, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^mu = -1e\+308: the range"):
            population_weighted_score(cs, GammaKernel(1.05), -1e308)


def test_population_score_hands_the_families_float_arrays(monkeypatch):
    # a distribution's range comes from its checked float theta, not
    # from the tuple it stores
    norm = get_family("normal")
    seen, real = [], type(norm).integration_range

    def spy(self, theta):
        seen.append(theta)
        return real(self, theta)

    monkeypatch.setattr(type(norm), "integration_range", spy)
    population_weighted_score(_normal_mixture(), GammaKernel(1.05), 1.0)
    assert len(seen) == 2
    for theta in seen:
        assert isinstance(theta, np.ndarray) and theta.dtype == float
