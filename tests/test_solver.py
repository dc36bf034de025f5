"""Root search: convergence, determinism, equivariance, selection rule."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wle.datasets import load_dataset
from wle.families import DegenerateFitError, DomainError, get_family
from wle.residuals import ResidualConfig, tau_for_sample
from wle.solver import (Root, SCORE_RESIDUAL_TOL, SolverConfig,
                        _choose_index, _solve_batch, _subsample_starts,
                        bootstrap_root_search, build_root_set, cluster_roots,
                        solve_from)
from wle.weights import GammaKernel, ScaledFKernel


def _fake_root(weight_sum, mu=0.0):
    return Root(theta=np.array([mu]), weights=np.array([weight_sum]),
                weight_sum=weight_sum, iterations=1, converged=True,
                score_residual=0.0)


def _selected(weight_sums, cfg=SolverConfig(), n=30):
    """The root that the selection rule picks among distinct roots."""
    roots = [_fake_root(w, mu=float(i)) for i, w in enumerate(weight_sums)]
    return build_root_set(roots, n, cfg).selected


def test_selection_second_root_wins_with_enough_share():
    # 12 / (28.5 + 12) = 0.296 >= 0.25, so the smaller root is selected
    assert _selected([28.5, 12.0]).weight_sum == 12.0
    roots = [_fake_root(28.5), _fake_root(12.0, mu=1.0)]
    assert _choose_index(roots, 30, SolverConfig()) == (1, "second-highest")


def test_selection_highest_wins_when_second_too_small():
    # 5 / (29.1 + 5) = 0.147 < 0.25, so the dominant root is selected
    assert _selected([29.1, 5.0]).weight_sum == 29.1
    roots = [_fake_root(29.1), _fake_root(5.0, mu=1.0)]
    assert _choose_index(roots, 30, SolverConfig()) == (0, "highest")


def test_selection_single_root():
    assert _selected([20.0]).weight_sum == 20.0


def test_selection_eligibility_share_excludes_tiny_roots():
    # with an eligibility floor of 0.55 * 30 = 16.5 the 12-weight root can
    # no longer win, while the default configuration still selects it
    cfg = SolverConfig(eligibility_share=0.55)
    assert _selected([28.5, 12.0], cfg).weight_sum == 28.5
    assert _selected([28.5, 12.0]).weight_sum == 12.0
    # a second root above the floor competes as usual
    assert _selected([28.5, 17.0], cfg).weight_sum == 17.0


def test_selection_no_eligible_root_falls_back_to_highest():
    cfg = SolverConfig(eligibility_share=0.9)
    assert _selected([5.0, 4.0], cfg).weight_sum == 5.0


def test_cluster_roots_dedupes():
    roots = [_fake_root(10.0, mu=1.0), _fake_root(9.0, mu=1.0 + 1e-7),
             _fake_root(8.0, mu=5.0)]
    distinct = cluster_roots(roots, root_tol=1e-4)
    assert len(distinct) == 2
    # the highest-weight representative of each cluster is kept
    assert distinct[0].weight_sum == 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(bootstrap_b=0)
    with pytest.raises(ValueError):
        SolverConfig(bootstrap_m=1)
    with pytest.raises(ValueError):
        SolverConfig(min_weight_share=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eligibility_share=1.0)


def _mixture_sample(seed=42, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    x[: n // 3] = rng.normal(8.0, 1.0, n // 3)
    return x


def test_solve_from_satisfies_weighted_score():
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample()
    cfg, rc = SolverConfig(), ResidualConfig()
    spec = GammaKernel(1.1)
    root = solve_from(fam, x, rc, spec, cfg, fam.mle(x))
    assert root.converged
    # the returned theta solves sum w(theta) u_theta(x) = 0 to tolerance
    tau = tau_for_sample(rc, fam, root.theta, x)
    w = spec.weight(tau)
    score = w @ fam.score(root.theta, x)
    assert np.max(np.abs(score)) < SCORE_RESIDUAL_TOL * len(x)


def test_bootstrap_search_finds_component_roots():
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample()
    rs = bootstrap_root_search(fam, x, ResidualConfig(), GammaKernel(1.1),
                               SolverConfig(seed=0))
    assert len(rs.roots) >= 2
    # one root tracks the overall MLE, another isolates the clean bulk
    # with a drastically smaller variance
    mle = fam.mle(x)
    assert any(abs(r.theta[0] - mle[0]) < 0.5 and r.theta[1] > 5.0
               for r in rs.roots)
    assert any(abs(r.theta[0]) < 0.5 and r.theta[1] < 1.0
               for r in rs.roots)
    # roots are reported in decreasing weight order
    sums = [r.weight_sum for r in rs.roots]
    assert sums == sorted(sums, reverse=True)


def test_determinism_bit_identical():
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample()
    kwargs = (fam, x, ResidualConfig(), GammaKernel(1.1), SolverConfig(seed=7))
    r1 = bootstrap_root_search(*kwargs)
    r2 = bootstrap_root_search(*kwargs)
    assert len(r1.roots) == len(r2.roots)
    for a, b in zip(r1.roots, r2.roots):
        assert np.array_equal(a.theta, b.theta)
        assert a.weight_sum == b.weight_sum
    assert r1.selected_index == r2.selected_index


def test_seed_changes_restarts_not_roots():
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample()
    sel = []
    for seed in (0, 1):
        rs = bootstrap_root_search(fam, x, ResidualConfig(),
                                   GammaKernel(1.1), SolverConfig(seed=seed))
        sel.append(rs.selected.theta)
    np.testing.assert_allclose(sel[0], sel[1], rtol=1e-5)


def test_location_scale_equivariance():
    # transforming the data x -> a + b x maps the normal roots exactly
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample(seed=3)
    a, b = 3.0, 2.0
    cfg = SolverConfig(seed=0, tol=1e-12)
    rc, spec = ResidualConfig(), GammaKernel(1.1)
    r1 = bootstrap_root_search(fam, x, rc, spec, cfg)
    r2 = bootstrap_root_search(fam, a + b * x, rc, spec, cfg)
    t1 = sorted((r.theta for r in r1.roots), key=lambda t: t[0])
    t2 = sorted((r.theta for r in r2.roots), key=lambda t: t[0])
    assert len(t1) == len(t2)
    for u, v in zip(t1, t2):
        assert v[0] == pytest.approx(a + b * u[0], abs=1e-8)
        assert v[1] == pytest.approx(b * b * u[1], rel=1e-8)


def test_unit_weights_reproduce_mle():
    # a kernel at its likelihood limit keeps every weight at 1, so the
    # fixed point is the plain maximum-likelihood estimate
    from wle.weights import GammaKernel
    fam = get_family("normal")
    x = _mixture_sample(seed=5)
    root = solve_from(fam, x, ResidualConfig(), GammaKernel(1.0 + 1e-12),
                      SolverConfig(), fam.mle(x))
    np.testing.assert_allclose(root.theta, fam.mle(x), rtol=1e-9)


def test_sample_smaller_than_subsample_rejected():
    from wle.weights import GammaKernel
    fam = get_family("normal")
    with pytest.raises(ValueError):
        bootstrap_root_search(fam, np.array([1.0, 2.0]), ResidualConfig(),
                              GammaKernel(1.1), SolverConfig(bootstrap_m=5))


def _exponential_sample():
    rng = np.random.default_rng(12)
    x = rng.exponential(1.0, 40)
    x[:8] = rng.exponential(10.0, 8)
    return x


def _pairs(name, a, b, transform=None):
    ds = load_dataset(name)
    x, y = ds.column(a), ds.column(b)
    if transform is not None:
        x, y = transform(x), transform(y)
    return np.column_stack([x, y])


# one search per family kind: (family, data, residual kind, weight kernel)
_SEARCHES = {
    "exponential": lambda: ("exponential", _exponential_sample(),
                            "univariate", GammaKernel(1.05)),
    "drosophila": lambda: ("poisson",
                           load_dataset("drosophila").column("daughters"),
                           "univariate", GammaKernel(1.01)),
    "width_angle": lambda: ("bivariate_normal",
                            _pairs("lubischew", "width", "angle"),
                            "bivariate", GammaKernel(1.01)),
    "hertzsprung_russell": lambda: (
        "bivariate_normal",
        _pairs("hertzsprung_russell", "log_temperature", "log_light"),
        "bivariate", GammaKernel(1.01)),
    "animals": lambda: ("normal_regression",
                        _pairs("animals", "body_kg", "brain_g", np.log),
                        "regression", ScaledFKernel(2.5, 1.0)),
    "voltage_drop": lambda: ("normal_regression",
                             _pairs("voltage_drop", "time", "voltage"),
                             "regression", ScaledFKernel(2.5, 1.0)),
}


def _single_start(*args):
    try:
        return solve_from(*args)
    except DegenerateFitError:
        return None


@pytest.mark.parametrize("case", sorted(_SEARCHES))
def test_search_matches_single_start_path(case):
    # every start that converges in the batch iterates exactly as
    # solve_from from that start (the batch of one), and every root is a
    # fixed point of it. Starts drawn into a degenerate sigma -> 0
    # attractor amplify rounding noise; they only have to fail both ways.
    name, data, kind, spec = _SEARCHES[case]()
    fam, rc, cfg = get_family(name), ResidualConfig(kind=kind), \
        SolverConfig(seed=0)
    starts, _ = _subsample_starts(fam, data, cfg)
    starts.insert(0, fam.mle(data))
    batch = _solve_batch(fam, data, rc, spec, cfg, np.asarray(starts))
    for th0, row in zip(starts, batch):
        one = _single_start(fam, data, rc, spec, cfg, th0)
        if row is None or not row.converged:
            assert one is None or not one.converged
            continue
        assert one.converged and one.iterations == row.iterations
        np.testing.assert_allclose(one.theta, row.theta, rtol=1e-10)
        np.testing.assert_allclose(one.weights, row.weights, rtol=1e-10,
                                   atol=1e-13)
    rs = bootstrap_root_search(fam, data, rc, spec, cfg)
    assert rs.roots
    for r in rs.roots:
        again = solve_from(fam, data, rc, spec, cfg, r.theta)
        assert again.converged and again.iterations == 1
        assert (np.max(np.abs(again.theta - r.theta))
                / (1.0 + np.max(np.abs(r.theta)))) < cfg.tol


def test_hertzsprung_russell_search_emits_no_warning():
    # the starts whose weights collapse onto about one star used to leave
    # a divide-by-zero warning behind (rho = c / sqrt(s1 * s2 = 0))
    name, data, kind, spec = _SEARCHES["hertzsprung_russell"]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = bootstrap_root_search(get_family(name), data,
                                   ResidualConfig(kind=kind), spec,
                                   SolverConfig(seed=0))
    assert rs.selected.converged


def _search_and_start(name, data, kind="univariate", theta0=None):
    fam, rc = get_family(name), ResidualConfig(kind=kind)
    with pytest.raises(DomainError):
        bootstrap_root_search(fam, data, rc, GammaKernel(1.1),
                              SolverConfig(seed=0))
    if theta0 is not None:
        with pytest.raises(DomainError):
            solve_from(fam, data, rc, GammaKernel(1.1), SolverConfig(),
                       theta0)


_finite = hst.floats(min_value=-1e3, max_value=1e3)


@settings(max_examples=40, deadline=None)
@given(hst.lists(_finite, min_size=6, max_size=30),
       hst.sampled_from([np.nan, np.inf, -np.inf]), hst.integers(0, 10**6),
       hst.booleans())
def test_non_finite_data_rejected_without_warnings(values, bad, where, pairs):
    x = np.array(values)
    x[where % x.size] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _search_and_start("normal", x, theta0=[0.0, 1.0])
        xy = np.column_stack([x, x[::-1]])
        if pairs:
            _search_and_start("bivariate_normal", xy, "bivariate",
                              [0.0, 0.0, 1.0, 1.0, 0.0])
        else:
            _search_and_start("normal_regression", xy, "regression",
                              [0.0, 1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.integers(0, 20), min_size=6, max_size=30),
       hst.one_of(hst.integers(-50, -1).map(float),
                  hst.floats(min_value=0.01, max_value=0.99)),
       hst.integers(0, 10**6))
def test_poisson_rejects_out_of_support_data(counts, bad, where):
    # negative counts, or non-integer ones, are not Poisson observations
    x = np.array(counts, dtype=float)
    x[where % x.size] = bad if bad < 0 else x[where % x.size] + bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _search_and_start("poisson", x, theta0=[1.0])
