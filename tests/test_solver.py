"""Root search: convergence, determinism, equivariance, selection rule."""

import copy
import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wle import solver
from wle.datasets import load_dataset
from wle.families import DegenerateFitError, DomainError, get_family
from wle.residuals import ResidualConfig, tau_for_sample
from wle.simulate import SCHEMES, SimulationPlan, _draw_sample, run_simulation
from wle.solver import (ROOT_TOL, Root, SCORE_RESIDUAL_TOL, SolverConfig,
                        _choose_index, _solve_batch, _subsample_indices,
                        _subsample_starts, bootstrap_root_search,
                        build_root_set, cluster_roots, solve_from)
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


def test_root_set_counts_are_read_off_the_roots():
    # one Root-or-None per start: None is a failed start
    stuck = Root(theta=np.array([5.0]), weights=np.array([1.0]),
                 weight_sum=1.0, iterations=500, converged=False,
                 score_residual=1.0)
    rs = build_root_set([_fake_root(20.0), None, stuck], 30, SolverConfig(),
                        n_skipped_subsamples=2)
    assert (rs.n_restarts, rs.n_failed, rs.n_skipped_subsamples) == (3, 1, 2)
    assert rs.roots[0].weight_sum == 20.0 and rs.non_converged == [stuck]
    with pytest.raises(DegenerateFitError, match="of 3 starts, 2 degenerated "
                       "and 1 did not certify; 2 subsamples skipped"):
        build_root_set([None, stuck, None], 30, SolverConfig(),
                       n_skipped_subsamples=2)


def test_cluster_roots_dedupes():
    roots = [_fake_root(10.0, mu=1.0), _fake_root(9.0, mu=1.0 + 1e-7),
             _fake_root(8.0, mu=5.0)]
    distinct = cluster_roots(roots)
    assert len(distinct) == 2
    # the highest-weight representative of each cluster is kept
    assert distinct[0].weight_sum == 10.0


def _cluster_reference(roots):
    """The pairwise loop that cluster_roots replaced: a root joins an
    earlier kept root within ROOT_TOL, relative to its own norm."""
    def same(t1, t2):
        return (np.max(np.abs(t1 - t2))
                / (1.0 + np.max(np.abs(t1)))) < ROOT_TOL

    distinct = []
    for r in sorted(roots, key=lambda r: -r.weight_sum):
        if not any(same(r.theta, d.theta) for d in distinct):
            distinct.append(r)
    return distinct


def _root_at(theta, weight_sum):
    theta = np.asarray(theta, dtype=float)
    return Root(theta=theta, weights=np.ones(1), weight_sum=weight_sum,
                iterations=1, converged=True, score_residual=0.0)


def test_cluster_roots_norm_is_the_candidates():
    # 0.100105 / 1001 >= ROOT_TOL > 0.100105 / 1001.100105: the far root is
    # near the other in its own norm only, so the order of weight decides
    a, b = [1000.0], [1000.100105]
    for wa, wb, kept in ((2.0, 1.0, 1), (1.0, 2.0, 2)):
        roots = [_root_at(a, wa), _root_at(b, wb)]
        assert len(cluster_roots(roots)) == kept
        assert cluster_roots(roots) == _cluster_reference(roots)


# a case: a dimension, and roots given by a weight, a center, a share of
# ROOT_TOL * (1 + |center|) to step off it, and twins. A twin steps away
# from zero in the first coordinate, just past ROOT_TOL in its root's
# norm, so it falls within ROOT_TOL in its own norm when the step raises it
_centers = hst.sampled_from([0.0, 1.0, -3.5, 1000.0, 1e6])
_cluster_cases = hst.tuples(
    hst.integers(1, 3),
    hst.lists(hst.tuples(hst.sampled_from([1.0, 2.0, 2.0, 3.5]),
                         _centers, hst.floats(0.0, 2.5),
                         hst.lists(hst.floats(0.01, 0.99), max_size=2)),
              max_size=10))


@settings(max_examples=200, deadline=None)
@given(_cluster_cases, hst.randoms(use_true_random=False))
def test_cluster_roots_matches_pairwise_loop(case, rnd):
    dim, specs = case
    roots = []
    for weight, center, share, twins in specs:
        theta = np.full(dim, center)
        theta[-1] += share * ROOT_TOL * (1.0 + abs(center))
        roots.append(_root_at(theta, weight))
        for u in twins:
            step = (ROOT_TOL * (1.0 + np.max(np.abs(theta)))
                    * (1.0 + u * ROOT_TOL))
            twin = theta.copy()
            twin[0] += step if twin[0] >= 0 else -step
            roots.append(_root_at(twin, rnd.choice([weight, 1.0, 3.5])))
    rnd.shuffle(roots)
    got, ref = cluster_roots(roots), _cluster_reference(roots)
    assert len(got) == len(ref) and all(g is r for g, r in zip(got, ref))


def test_config_validation():
    for bad in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(tol=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(bootstrap_b=0)
    with pytest.raises(ValueError):
        SolverConfig(bootstrap_m=1)
    with pytest.raises(ValueError):
        SolverConfig(eligibility_share=1.0)
    # numpy's SeedSequence would reject it only inside the search
    with pytest.raises(ValueError, match=r"^seed = -1: "):
        SolverConfig(seed=-1)
    # a count that is not an integer fails by its field's name, not inside
    # the search
    for name, value in (("seed", 1.5), ("bootstrap_b", 2.5),
                        ("max_iter", 2.5), ("bootstrap_m", 3.5)):
        with pytest.raises(ValueError, match=rf"^{name} = {value}: {name} "
                                             "must be an integer$"):
            SolverConfig(**{name: value})


@pytest.mark.parametrize("name, theta0", [
    ("normal", [1.0]), ("normal", [0.0, 1.0, 2.0]),
    ("exponential", [1.0, 2.0])],
    ids=["normal-short", "normal-long", "exponential-long"])
def test_solve_from_rejects_a_start_of_the_wrong_length(name, theta0):
    fam = get_family(name)
    x = np.abs(np.random.default_rng(3).normal(size=20))
    with pytest.raises(DomainError, match=f"must be a vector of length "
                                          f"{fam.n_params}$"):
        solve_from(fam, x, ResidualConfig(), GammaKernel(1.01),
                   SolverConfig(), theta0)


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


@pytest.mark.parametrize("name, c", [("exponential", 1e-300),
                                     ("normal", 1e150)])
def test_huge_parameters_extrapolate_without_warnings(name, c):
    # rates near 1e300 and variances near 1e301: the extrapolation's dot
    # products of such steps would overflow unscaled; the roots scale with
    # the data
    fam = get_family(name)
    x = _exponential_sample() if name == "exponential" else _mixture_sample()
    rc, spec, cfg = ResidualConfig(), GammaKernel(1.1), SolverConfig(seed=0)
    r1 = bootstrap_root_search(fam, x, rc, spec, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r2 = bootstrap_root_search(fam, c * x, rc, spec, cfg)
    power = np.array([-1.0] if name == "exponential" else [1.0, 2.0])
    t1 = sorted(r.theta[0] * c ** power[0] for r in r1.roots)
    t2 = sorted(r.theta[0] for r in r2.roots)
    np.testing.assert_allclose(t2, t1, rtol=1e-6)
    np.testing.assert_allclose(r2.selected.theta,
                               r1.selected.theta * c ** power, rtol=1e-6)


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


def _same_path(one, row):
    """`one` iterated as `row`: the same iterations, theta and weights."""
    return (one is not None and one.converged
            and one.iterations == row.iterations
            and np.allclose(one.theta, row.theta, rtol=1e-10, atol=0.0)
            and np.allclose(one.weights, row.weights, rtol=1e-10, atol=1e-13))


def _by_root(batch, other):
    """Each converged Root object of `batch`, with the `other` entries of
    the starts that returned it."""
    groups = {}
    for row, o in zip(batch, other):
        if row is not None and row.converged:
            groups.setdefault(id(row), (row, []))[1].append(o)
    return list(groups.values())


def _is_fixed(fam, data, rc, spec, cfg, root):
    """solve_from from `root` certifies it again in one plain step below
    `tol`."""
    again = solve_from(fam, data, rc, spec, cfg, root.theta)
    return (again.converged and again.iterations == 1
            and (np.max(np.abs(again.theta - root.theta))
                 / (1.0 + np.max(np.abs(root.theta)))) < cfg.tol)


@pytest.mark.parametrize("case", sorted(_SEARCHES))
def test_search_matches_single_start_path(case):
    # the start that certifies a root iterates exactly as solve_from from
    # that start (the batch of one), and solve_from from every root
    # certifies it again. A start that stopped on coming near a root
    # shares that Root, which is a fixed point to tol; from its own start,
    # solve_from converges to a root that clusters with it. Starts drawn
    # into a degenerate sigma -> 0 attractor amplify rounding noise; they
    # only have to fail both ways.
    name, data, kind, spec = _SEARCHES[case]()
    fam, rc, cfg = get_family(name), ResidualConfig(kind=kind), \
        SolverConfig(seed=0)
    starts, _ = _subsample_starts(fam, data, cfg)
    starts.insert(0, fam.mle(data))
    batch = _solve_batch(fam, data, rc, spec, cfg, np.asarray(starts))
    ones = [_single_start(fam, data, rc, spec, cfg, th0) for th0 in starts]
    for one, row in zip(ones, batch):
        if row is None or not row.converged:
            assert one is None or not one.converged
    for row, group in _by_root(batch, ones):
        assert any(_same_path(one, row) for one in group)
        for one in group:
            assert one is not None and one.converged
            assert len(cluster_roots([row, one])) == 1
        assert len(group) == 1 or _is_fixed(fam, data, rc, spec, cfg, row)
    rs = bootstrap_root_search(fam, data, rc, spec, cfg)
    assert rs.roots
    for r in rs.roots:
        assert _is_fixed(fam, data, rc, spec, cfg, r)


def _row_bits(roots):
    return [None if r is None else
            (r.theta.tobytes(), r.weights.tobytes(), r.iterations,
             r.converged, np.float64(r.score_residual).tobytes())
            for r in roots]


_BLOCK_CASES = {
    "normal": lambda: ("normal", _mixture_sample(), "univariate",
                       GammaKernel(1.01)),
    **{case: _SEARCHES[case] for case in
       ("exponential", "drosophila", "width_angle", "animals")},
}


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_row_blocks_give_the_whole_batch_bit_for_bit(case, rows,
                                                     monkeypatch):
    # the residual, the kernel and the score act row by row, so evaluating
    # the weights and the certificates in blocks of rows (one row, or 4
    # rows, which leaves uneven last blocks as rows stop) changes no bit of
    # any start's iteration
    name, data, kind, spec = _BLOCK_CASES[case]()
    fam, rc, cfg = get_family(name), ResidualConfig(kind=kind), \
        SolverConfig(seed=0)
    starts, _ = _subsample_starts(fam, data, cfg)
    starts = np.asarray([fam.mle(data)] + starts)

    def run():
        return (_row_bits(_solve_batch(fam, data, rc, spec, cfg, starts)),
                _row_bits([solve_from(fam, data, rc, spec, cfg, starts[0])]))

    default = run()
    sizes = []

    def recording_tau(config, family, theta, *args):
        sizes.append(len(theta))
        return tau_for_sample(config, family, theta, *args)

    monkeypatch.setattr(solver, "tau_for_sample", recording_tau)
    monkeypatch.setattr(solver, "BLOCK_ELEMENTS", rows * len(data) + 3)
    assert run() == default
    assert max(sizes) == rows


def test_large_sample_search_memory():
    # traced allocations of one n = 10 000 normal search: 21.9 MB at the
    # peak when every residual and weight temporary spans all 51 starts,
    # 12.8 MB in row blocks, where the (50, n) subsample counts of the
    # starts remain the largest arrays. With the cycle collector off,
    # nothing outlives the search: a reference cycle through the solver's
    # closures would keep the sample's empirical functions, 0.5 MB here
    x = np.random.default_rng(0).normal(size=10_000)
    gc.disable()
    tracemalloc.start()
    try:
        rs = bootstrap_root_search(get_family("normal"), x, ResidualConfig(),
                                   GammaKernel(1.01), SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
        assert rs.roots
        del rs
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 17e6
    assert left < 1e5


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


def test_bivariate_search_rejects_a_tail_fraction():
    # the quadrant residual reads no tail fraction, so p = 0.1 used to give
    # the roots of p = 1/2
    name, data, kind, spec = _SEARCHES["hertzsprung_russell"]()
    with pytest.raises(ValueError, match="p must be 0.5"):
        bootstrap_root_search(get_family(name), data,
                              ResidualConfig(p=0.1, kind=kind), spec,
                              SolverConfig(seed=0))


def _newcomb_batch():
    x = load_dataset("newcomb").column("deviation")
    fam, rc, spec, cfg = (get_family("normal"), ResidualConfig(),
                          GammaKernel(1.01), SolverConfig(seed=0))
    starts, _ = _subsample_starts(fam, x, cfg)
    starts.insert(0, fam.mle(x))
    return fam, x, rc, spec, cfg, _solve_batch(fam, x, rc, spec, cfg,
                                               np.asarray(starts))


def test_starts_that_reach_a_fixed_root_share_it():
    # on newcomb every start reaches one root; the starts that come within
    # ROOT_TOL of it once it is certified, and its next point passes too,
    # stop there and return that Root, which passes the certificate at its
    # own theta and weights
    fam, x, rc, spec, cfg, batch = _newcomb_batch()
    n, groups = len(x), _by_root(batch, range(len(batch)))
    assert all(r is not None and r.converged for r in batch)
    assert any(len(starts) > 1 for _, starts in groups)
    for root, _ in groups:
        assert root.score_residual < SCORE_RESIDUAL_TOL * n
        w = spec.weight(tau_for_sample(rc, fam, root.theta, x))
        np.testing.assert_array_equal(w, root.weights)
        u = fam.weighted_score_batch(root.theta[None], x, w[None])
        assert np.max(np.abs(u)) < SCORE_RESIDUAL_TOL * n
    rs = build_root_set(batch, n, cfg)
    assert len(rs.roots) == 1 and rs.n_restarts == len(batch) == 51


def test_root_set_of_shared_roots_equals_that_of_copies():
    # clustering reads each Root object once; a list that repeats Root
    # objects gives the root set of the same list with distinct copies
    _, x, _, _, cfg, batch = _newcomb_batch()
    assert len({id(r) for r in batch}) < len(batch)
    copies = [copy.copy(r) for r in batch]
    assert build_root_set(batch, len(x), cfg).summary() == \
        build_root_set(copies, len(x), cfg).summary()
    three = [_fake_root(9.0, mu=0.0), _fake_root(5.0, mu=1.0),
             _fake_root(3.0, mu=2.0)]
    shared = [three[i % 3] for i in range(51)] + [None]
    rs = build_root_set(shared, 30, SolverConfig())
    assert len(cluster_roots(shared[:51])) == 3
    assert [r.weight_sum for r in rs.roots] == [9.0, 5.0, 3.0]
    assert (rs.n_restarts, rs.n_failed) == (52, 1)


@pytest.mark.parametrize("case", ["animals", "voltage_drop"])
def test_a_start_that_stalls_is_never_coalesced(case):
    # only converged roots take in other starts: each row that stopped
    # uncertified holds a Root of its own (that a start which does not
    # certify alone does not certify in the batch is checked above)
    name, data, kind, spec = _SEARCHES[case]()
    fam, rc, cfg = get_family(name), ResidualConfig(kind=kind), \
        SolverConfig(seed=0)
    starts, _ = _subsample_starts(fam, data, cfg)
    batch = _solve_batch(fam, data, rc, spec, cfg, np.asarray(starts))
    stuck = [r for r in batch if r is not None and not r.converged]
    assert stuck and len({id(r) for r in stuck}) == len(stuck)


@pytest.mark.parametrize("case", ["animals", "voltage_drop"])
def test_stuck_rows_stall_before_the_budget(case):
    # starts drawn into a sigma -> 0 exact fit reach a numerical fixed point
    # whose relative step jitters at rounding size instead of being exactly
    # zero; they stall there rather than run out of iterations
    name, data, kind, spec = _SEARCHES[case]()
    fam, rc, cfg = get_family(name), ResidualConfig(kind=kind), \
        SolverConfig(seed=0)
    starts, _ = _subsample_starts(fam, data, cfg)
    rows = [r for r in _solve_batch(fam, data, rc, spec, cfg,
                                    np.asarray(starts)) if r is not None]
    stuck = [r for r in rows if not r.converged]
    assert stuck and any(r.converged for r in rows)
    assert all(r.iterations < cfg.max_iter for r in stuck)


def _seed312_sample():
    """perfbench mc_grid seed 312, pass 93: scale scheme, eps 0, replication
    0, with its search's solver config."""
    plan_seed = int(np.random.SeedSequence((312, 93, 0)).generate_state(1)[0])
    ss = np.random.SeedSequence(plan_seed, spawn_key=(0, 0))
    x = _draw_sample(np.random.Generator(np.random.Philox(ss)), "scale", 0.0,
                     30)
    return x, SolverConfig(seed=int(ss.generate_state(1, dtype=np.uint32)[0]))


def _seed19_sample():
    """perfbench mc_grid seed 19, pass 112: exponential scheme, eps 0.2,
    replication 1, with its search's solver config (solver seed
    4067629157)."""
    plan = SimulationPlan(scheme="exponential", seed=int(
        np.random.SeedSequence((19, 112, 2)).generate_state(1)[0]))
    ss = np.random.SeedSequence(plan.seed, spawn_key=(2, 1))
    x = _draw_sample(np.random.Generator(np.random.Philox(ss)),
                     "exponential", plan.eps_grid[2], plan.n)
    seed = int(ss.generate_state(1, dtype=np.uint32)[0])
    return x, dataclasses.replace(plan.solver_config, seed=seed)


def test_no_fixed_point_sample_certifies_no_root():
    # at gamma 1.02 the reweighting map has no fixed point that certifies,
    # and every start leaves at the last iteration, uncertified. Seed 312:
    # the root would sit where a sample point crosses the model median and
    # its residual jumps; every start hovers until the budget, and the
    # extrapolated steps certify no false root at the jump. Seed 19: the
    # map cycles near theta = 1.3049 with its score solved, its relative
    # step shrinking to ~1e-7 and jumping back, never below tol; it
    # cycles, so it does not stall
    for name, (x, cfg), theta, solved in (
            ("normal", _seed312_sample(), [0.119124, 0.694501], False),
            ("exponential", _seed19_sample(), [0.665029], True)):
        fam, rc = get_family(name), ResidualConfig()
        with pytest.raises(DegenerateFitError, match="no converged roots"):
            bootstrap_root_search(fam, x, rc, GammaKernel(1.02), cfg)
        starts, _ = _subsample_starts(fam, x, cfg)
        rows = _solve_batch(fam, x, rc, GammaKernel(1.02), cfg,
                            np.asarray([fam.mle(x)] + starts))
        assert len(rows) == 51 and all(
            r is not None and not r.converged
            and r.iterations == cfg.max_iter for r in rows)
        assert all((r.score_residual < SCORE_RESIDUAL_TOL * len(x)) == solved
                   for r in rows)
        rs = bootstrap_root_search(fam, x, rc, GammaKernel(1.01), cfg)
        np.testing.assert_allclose(rs.selected.theta, theta, atol=1e-6)


def test_a_batch_with_no_finite_start_fits_at_most_once():
    # no row ever iterates, so the loop must not run its budget of empty
    # iterations
    fam = get_family("normal")
    data = fam.check_data(load_dataset("newcomb").column("deviation"))
    fit, calls = fam.fit_rows, []
    fam.fit_rows = lambda x, w: calls.append(1) or fit(x, w)
    try:
        rows = _solve_batch(fam, data, ResidualConfig(), GammaKernel(1.01),
                            SolverConfig(), [[np.nan, 1.0], [np.inf, 1.0]])
    finally:
        del fam.fit_rows
    assert rows == [None, None] and len(calls) <= 1


def _no_root_samples():
    """Normal samples whose search finds no root, with the counts its error
    reports."""
    return {
        # zero variance: the full-sample MLE and every subsample fit
        # degenerate
        "constant": (np.full(30, 2.0), SolverConfig(), "of 1 starts, 1 "
                     "degenerated and 0 did not certify; 50 subsamples "
                     "skipped"),
        # the variance overflows: the same, on valid finite data
        "1e200-scale": (1e200 * np.random.default_rng(0).normal(size=30),
                        SolverConfig(), "of 1 starts, 1 degenerated and 0 "
                        "did not certify; 50 subsamples skipped"),
        # no fixed point: every start runs its budget without certifying
        "seed-312": (*_seed312_sample(), "of 51 starts, 0 degenerated and "
                     "51 did not certify; 0 subsamples skipped"),
    }


@pytest.mark.parametrize("sample", ["constant", "1e200-scale", "seed-312"])
def test_no_root_error_says_why(sample):
    x, cfg, counts = _no_root_samples()[sample]
    with pytest.raises(DegenerateFitError) as err:
        bootstrap_root_search(get_family("normal"), x, ResidualConfig(),
                              GammaKernel(1.02), cfg)
    assert str(err.value) == f"no converged roots found: {counts}"


def test_simulation_iteration_budget(monkeypatch):
    # the batch iterations of each search of a small fixed grid, one fit
    # per iteration: their p90 is 40 with the plain reweighting step and
    # 22 with the Anderson(1) extrapolation (19 once a start stops at a
    # root another start has fixed); the bound sits halfway
    counts = []

    def counting(family, *args):
        fit, calls = family.fit_rows, []
        family.fit_rows = lambda x, w: calls.append(1) or fit(x, w)
        try:
            rows = _solve_batch(family, *args)
        finally:
            del family.fit_rows
        counts.append(len(calls))
        return rows

    monkeypatch.setattr(solver, "_solve_batch", counting)
    for scheme in SCHEMES:
        run_simulation(SimulationPlan(scheme=scheme, reps=5, seed=11))
    assert len(counts) == 3 * 6 * 5 * 2
    assert np.percentile(counts, 90) < 31


@pytest.mark.parametrize("name, data, theta0, outside", [
    ("normal", lambda: load_dataset("newcomb").column("deviation"),
     [26.333333333333332, 2.8888888888888893], lambda t: t[1] <= 0),
    ("bivariate_normal",
     lambda: _pairs("hertzsprung_russell", "log_temperature", "log_light"),
     [4.456666666666667, 5.213333333333334, 0.005422222222222204,
      0.05662222222222216, 0.7634873860455671],
     lambda t: abs(t[4]) >= 1)], ids=["sigma2", "rho"])
def test_extrapolation_outside_the_space_takes_the_plain_step(
        name, data, theta0, outside, monkeypatch):
    # from these starts an extrapolated point has sigma^2 <= 0 or
    # |rho| >= 1; the row steps to its fit instead, its weights are never
    # taken outside the space, and it goes on to certify a root
    fam, data = get_family(name), data()
    in_space = type(fam).in_space
    rejected, evaluated = [], []

    def spy_space(self, thetas):
        ok = in_space(self, thetas)
        rejected.extend(t for t in thetas[~ok] if outside(t))
        return ok

    def spy_tau(config, family, theta, *args):
        evaluated.append(np.array(theta))
        return tau_for_sample(config, family, theta, *args)

    monkeypatch.setattr(type(fam), "in_space", spy_space)
    monkeypatch.setattr(solver, "tau_for_sample", spy_tau)
    root = solve_from(fam, data, ResidualConfig(kind=fam.kind),
                      GammaKernel(1.01), SolverConfig(), theta0)
    assert rejected and np.all(np.isfinite(rejected))
    assert all(in_space(fam, t).all() for t in evaluated)
    assert root.converged


# one sample per family for the comparison of the batched starts
_START_SAMPLES = {
    "poisson": lambda: load_dataset("drosophila").column("daughters"),
    "normal": lambda: load_dataset("newcomb").column("deviation"),
    "normal_location": lambda: load_dataset("newcomb").column("deviation"),
    "exponential": _exponential_sample,
    "bivariate_normal": lambda: _pairs("lubischew", "width", "angle"),
    "normal_regression": lambda: _pairs("animals", "body_kg", "brain_g",
                                        np.log),
}


def _one_at_a_time(fam, data, cfg):
    """Each restart's subsample MLE, fitted alone; None when degenerate."""
    n, m = len(data), max(cfg.bootstrap_m, fam.min_subsample)
    fits = []
    for i in range(cfg.bootstrap_b):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(cfg.seed, spawn_key=(i,))))
        try:
            fits.append(fam.mle(data[rng.integers(0, n, size=m)]))
        except DegenerateFitError:
            fits.append(None)
    return fits


@pytest.mark.parametrize("name", sorted(_START_SAMPLES))
def test_batched_starts_match_subsample_mles(name):
    # the one batched fit gives every subsample's MLE. A regression
    # subsample of two distinct points is an exact fit, sigma = 0 up to
    # rounding: one path can skip it while the other keeps a sigma of
    # rounding size, so such fits are set aside on both sides
    fam, data = get_family(name), _START_SAMPLES[name]()
    for seed in range(4):
        cfg = SolverConfig(seed=seed)
        starts, skipped = _subsample_starts(fam, data, cfg)
        ref = _one_at_a_time(fam, data, cfg)
        kept = [r for r in ref if r is not None]
        scale = np.max(np.abs(kept), axis=0)

        def fitted(fits):
            return [f for f in fits if fam.kind != "regression"
                    or f[-1] > 1e-12 * scale[-1]]

        ours, theirs = np.array(fitted(starts)), np.array(fitted(kept))
        assert skipped + len(starts) - len(ours) == len(ref) - len(theirs)
        # rtol 1e-12, with each parameter's scale as the floor
        assert np.all(np.abs(ours - theirs)
                      <= 1e-12 * (np.abs(theirs) + scale))


def test_start_indices_memo_serves_each_sample_its_own_fits():
    # two samples of one size under one config share the drawn indices,
    # and the second search reads them from the memo; each sample still
    # gets its own subsample MLEs
    fam, cfg = get_family("normal"), SolverConfig(seed=3)
    rng = np.random.default_rng(4)
    samples = [rng.normal(size=30), rng.exponential(size=30)]
    _subsample_indices.cache_clear()
    for x in samples:
        starts, skipped = _subsample_starts(fam, x, cfg)
        ref = np.array(_one_at_a_time(fam, x, cfg))
        assert skipped == 0 and ref.shape == (cfg.bootstrap_b, 2)
        # rtol 1e-12, with each parameter's scale as the floor
        assert np.all(np.abs(np.array(starts) - ref)
                      <= 1e-12 * (np.abs(ref) + np.max(np.abs(ref), axis=0)))
    info = _subsample_indices.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    idx = _subsample_indices(cfg.seed, cfg.bootstrap_b, 30, cfg.bootstrap_m)
    assert idx.shape == (cfg.bootstrap_b, cfg.bootstrap_m)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 0


def _stream_cases():
    """(seed, b, n, m) over seeds 0-199, 200 random 32-bit seeds and two
    seeds of more than four 32-bit words; each seed runs every m, with n
    and b cycling, so every (n, m) pair and b = 1 occur."""
    rng = np.random.default_rng(11)
    seeds = [*range(200), *map(int, rng.integers(0, 2**32, size=200)),
             2**64 + 12345, 2**160 + 7]
    ns = (2, 17, 30, 10_000, 2**31 + 1, 2**32)
    return [(seed, 1 + (k + j) % 4, ns[(k + j) % len(ns)], m)
            for k, seed in enumerate(seeds)
            for j, m in enumerate((2, 3, 5, 9, 20))]


def test_subsample_indices_are_numpy_philox_streams_bit_for_bit():
    # every row equals numpy's own per-restart construction, as in
    # `_one_at_a_time`; n = 2**31 + 1 rejects about half of all words, and
    # m = 20 spans several Philox blocks
    for seed, b, n, m in _stream_cases():
        ref = np.array([np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(i,)))).integers(
                0, n, size=m) for i in range(b)])
        idx = _subsample_indices(seed, b, n, m)
        assert idx.dtype == ref.dtype and idx.shape == (b, m)
        assert np.array_equal(idx, ref), (seed, b, n, m)
    with pytest.raises(ValueError, match=r"n = 4294967297"):
        _subsample_indices(0, 3, 2**32 + 1, 5)


def test_a_search_on_a_new_seed_builds_no_numpy_generator(monkeypatch):
    # the restart streams are computed, not constructed: a search builds
    # no Generator, Philox or SeedSequence
    x = load_dataset("newcomb").column("deviation")
    built = []
    for name in ("Generator", "Philox", "SeedSequence"):
        def spy(*args, _cls=getattr(np.random, name), _name=name, **kw):
            built.append(_name)
            return _cls(*args, **kw)
        monkeypatch.setattr(np.random, name, spy)
    _subsample_indices.cache_clear()
    rs = bootstrap_root_search(get_family("normal"), x, ResidualConfig(),
                               GammaKernel(1.01), SolverConfig(seed=987))
    assert rs.n_restarts == 51 and _subsample_indices.cache_info().misses == 1
    assert built == []
    np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    assert built == ["SeedSequence", "Philox", "Generator"]  # the spy is live


_THETA0 = {"poisson": [1.0], "normal": [0.0, 1.0], "normal_location": [0.0],
           "exponential": [1.0], "bivariate_normal": [0.0, 0.0, 1.0, 1.0, 0.0],
           "normal_regression": [0.0, 1.0, 1.0]}

_EMPTY_ENTRIES = {
    "check_data": lambda fam, x, theta0: fam.check_data(x),
    "mle": lambda fam, x, theta0: fam.mle(x),
    "solve_from": lambda fam, x, theta0: solve_from(
        fam, x, ResidualConfig(kind=fam.kind), GammaKernel(1.1),
        SolverConfig(), theta0),
    "bootstrap_root_search": lambda fam, x, theta0: bootstrap_root_search(
        fam, x, ResidualConfig(kind=fam.kind), GammaKernel(1.1),
        SolverConfig(seed=0)),
    "tau_for_sample": lambda fam, x, theta0: tau_for_sample(
        ResidualConfig(kind=fam.kind), fam, theta0, x),
}


@pytest.mark.parametrize("entry", list(_EMPTY_ENTRIES))
@pytest.mark.parametrize("name", sorted(_THETA0))
def test_an_empty_sample_is_a_domain_error(entry, name):
    # an empty sample fails at the gate, naming its shape, for every family
    fam = get_family(name)
    x = np.empty((0, *fam.obs_shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            _EMPTY_ENTRIES[entry](fam, x, np.array(_THETA0[name]))
    assert str(exc.value) == f"{name} data are empty: shape {x.shape}"


def test_huge_finite_outlier_gets_weight_zero():
    # a finite 1e300 overflows the squared deviations; the point gets
    # weight zero and the fit of the rest stands, with no numpy warning
    x = load_dataset("newcomb").column("deviation").copy()
    x[0] = 1e300
    fam = get_family("normal")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = bootstrap_root_search(fam, x, ResidualConfig(), GammaKernel(1.01),
                                   SolverConfig(seed=0))
        with pytest.raises(DegenerateFitError):
            fam.mle(x)
    root = rs.selected
    assert root.converged and root.weights[0] == 0.0
    np.testing.assert_allclose(root.theta, [27.7491, 25.6905], atol=5e-5)


@pytest.mark.parametrize("name, columns, family, kind, spec, col, value", [
    ("voltage_drop", ("time", "voltage"), "normal_regression", "regression",
     ScaledFKernel(2.5, 1.0), 1, 1e300),
    ("lubischew", ("width", "angle"), "bivariate_normal", "bivariate",
     GammaKernel(1.01), 1, 1e300),
    ("voltage_drop", ("time", "voltage"), "normal_regression", "regression",
     ScaledFKernel(2.5, 1.0), 0, 1e300),
    ("lubischew", ("width", "angle"), "bivariate_normal", "bivariate",
     GammaKernel(1.01), 0, -1e300)],
    ids=["voltage_drop", "lubischew", "voltage_drop-covariate",
         "lubischew-width"])
def test_huge_finite_outlier_in_pairs_gets_weight_zero(name, columns, family,
                                                       kind, spec, col, value):
    # a finite 1e300 coordinate overflows the residuals, the standardized
    # coordinates, the scores and the moments of every fit that weights it;
    # every root gives it weight zero, with no numpy warning
    data = _pairs(name, *columns)
    data[0, col] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = bootstrap_root_search(get_family(family), data,
                                   ResidualConfig(kind=kind), spec,
                                   SolverConfig(seed=0))
    assert rs.selected.converged
    assert all(r.weights[0] == 0.0 for r in rs.roots)


@pytest.mark.parametrize("name, kind", [
    ("normal", "bivariate"), ("normal", "regression"),
    ("poisson", "regression"), ("bivariate_normal", "univariate"),
    ("bivariate_normal", "regression"), ("normal_regression", "univariate"),
    ("normal_regression", "bivariate")])
def test_residual_kind_must_match_family(name, kind):
    fam = get_family(name)
    data = (_pairs("animals", "body_kg", "brain_g", np.log)
            if fam.kind != "univariate"
            else load_dataset("drosophila").column("daughters"))
    rc = ResidualConfig(kind=kind)
    with pytest.raises(ValueError, match=f"{kind}.*{fam.kind}"):
        bootstrap_root_search(fam, data, rc, GammaKernel(1.1), SolverConfig())
    with pytest.raises(ValueError, match=f"{kind}.*{fam.kind}"):
        solve_from(fam, data, rc, GammaKernel(1.1), SolverConfig(),
                   fam.mle(data))


def _search_and_start(name, data, kind="univariate", theta0=None):
    fam, rc = get_family(name), ResidualConfig(kind=kind)
    with pytest.raises(DomainError):
        bootstrap_root_search(fam, data, rc, GammaKernel(1.1),
                              SolverConfig(seed=0))
    if theta0 is not None:
        with pytest.raises(DomainError):
            solve_from(fam, data, rc, GammaKernel(1.1), SolverConfig(),
                       theta0)


@pytest.mark.parametrize("name, kind, shape, theta0", [
    ("bivariate_normal", "bivariate", (40, 3), [0.0, 0.0, 1.0, 1.0, 0.0]),
    ("bivariate_normal", "bivariate", (40,), [0.0, 0.0, 1.0, 1.0, 0.0]),
    ("normal_regression", "regression", (40, 3), [0.0, 1.0, 1.0]),
    ("normal_regression", "regression", (40,), [0.0, 1.0, 1.0]),
    ("normal", "univariate", (20, 2), [0.0, 1.0]),
    ("poisson", "univariate", (20, 1), [1.0]),
])
def test_wrong_shaped_data_is_a_domain_error(name, kind, shape, theta0):
    # the shape of one observation is a fact of the family: (n,) for the
    # univariate families, (n, 2) for pairs
    data = np.abs(np.random.default_rng(0).normal(size=shape)).round()
    _search_and_start(name, data, kind, theta0)
    with pytest.raises(DomainError, match=r"must have shape \(n,"):
        get_family(name).mle(data)
    with pytest.raises(DomainError, match=r"must have shape \(n,"):
        get_family(name).weighted_fit(data, np.ones(len(data)))


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


_GATE_ENTRIES = {
    "mle": lambda fam, x, theta0: fam.mle(x),
    "weighted_fit": lambda fam, x, theta0: fam.weighted_fit(
        x, np.ones(len(x))),
    "solve_from": lambda fam, x, theta0: solve_from(
        fam, x, ResidualConfig(), GammaKernel(1.1), SolverConfig(), theta0),
    "bootstrap_root_search": lambda fam, x, theta0: bootstrap_root_search(
        fam, x, ResidualConfig(), GammaKernel(1.1), SolverConfig(seed=0)),
}


@pytest.mark.parametrize("entry", list(_GATE_ENTRIES))
@pytest.mark.parametrize("name, data, theta0, message", [
    ("normal", np.ones((6, 2)), [0.0, 1.0],
     "normal data must have shape (n,), not (6, 2)"),
    ("normal", [1.0, np.nan, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0],
     "observations must be finite"),
    ("normal", [1.0, np.inf, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0],
     "observations must be finite"),
    ("poisson", [1.5, 2.0, 3.0, 1.0, 0.0, 4.0], [1.0],
     "Poisson observations must be nonnegative integers"),
    ("exponential", [-1.0, 2.0, 3.0, 1.0, 0.5, 4.0], [1.0],
     "exponential observations must be nonnegative"),
], ids=["shape", "nan", "inf", "poisson-1.5", "exponential-neg"])
def test_every_entry_applies_the_one_data_check(entry, name, data, theta0,
                                                message):
    # `Family.check_data` is the one gate: the fits and the solver reject
    # the same observations with the same message, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            _GATE_ENTRIES[entry](get_family(name), data, np.array(theta0))
    assert str(exc.value) == message


@settings(max_examples=40, deadline=None)
@given(hst.sampled_from(["exponential", "poisson", "normal"]),
       hst.lists(hst.integers(0, 4), min_size=6, max_size=20),
       hst.integers(0, 1000))
def test_valid_data_with_ties_and_zeros_search_without_warnings(name, values,
                                                                seed):
    # a subsample of zeros is in the exponential support; its fit is a
    # skipped start, and no numpy warning leaks out of any search
    x = np.array(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            bootstrap_root_search(get_family(name), x, ResidualConfig(),
                                  GammaKernel(1.1), SolverConfig(seed=seed))
        except DegenerateFitError:
            pass  # a sample that leaves no root is a typed failure


def _unit_samples():
    """27 standard normal draws with outliers at 5, 6 and 7, and 30
    exponential draws from the same generator."""
    rng = np.random.default_rng(3)
    normal = np.r_[rng.normal(size=27), 5.0, 6.0, 7.0]
    return {"normal": normal, "exponential": rng.exponential(size=30)}


@pytest.mark.parametrize("name", ["normal", "exponential"])
def test_a_search_in_any_units_gives_roots_or_a_typed_error(name):
    # the sample at x10^k, k = -150 ... 150 in steps of 10: each search
    # returns roots or raises DegenerateFitError, and no float warning
    # escapes (at x1e-90 and below the normal score's 2 s2^2 underflows
    # to zero during certification). Which of the two happens is not
    # pinned: the solver's tolerances are in absolute units
    fam, x = get_family(name), _unit_samples()[name]
    for k in range(-150, 151, 10):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rs = bootstrap_root_search(fam, x * 10.0**k, ResidualConfig(),
                                           GammaKernel(1.01), SolverConfig())
            except DegenerateFitError:
                continue
        assert rs.roots, k


def test_a_search_enters_float_error_scopes_independent_of_iterations(
        monkeypatch):
    # the whole iteration runs under one float-error scope; the fits of
    # the subsample starts and of the MLE start enter one each. So a
    # search enters the same few scopes however many iterations it runs
    errstate, entered = np.errstate, []

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    counts, iterations = [], []
    for cfg in (SolverConfig(seed=0, max_iter=5), SolverConfig(seed=0)):
        entered.clear()
        rs = bootstrap_root_search(get_family("normal"), _mixture_sample(),
                                   ResidualConfig(), GammaKernel(1.01), cfg)
        counts.append(len(entered))
        iterations.append(max(r.iterations
                              for r in rs.roots + rs.non_converged))
    assert iterations[0] == 5 < iterations[1]
    assert counts[0] == counts[1] <= 3
