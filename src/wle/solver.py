"""Weighted-likelihood estimating equation solver and multi-root search.

The estimating equation sum_i w_i(theta) u_theta(X_i) = 0 is solved by
iteratively reweighted closed-form estimation: freeze the weights at the
current parameter, solve the weighted likelihood equation in closed form,
repeat. Multiple roots are enumerated by restarting from MLEs of small
bootstrap subsamples, deduplicated, and ranked by total weight. Every
start of a search iterates as one row of a single batch, for every
family; a single start is the batch of one.
"""

from dataclasses import dataclass, field

import numpy as np

from .families import DegenerateFitError, DomainError
from .residuals import EmpiricalFunctions, tau_for_sample

SCORE_RESIDUAL_TOL = 1e-6  # converged roots satisfy ||sum w u||_inf < tol * n


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8              # relative parameter change
    max_iter: int = 1000           # per start; one whose step shrinks by
                                   # 1.4% per iteration certifies after ~730
    bootstrap_b: int = 50          # number of bootstrap restarts
    bootstrap_m: int = 3           # bootstrap subsample size
    root_tol: float = 1e-4         # relative sup-norm for root identity
    min_weight_share: float = 0.25 # share of combined root weight needed for
                                   # the second root to win selection
    eligibility_share: float = 0.0 # roots below this share of n are kept in
                                   # the report but never win selection
    seed: int = 0

    def __post_init__(self):
        if self.bootstrap_b < 1:
            raise ValueError("bootstrap restart count must be >= 1")
        if self.bootstrap_m < 2:
            raise ValueError("bootstrap subsample size must be >= 2")
        if not 0 < self.min_weight_share < 1:
            raise ValueError("minimum weight share must be in (0, 1)")
        if not 0 <= self.eligibility_share < 1:
            raise ValueError("eligibility share must be in [0, 1)")


@dataclass
class Root:
    theta: np.ndarray
    weights: np.ndarray
    weight_sum: float
    iterations: int
    converged: bool
    score_residual: float

    def summary(self):
        return {
            "theta": [float(v) for v in self.theta],
            "weight_sum": self.weight_sum,
            "iterations": self.iterations,
            "converged": self.converged,
            "score_residual": self.score_residual,
        }


@dataclass
class RootSet:
    roots: list            # distinct converged roots, weight sum descending
    selected_index: int
    n: int                 # sample size
    selection_rule: str = "highest"
    n_restarts: int = 0
    n_failed: int = 0
    n_skipped_subsamples: int = 0
    non_converged: list = field(default_factory=list)

    @property
    def selected(self):
        return self.roots[self.selected_index]


def _checked_data(family, data):
    """The data as floats; non-finite or out-of-support data raise."""
    data = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(data)):
        raise DomainError("observations must be finite")
    family.check_support(data)
    return data


def _solve_batch(family, data, residual_config, weight_spec, solver_config,
                 theta0s, empirical=None):
    """Reweighted fixed-point iteration from a (B, dim) batch of starts.

    Each row steps theta <- weighted_fit(data, w(theta)). A row has
    converged once its relative step is below `tol` and its weighted score
    is solved, ||sum_i w_i u_theta(X_i)||_inf < SCORE_RESIDUAL_TOL * n
    (ill-scaled parameters need extra iterations after the step is small);
    it has stalled at the numerical fixed point when its step is exactly
    zero without a solved score. Returns a list of Root-or-None aligned
    with theta0s: non-convergence is flagged, a degenerate weighted fit
    gives None.
    """
    thetas = np.array(theta0s, dtype=float, ndmin=2)
    nstart, n = len(thetas), len(data)
    if empirical is None and residual_config.kind != "regression":
        empirical = EmpiricalFunctions(
            data, bivariate=residual_config.kind == "bivariate")

    def weights(th):
        return weight_spec.weight(tau_for_sample(
            residual_config, family, th, data, empirical))

    iters = np.full(nstart, solver_config.max_iter)
    conv = np.zeros(nstart, dtype=bool)
    alive = np.ones(nstart, dtype=bool)
    resid = np.empty(nstart)
    W = [None] * nstart          # weights at the final theta of each row
    active = np.arange(nstart)   # rows still iterating
    w = weights(thetas)          # their weights at their current theta
    for it in range(1, solver_config.max_iter + 1):
        new = family.weighted_fit_batch(data, w)
        ok = ~np.any(np.isnan(new), axis=1)
        if not np.all(ok):
            alive[active[~ok]] = False
            active, new = active[ok], new[ok]
        old = thetas[active]
        delta = (np.max(np.abs(new - old), axis=1)
                 / (1.0 + np.max(np.abs(old), axis=1)))
        thetas[active] = new
        w = weights(new)
        near = np.flatnonzero(delta < solver_config.tol)
        if near.size:
            r = np.max(np.abs(family.weighted_score_batch(
                new[near], data, w[near])), axis=1)
            resid[active[near]] = r
            solved = r < SCORE_RESIDUAL_TOL * n
            conv[active[near[solved]]] = True
            stop = near[solved | (delta[near] == 0.0)]
            if stop.size:
                iters[active[stop]] = it
                for i, wi in zip(active[stop], w[stop]):
                    W[i] = wi
                keep = np.ones(active.size, dtype=bool)
                keep[stop] = False
                active, w = active[keep], w[keep]
        if not active.size:
            break
    if active.size:  # out of iterations
        for i, wi in zip(active, w):
            W[i] = wi
        resid[active] = np.max(np.abs(family.weighted_score_batch(
            thetas[active], data, w)), axis=1)
    return [Root(theta=thetas[i], weights=W[i], weight_sum=float(W[i].sum()),
                 iterations=int(iters[i]), converged=bool(conv[i]),
                 score_residual=float(resid[i])) if alive[i] else None
            for i in range(nstart)]


def solve_from(family, data, residual_config, weight_spec, solver_config,
               theta0, empirical=None):
    """Iterate the reweighted closed-form step from a single start.

    Returns a Root; non-convergence is flagged, not raised. A degenerate
    weighted fit (collapsed weight mass or spread) raises
    DegenerateFitError.
    """
    data = _checked_data(family, data)
    theta0 = np.asarray(theta0, dtype=float)
    family.check_params(theta0)
    root = _solve_batch(family, data, residual_config, weight_spec,
                        solver_config, theta0[None, :], empirical)[0]
    if root is None:
        raise DegenerateFitError("weighted fit degenerated during iteration")
    return root


def _same_root(t1, t2, tol):
    return (np.max(np.abs(t1 - t2)) / (1.0 + np.max(np.abs(t1)))) < tol


def cluster_roots(roots, root_tol):
    """Deduplicate converged roots; keep the highest-weight representative."""
    distinct = []
    for r in sorted(roots, key=lambda r: -r.weight_sum):
        if not any(_same_root(r.theta, d.theta, root_tol) for d in distinct):
            distinct.append(r)
    return distinct


def _subsample_starts(family, data, solver_config):
    """MLE starting values from seeded with-replacement subsamples."""
    n = len(data)
    m = max(solver_config.bootstrap_m, family.min_subsample)
    starts, skipped = [], 0
    for i in range(solver_config.bootstrap_b):
        ss = np.random.SeedSequence(solver_config.seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(ss))
        idx = rng.integers(0, n, size=m)
        try:
            starts.append(family.mle(data[idx]))
        except DegenerateFitError:
            skipped += 1
    return starts, skipped


def _choose_index(roots, n, solver_config):
    """Selection rule on a weight-ordered root list.

    Roots carrying less than eligibility_share * n total weight never win.
    Among the eligible roots, the second-highest weight sum wins when it
    holds at least min_weight_share of their combined weight; otherwise
    the highest does.
    """
    eligible = [i for i, r in enumerate(roots)
                if r.weight_sum >= solver_config.eligibility_share * n]
    if not eligible:
        return 0, "highest"
    total = sum(roots[i].weight_sum for i in eligible)
    if (len(eligible) >= 2 and roots[eligible[1]].weight_sum
            >= solver_config.min_weight_share * total):
        return eligible[1], "second-highest"
    return eligible[0], "highest"


def build_root_set(roots, n, solver_config, **counters):
    """Cluster, rank and apply the root-selection rule."""
    converged = [r for r in roots if r is not None and r.converged]
    non_conv = cluster_roots(
        [r for r in roots if r is not None and not r.converged],
        solver_config.root_tol)
    distinct = cluster_roots(converged, solver_config.root_tol)
    if not distinct:
        raise DegenerateFitError("no converged roots found")
    selected, rule = _choose_index(distinct, n, solver_config)
    return RootSet(roots=distinct, selected_index=selected, n=n,
                   selection_rule=rule, non_converged=non_conv, **counters)


def bootstrap_root_search(family, data, residual_config, weight_spec,
                          solver_config):
    """Enumerate distinct roots via bootstrap-subsample MLE restarts.

    The full-sample MLE is always included as an extra start, so the
    MLE-like root cannot be missed by unlucky subsampling. All starts
    iterate together as one batch. Non-finite or out-of-support data
    raise DomainError.
    """
    data = _checked_data(family, data)
    n = len(data)
    if n < max(solver_config.bootstrap_m, family.min_subsample):
        raise ValueError("sample smaller than the bootstrap subsample size")
    starts, skipped = _subsample_starts(family, data, solver_config)
    starts.insert(0, family.mle(data))
    roots = _solve_batch(family, data, residual_config, weight_spec,
                         solver_config, np.asarray(starts))
    failed = sum(r is None for r in roots)
    return build_root_set(roots, n, solver_config, n_restarts=len(starts),
                          n_failed=failed, n_skipped_subsamples=skipped)
