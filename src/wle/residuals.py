"""Standardized residuals comparing empirical and model distributions.

The residual compares the empirical distribution function with the model
in the lower tail and the empirical survival function with the model in
the upper tail; observations in the central region get residual zero.
Univariate data share the one three-branch function `tau_branch`, which
the population diagnostics use too; the normal-error families, regression
included, read the same branches from one model tail per observation;
bivariate data take the quadrant of smallest model probability.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .families import NormalErrors


@dataclass(frozen=True)
class ResidualConfig:
    """Tail fraction and family-kind tag.

    `p` is the fraction of either distributional tail eligible for
    downweighting. Boundary convention: F = p falls in the lower-tail
    branch, F = 1 - p in the upper-tail branch. `kind` must equal the
    `kind` of the family it is used with; the solver checks this.
    """

    p: float = 0.5
    kind: str = "univariate"  # univariate | bivariate | regression

    def __post_init__(self):
        if not 0 < self.p <= 0.5:
            raise ValueError("p must be in (0, 0.5]")
        if self.kind not in ("univariate", "bivariate", "regression"):
            raise ValueError(f"unknown kind {self.kind!r}")


def _rank_functions(order):
    """F_n and S_n at the sample points from a stable sorting permutation.

    The observation of rank i gets F_n = i/n and S_n = (n - i + 1)/n;
    tied observations take consecutive ranks in sample order. A 2-D
    `order` holds one permutation per row.
    """
    n = order.shape[-1]
    rank = np.empty(order.shape)
    np.put_along_axis(rank, order, np.arange(1.0, n + 1), axis=-1)
    return rank / n, (n + 1 - rank) / n


class EmpiricalFunctions:
    """Empirical distribution/survival functions of a fixed sample.

    For univariate data, F_n(x) = #{X_i <= x}/n and S_n(x) = #{X_i >= x}/n
    are evaluated at arbitrary points in O(log n) from a sorted copy. At
    the sample points `at_sample` gives either these counts or the rank
    values F_n(X_(i)) = i/n and S_n(X_(i)) = (n - i + 1)/n, with tied
    observations taking consecutive ranks; both are computed once.
    For bivariate data the four quadrant counters are evaluated by direct
    counting, at the sample points once per sample.

    `sample` is a read-only copy of the sample, (n,) or bivariate (n, 2).
    """

    def __init__(self, data, bivariate=False):
        self.bivariate = bivariate
        x = np.asarray(data, dtype=float).reshape(
            (-1, 2) if bivariate else -1).copy()
        x.flags.writeable = False
        self.sample = x
        self.n = len(x)
        if bivariate:
            self._counted = self.quadrants(x)
        else:
            order = np.argsort(x, kind="stable")
            self._sorted = x[order]
            self._ranked = _rank_functions(order)
            self._counted = self.cdf(x), self.survival(x)
        if self.n < 1:
            raise ValueError("need at least one observation")

    def at_sample(self, x, discrete=False):
        """F_n and S_n at the sample points, in sample order.

        For bivariate data this is the (n, 4) array of quadrant masses.

        `x` must be the sample this object was built from; `sample` itself
        passes without an O(n) comparison. Under a
        continuous family ties have probability zero, so tied observations
        take consecutive ranks rather than all being credited with their
        group's whole mass on both sides. Under a discrete family ties are
        part of the model: the inclusive counts F_n(x) and S_n(x) tend to
        P(X <= x) and P(X >= x), which keeps the residual zero at the model.
        """
        if x is not self.sample and not np.array_equal(x, self.sample,
                                                       equal_nan=True):
            raise ValueError("sample points differ from the sample the "
                             "empirical functions were built from")
        return self._counted if discrete or self.bivariate else self._ranked

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.searchsorted(self._sorted, x, side="right") / self.n

    def survival(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.n - np.searchsorted(self._sorted, x, side="left")) / self.n

    def quadrants(self, xy):
        """Empirical quadrant masses (ll, lg, gl, gg) at each point, (n, 4)."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        X, Y = self.sample[:, 0], self.sample[:, 1]
        lx = X[None, :] <= xy[:, 0:1]
        gx = X[None, :] >= xy[:, 0:1]
        ly = Y[None, :] <= xy[:, 1:2]
        gy = Y[None, :] >= xy[:, 1:2]
        n = self.n
        return np.column_stack([
            (lx & ly).sum(axis=1) / n,
            (lx & gy).sum(axis=1) / n,
            (gx & ly).sum(axis=1) / n,
            (gx & gy).sum(axis=1) / n,
        ])


def _tail_ratio(tail, T):
    """tail / T - 1, with +inf wherever that is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = np.asarray(tail / T)
    tau -= 1.0
    np.copyto(tau, np.inf, where=~np.isfinite(tau))
    return tau


def model_tail(F, S, p):
    """The branch rule, upper = F >= 1 - p (at p = 1/2, F = 1/2 is upper),
    and the model tail T that each point reads: S if upper, else F."""
    upper = F >= 1.0 - p
    return upper, np.where(upper, S, F)


def tau_branch(Fn, Sn, F, S, p):
    """Three-branch residual, vectorized.

    Lower tail (F <= p): Fn / F - 1. Upper tail (F >= 1 - p):
    Sn / S - 1. Zero in between. A vanished model tail or an undefined F
    gives +inf, which every weight function maps to zero. Fn and Sn
    broadcast against F and S, so one sample's empirical functions serve
    a whole (B, n) batch of model functions; the distribution and
    survival functions of a smooth distribution in place of Fn and Sn
    give its population residual. Each point's tails are picked before
    the one division."""
    F = np.asarray(F, dtype=float)
    S = np.asarray(S, dtype=float)
    upper, T = model_tail(F, S, p)
    tau = _tail_ratio(np.where(upper, Sn, Fn), T)
    if p < 0.5:  # the central region; at p = 1/2 it is empty
        np.copyto(tau, 0.0, where=(F > p) & ~upper)
    return tau


def _normal_tau(Fn, Sn, z, p):
    """tau_branch(Fn, Sn, ndtr(z), ndtr(-z), p) from one ndtr per element.

    q = ndtr(-|z|) is the model tail that each branch reads: F below the
    median, S above it. At p = 1/2 the upper branch, F >= 1/2, is z >= 0
    or q == 1/2, since ndtr rounds tiny negative z to 1/2; only a smaller
    p needs F itself, for the branch test."""
    q = np.abs(z)
    np.negative(q, out=q)
    ndtr(q, out=q)
    if p < 0.5:
        return tau_branch(Fn, Sn, ndtr(z), q, p)
    upper = z >= 0
    upper |= q == 0.5
    return _tail_ratio(np.where(upper, Sn, Fn), q)


def _quadrant_tau(model_q, emp_q):
    """Residual from the quadrant with the smallest model probability.

    `model_q` are the four (B, n) model quadrant probabilities and `emp_q`
    the (n, 4) empirical quadrant masses. Ties at the minimum are broken
    in the fixed order ll, lg, gl, gg.
    """
    pm, emp = model_q[0], emp_q[:, 0]
    for j in (1, 2, 3):
        take = model_q[j] < pm
        pm = np.where(take, model_q[j], pm)
        emp = np.where(take, emp_q[:, j], emp)
    return _tail_ratio(emp, pm)


def tau_for_sample(config, family, theta, data, empirical=None):
    """Residuals of every observation in `data` under `family` at `theta`.

    `theta` is one parameter vector, giving n residuals, or a (B, dim)
    batch, giving one row of n residuals per parameter. Model tails that
    underflow give +inf residuals, so extreme outliers simply receive
    weight zero. F_n and S_n at the sample points are the values of
    `EmpiricalFunctions.at_sample`: sample ranks for a continuous family
    (regression residuals included), inclusive counts for a discrete one,
    quadrant masses for bivariate data, where the residual comes from the
    quadrant of smallest model probability. The branch follows
    `family.kind`; a `NormalErrors` family reads one model tail per
    observation from its standardized residuals. A supplied `empirical`
    must have been built from `data`.
    """
    theta = np.asarray(theta, dtype=float)
    thetas = np.atleast_2d(theta)
    if family.kind == "regression":
        z = family.residuals(thetas, data)
        Fn, Sn = _rank_functions(np.argsort(z, axis=-1, kind="stable"))
        tau = _normal_tau(Fn, Sn, z, config.p)
    elif family.kind == "bivariate":
        xy = np.asarray(data, dtype=float)
        if xy.ndim != 2:
            xy = xy.reshape(-1, 2)
        if empirical is None:
            empirical = EmpiricalFunctions(xy, bivariate=True)
        tau = _quadrant_tau(family.quadrant_probabilities(thetas, xy),
                            empirical.at_sample(xy))
    else:
        x = np.atleast_1d(np.asarray(data, dtype=float))
        if empirical is None:
            empirical = EmpiricalFunctions(x)
        Fn, Sn = empirical.at_sample(x, family.discrete)
        if isinstance(family, NormalErrors):
            # a huge outlier over a tiny scale standardizes to +-inf: its
            # model tail is 0 and its weight 0
            with np.errstate(over="ignore"):
                z = family.residuals(thetas, x)
            tau = _normal_tau(Fn, Sn, z, config.p)
        else:
            tau = tau_branch(Fn, Sn, *family.cdf_survival(thetas, x),
                             config.p)
    return tau if theta.ndim == 2 else tau[0]
