"""Standardized residuals comparing empirical and model distributions.

The residual compares the empirical distribution function with the model
in the lower tail and the empirical survival function with the model in
the upper tail; observations in the central region get residual zero.
Univariate, bivariate-quadrant and regression-standardized variants share
the same branch logic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


class ZeroModelTailError(ZeroDivisionError):
    """Model distribution/survival function vanished at an observation."""


@dataclass(frozen=True)
class ResidualConfig:
    """Tail fraction, denominator exponent and family-kind tag.

    `p` is the fraction of either distributional tail eligible for
    downweighting; `beta_exp` = 1 is the primary definition, other values
    are experimental. Boundary convention: F = p falls in the lower-tail
    branch, F = 1 - p in the upper-tail branch.
    """

    p: float = 0.5
    beta_exp: float = 1.0
    kind: str = "univariate"  # univariate | bivariate | regression

    def __post_init__(self):
        if not 0 < self.p <= 0.5:
            raise ValueError("p must be in (0, 0.5]")
        if not self.beta_exp > 0:
            raise ValueError("beta_exp must be positive")
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
    """

    def __init__(self, data, bivariate=False):
        self.bivariate = bivariate
        if bivariate:
            self._sample = np.asarray(data, dtype=float).reshape(-1, 2)
            self.n = len(self._sample)
            self._counted = self.quadrants(self._sample)
        else:
            x = np.array(data, dtype=float).ravel()
            order = np.argsort(x, kind="stable")
            self._sample = x
            self._sorted = x[order]
            self.n = x.size
            self._ranked = _rank_functions(order)
            self._counted = self.cdf(x), self.survival(x)
        if self.n < 1:
            raise ValueError("need at least one observation")

    def at_sample(self, x, discrete=False):
        """F_n and S_n at the sample points, in sample order.

        For bivariate data this is the (n, 4) array of quadrant masses.

        `x` must be the sample this object was built from. Under a
        continuous family ties have probability zero, so tied observations
        take consecutive ranks rather than all being credited with their
        group's whole mass on both sides. Under a discrete family ties are
        part of the model: the inclusive counts F_n(x) and S_n(x) tend to
        P(X <= x) and P(X >= x), which keeps the residual zero at the model.
        """
        if not np.array_equal(x, self._sample, equal_nan=True):
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
        X, Y = self._sample[:, 0], self._sample[:, 1]
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


def _tau_branch(Fn, Sn, F, S, p, beta_exp, strict=True):
    """Three-branch residual, vectorized. With strict=False a vanished model
    tail yields +inf (weight functions map it to zero) instead of raising.

    Fn and Sn broadcast against F and S, so one sample's empirical
    functions serve a whole (B, n) batch of model functions."""
    F = np.asarray(F, dtype=float)
    S = np.asarray(S, dtype=float)
    lower = F <= p
    upper = F >= 1.0 - p
    if strict and (np.any(lower & (F == 0)) or np.any(upper & (S == 0))):
        raise ZeroModelTailError("model tail probability underflowed to zero")
    if beta_exp != 1.0:
        F, S = F**beta_exp, S**beta_exp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # F = p = 1 - p (p = 1/2) takes the upper branch
        tau = np.where(upper, Sn / S, np.where(lower, Fn / F, 1.0))
    tau -= 1.0
    np.copyto(tau, np.inf, where=~np.isfinite(tau))
    return tau


def tau_univariate(config, empirical, family, theta, x):
    """Residual at points x for a univariate family.

    Lower tail (F_theta <= p): F_n/F_theta^beta - 1. Upper tail
    (F_theta >= 1-p): S_n/S_theta^beta - 1. Zero in between. F_n and S_n
    take the inclusive conventions at the arbitrary points x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    F, S = family.cdf_survival(theta, x)
    return _tau_branch(empirical.cdf(x), empirical.survival(x), F, S,
                       config.p, config.beta_exp)


def tau_regression(config, z_sample, z):
    """Residual for standardized regression residuals against Phi.

    `z_sample` are the standardized residuals at the current parameter;
    they provide the empirical functions, while the model functions are
    the standard normal distribution and survival functions.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    emp = EmpiricalFunctions(z_sample)
    return _tau_branch(emp.cdf(z), emp.survival(z), ndtr(z), ndtr(-z),
                       config.p, config.beta_exp)


def _quadrant_tau(model_q, emp_q, beta_exp, strict):
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
    if strict and np.any(pm < 1e-300):
        raise ZeroModelTailError("minimal quadrant probability underflowed")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = emp / pm**beta_exp - 1.0
    return np.where(np.isfinite(tau), tau, np.inf)


def tau_for_sample(config, family, theta, data, empirical=None, strict=False):
    """Residuals of every observation in `data` under `family` at `theta`.

    `theta` is one parameter vector, giving n residuals, or a (B, dim)
    batch, giving one row of n residuals per parameter. This is the
    solver-facing path: model tails that underflow give +inf residuals
    rather than raising, so extreme outliers simply receive weight zero.
    F_n and S_n at the sample points are the values of
    `EmpiricalFunctions.at_sample`: sample ranks for a continuous family
    (regression residuals included), inclusive counts for a discrete one,
    quadrant masses for bivariate data, where the residual comes from the
    quadrant of smallest model probability. A supplied `empirical` must
    have been built from `data`.
    """
    theta = np.asarray(theta, dtype=float)
    thetas = np.atleast_2d(theta)
    if config.kind == "regression":
        z = family.residuals(thetas, data)
        Fn, Sn = _rank_functions(np.argsort(z, axis=-1, kind="stable"))
        tau = _tau_branch(Fn, Sn, ndtr(z), ndtr(-z),
                          config.p, config.beta_exp, strict=strict)
    elif config.kind == "bivariate":
        xy = np.asarray(data, dtype=float).reshape(-1, 2)
        if empirical is None:
            empirical = EmpiricalFunctions(xy, bivariate=True)
        tau = _quadrant_tau(family.cdf_batch(thetas, xy),
                            empirical.at_sample(xy), config.beta_exp, strict)
    else:
        x = np.atleast_1d(np.asarray(data, dtype=float))
        if empirical is None:
            empirical = EmpiricalFunctions(x)
        F, S = family.cdf_batch(thetas, x)
        Fn, Sn = empirical.at_sample(x, family.discrete)
        tau = _tau_branch(Fn, Sn, F, S, config.p, config.beta_exp,
                          strict=strict)
    return tau if theta.ndim == 2 else tau[0]
