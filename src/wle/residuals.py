"""Standardized residuals comparing empirical and model distributions.

The residual compares the empirical distribution function with the model
in the lower tail and the empirical survival function with the model in
the upper tail; observations in the central region get residual zero.
This module holds the pieces: the empirical functions, the one
three-branch function `tau_branch`, which the population diagnostics use
too, and the one-tail residual of the normal-error families. Each family's
`residual` picks the residual of its data; `tau_for_sample` hands it the
sample-point values of the family's empirical functions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

BLOCK_ELEMENTS = 1 << 16  # elements per block of a (rows, n) evaluation: a
                          # float64 temporary is 512 KiB, so a block's
                          # elementwise passes run in a 2 MiB L2 (6 rows at
                          # n = 10 000; 6-13 rows timed best in the solver)


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

    The sample is (n,) or (n, 2), as `check_data` returns it, with n >= 1;
    any other shape raises ValueError. F_n(x) = #{X_i <= x}/n and
    S_n(x) = #{X_i >= x}/n are evaluated at arbitrary points in O(log n)
    from a sorted copy, and the four quadrant masses of (n, 2) data by
    direct counting. `sample` is a read-only copy of the sample.
    """

    def __init__(self, data, discrete=False):
        x = np.array(data, dtype=float, order="C")
        if not (x.ndim == 1 or x.shape[1:] == (2,)) or len(x) < 1:
            raise ValueError("empirical functions need a sample of shape "
                             f"(n,) or (n, 2) with n >= 1, not {x.shape}")
        x.flags.writeable = False
        self.sample, self.n = x, len(x)
        if x.ndim == 2:
            self._values = self.quadrants(x)
        elif discrete:
            self._sorted = np.sort(x)
            self._values = self.cdf(x), self.survival(x)
        else:
            order = np.argsort(x, kind="stable")
            self._sorted = x[order]
            self._values = _rank_functions(order)

    def at_sample(self, x):
        """The sample-point values the family's residual reads, in sample
        order: the (n, 4) quadrant masses of (n, 2) data, else (F_n, S_n)
        as inclusive counts if `discrete` and as ranks, F_n(X_(i)) = i/n
        and S_n(X_(i)) = (n - i + 1)/n, if not. A continuous model gives
        ties probability zero, so tied observations take consecutive
        ranks; a discrete one makes them part of the model, and the counts
        tend to P(X <= x) and P(X >= x), which keeps the residual zero at
        the model. `x` must be the sample; `sample` itself passes without
        an O(n) comparison."""
        if x is not self.sample and not np.array_equal(x, self.sample,
                                                       equal_nan=True):
            raise ValueError("sample points differ from the sample the "
                             "empirical functions were built from")
        return self._values

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.searchsorted(self._ordered(), x, side="right") / self.n

    def survival(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (self.n - np.searchsorted(self._ordered(), x)) / self.n

    def _ordered(self):
        if self.sample.ndim == 2:
            raise ValueError(f"a sample of shape {self.sample.shape} has no "
                             "cdf or survival; use quadrants")
        return self._sorted

    def quadrants(self, xy):
        """Empirical quadrant masses (ll, lg, gl, gg) at (k, 2) points, (k, 4).

        The points are counted in blocks of about BLOCK_ELEMENTS
        comparisons, so the memory taken grows as n, not as n^2."""
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"quadrant points must be (k, 2), not {xy.shape}")
        X, Y = self.sample[:, 0], self.sample[:, 1]
        counts = np.empty((len(xy), 4), dtype=np.intp)
        step = max(1, BLOCK_ELEMENTS // self.n)
        for i in range(0, len(xy), step):
            px, py = xy[i:i + step, 0:1], xy[i:i + step, 1:2]
            lx, gx = X <= px, X >= px
            ly, gy = Y <= py, Y >= py
            for j, (a, b) in enumerate(((lx, ly), (lx, gy), (gx, ly),
                                        (gx, gy))):
                counts[i:i + step, j] = np.count_nonzero(a & b, axis=1)
        return counts / self.n


def _tail_ratio(tail, T):
    """tail / T - 1, with +inf wherever that is not finite."""
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
    """Three-branch residual, vectorized, silently; see `_branch_tau`."""
    with np.errstate(all="ignore"):
        return _branch_tau(Fn, Sn, F, S, p)


def _branch_tau(Fn, Sn, F, S, p):
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
        return _branch_tau(Fn, Sn, ndtr(z), q, p)
    upper = z >= 0
    upper |= q == 0.5
    return _tail_ratio(np.where(upper, Sn, Fn), q)


_BUILD = object()  # tau_for_sample builds the empirical functions itself


def tau_for_sample(config, family, theta, data, empirical=_BUILD):
    """Residuals of every observation in `data` under `family` at `theta`,
    from the family's `residual`.

    `theta` is one parameter vector, giving n residuals, or a (B, dim)
    batch, giving one row of n residuals per parameter. Model tails that
    underflow give +inf residuals, so extreme outliers simply receive
    weight zero. One vector passes `family.check_params`; data whose
    empirical functions are built here pass `family.check_data`, and the
    call is silent. A supplied `empirical` must be `family.empirical(data)`
    of checked data, and the call runs in the caller's float-error scope,
    as the solver's blocks of one search do; a batch is read as it is.
    The residual reads `empirical.at_sample(data)` (None if no empirical)."""
    if empirical is _BUILD:
        data = family.check_data(data)
        with np.errstate(all="ignore"):
            return tau_for_sample(config, family, theta, data,
                                  family.empirical(data))
    values = None if empirical is None else empirical.at_sample(data)
    if np.ndim(theta) == 2:
        return family.residual(np.asarray(theta, dtype=float), data, values,
                               config.p)
    return family.residual(family.check_params(theta)[None, :], data, values,
                           config.p)[0]
