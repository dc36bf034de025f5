"""Mode-normalized weight functions mapping residuals to [0, 1].

Each weight family is a nonnegative kernel g with domain endpoint value 0
and a unique interior mode pinned at 1 by reparametrization; the weight is
the density ratio H(tau) = g(tau + a + 1)/g(a + 1). All families satisfy
H(0) = 1, H(-1) = 0, H'(0) = 0 and H -> 0 at infinity. Ratios are
evaluated in log space to stay stable for large residuals and tuning
parameters near their likelihood limits.
"""

from dataclasses import dataclass

import numpy as np

from .solver import check_settings


def _prep(tau):
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    return np.atleast_1d(tau), scalar


def _finish(w, scalar):
    return float(w[0]) if scalar else w


class WeightFunction:
    """Base weight family; subclasses supply log H(tau) on tau > -1, its
    derivative, and the closed form of w''(0) = (log H)''(0)."""

    def _log_weight(self, tau):
        raise NotImplementedError

    def weight(self, tau):
        """H(tau) in [0, 1]; tau <= -1 (and tau = inf) map to 0."""
        tau, scalar = _prep(tau)
        with np.errstate(all="ignore"):
            return _finish(self.weight_rows(tau), scalar)

    def weight_rows(self, tau):
        """`weight` of a float array under the caller's float-error scope:
        the kernel runs on every entry, then entries outside -1 < tau < inf,
        NaN included, are 0; exp is never negative, so only 1 clips."""
        out = self._log_weight(tau)
        np.exp(out, out=out)
        out[~((tau > -1.0) & (tau < np.inf))] = 0.0
        return np.minimum(out, 1.0, out=out)

    def weight_derivative(self, tau):
        """H'(tau) for tau > -1 (analytic log-derivative times H)."""
        tau, scalar = _prep(tau)
        out = np.zeros_like(tau)
        ok = (tau > -1.0) & np.isfinite(tau)
        if np.any(ok):
            out[ok] = self._dlog_weight(tau[ok]) * np.exp(self._log_weight(tau[ok]))
        return _finish(out, scalar)


@dataclass(frozen=True)
class GammaKernel(WeightFunction):
    """Gamma-density kernel; downweighting grows with alpha, MLE as alpha -> 1."""

    alpha: float = 1.01

    def __post_init__(self):
        check_settings(self, alpha=1)

    def _log_weight(self, tau):
        # H(tau) = ((1 + tau) e^{-tau})^{alpha - 1}
        return (self.alpha - 1.0) * (np.log1p(tau) - tau)

    def _dlog_weight(self, tau):
        return (self.alpha - 1.0) * (1.0 / (1.0 + tau) - 1.0)

    def second_derivative_at_zero(self):
        return 1.0 - self.alpha


@dataclass(frozen=True)
class WeibullKernel(WeightFunction):
    """Weibull-density kernel; downweighting grows with k, MLE as k -> 1."""

    k: float = 1.01

    def __post_init__(self):
        check_settings(self, k=1)

    @property
    def scale(self):
        return ((self.k - 1.0) / self.k) ** (-1.0 / self.k)

    def _log_weight(self, tau):
        k = self.k
        c = (k - 1.0) / k  # 1/scale^k
        return (k - 1.0) * np.log1p(tau) - c * ((1.0 + tau) ** k - 1.0)

    def _dlog_weight(self, tau):
        k = self.k
        return (k - 1.0) * (1.0 / (1.0 + tau) - (1.0 + tau) ** (k - 1.0))

    def second_derivative_at_zero(self):
        return -self.k * (self.k - 1.0)


@dataclass(frozen=True)
class GevKernel(WeightFunction):
    """Generalized-extreme-value kernel; downweighting shrinks as xi grows.

    With location (1+xi)^xi - 1 and scale xi(1+xi)^xi the transformed
    variable is t(tau) = (1 + xi)(1 + tau)^{-1/xi}, so the mode sits at
    tau = 0 and the domain endpoint at tau = -1.
    """

    xi: float = 10.0

    def __post_init__(self):
        check_settings(self, xi=0)

    @property
    def location(self):
        return (1.0 + self.xi) ** self.xi - 1.0

    @property
    def scale(self):
        return self.xi * (1.0 + self.xi) ** self.xi

    def _log_weight(self, tau):
        # t(tau) = (1 + xi)(1 + tau)^{-1/xi}; H = (t/t(0))^{1+xi} e^{t(0)-t}
        xi = self.xi
        t_ratio = (1.0 + tau) ** (-1.0 / xi)
        return (-(1.0 + xi) / xi) * np.log1p(tau) + (1.0 + xi) * (1.0 - t_ratio)

    def _dlog_weight(self, tau):
        xi = self.xi
        return ((1.0 + xi) / (xi * (1.0 + tau))) * ((1.0 + tau) ** (-1.0 / xi) - 1.0)

    def second_derivative_at_zero(self):
        return -(1.0 + self.xi) / self.xi**2


@dataclass(frozen=True)
class ScaledFKernel(WeightFunction):
    """Scaled F-type kernel with separate control of the two tails.

    d1 drives both tails (MLE as d1 -> 2); d2 mostly shapes the right tail.
    """

    d1: float = 2.1
    d2: float = 1.0

    def __post_init__(self):
        check_settings(self, d1=2, d2=0)

    @property
    def mode_scale(self):
        return self.d1 * (self.d2 + 2.0) / ((self.d1 - 2.0) * self.d2)

    def _log_weight(self, tau):
        d1, d2 = self.d1, self.d2
        a = self.mode_scale
        c = d1 / (d2 * a)
        return ((d1 / 2.0 - 1.0) * np.log1p(tau)
                - (d1 + d2) / 2.0 * (np.log1p(c * (1.0 + tau)) - np.log1p(c)))

    def _dlog_weight(self, tau):
        d1, d2 = self.d1, self.d2
        c = d1 / (d2 * self.mode_scale)
        return (d1 / 2.0 - 1.0) / (1.0 + tau) - (d1 + d2) / 2.0 * c / (1.0 + c * (1.0 + tau))

    def second_derivative_at_zero(self):
        return (2.0 - self.d1) * (self.d2 + 2.0) / (2.0 * (self.d1 + self.d2))


KERNELS = {
    "gamma": GammaKernel,
    "weibull": WeibullKernel,
    "gev": GevKernel,
    "scaled_f": ScaledFKernel,
}

#: The kernels at their field defaults, recommended for routine use.
DEFAULT_SPECS = {name: kernel() for name, kernel in KERNELS.items()}
