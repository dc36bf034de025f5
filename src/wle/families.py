"""Parametric families exposing the quantities the estimating equation needs.

Each family provides the log-density score, distribution and survival
functions, their parameter gradients, the Fisher information and a
closed-form weighted fit (the inner step of the reweighting iteration).
The solver calls batched forms of the model functions, the weighted fit
and the weighted score, with one row per start of a root search.
Five families are supported: Poisson, univariate normal, exponential,
bivariate normal and normal linear regression.
"""

import numpy as np
from scipy.special import gammaln, ndtr, pdtr, pdtrc
from scipy.stats import chi2

from .bvn import bvn_cdf


class DomainError(ValueError):
    """Observation outside the support or parameter outside its space."""


class DegenerateFitError(ValueError):
    """Weighted fit is not identifiable (weight mass or spread collapsed)."""


_WEIGHT_SUM_FLOOR = 1e-12


def _asarray1d(x):
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a[None]
    return a


class Family:
    """Base class; subclasses fill in the analytic pieces."""

    name = ""
    dim = 0
    param_names = ()
    kind = "univariate"  # univariate | bivariate | regression
    discrete = False
    min_subsample = 2    # smallest subsample that identifies the parameters

    def check_params(self, theta):
        raise NotImplementedError

    def check_support(self, x):
        raise NotImplementedError

    def score(self, theta, x):
        """Gradient of the log-density at each observation, shape (n, dim)."""
        raise NotImplementedError

    def cdf_survival(self, theta, x):
        """(F_theta(x), S_theta(x)); S uses the `X >= x` convention."""
        raise NotImplementedError

    def cdf_gradient(self, theta, x):
        """d/dtheta F_theta(x), shape (n, dim). Default: central differences."""
        theta = np.asarray(theta, dtype=float)
        x = _asarray1d(x)
        grad = np.empty((x.size, theta.size))
        for j in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            grad[:, j] = (self.cdf_survival(tp, x)[0]
                          - self.cdf_survival(tm, x)[0]) / (2 * h)
        return grad

    def score_jacobian(self, theta, x):
        """d/dtheta of the score, shape (n, dim, dim). Default: central diffs."""
        theta = np.asarray(theta, dtype=float)
        n = len(_asarray1d(x)) if self.kind == "univariate" else len(x)
        jac = np.empty((n, theta.size, theta.size))
        for j in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            jac[:, :, j] = (self.score(tp, x) - self.score(tm, x)) / (2 * h)
        return jac

    def fisher_information(self, theta):
        raise NotImplementedError

    def mle(self, x):
        """Maximum likelihood estimate (all weights one)."""
        n = len(x) if not np.isscalar(x) else 1
        return self.weighted_fit(x, np.ones(n))

    def weighted_fit(self, x, w):
        """Solve sum_i w_i * u_theta(x_i) = 0 for frozen weights."""
        theta = self.weighted_fit_batch(x, np.asarray(w, dtype=float)[None, :])
        if np.any(np.isnan(theta)):
            raise DegenerateFitError("weighted fit is degenerate (weight "
                                     "mass, spread or design collapsed)")
        return theta[0]

    # Batched pieces of the fixed-point iteration: row b of `thetas` or of
    # the weights `w` belongs to the b-th start, and x is the whole sample.

    def cdf_batch(self, thetas, x):
        """(F, S) at x under each parameter row, each of shape (B, n)."""
        raise NotImplementedError

    def weighted_fit_batch(self, x, w):
        """weighted_fit for each row of a (B, n) weight batch, (B, dim).

        A row whose fit is degenerate comes back as NaN."""
        raise NotImplementedError

    def weighted_score_batch(self, thetas, x, w):
        """sum_i w_bi u_theta_b(x_i) for each row b, shape (B, dim)."""
        raise NotImplementedError


def _weight_sums(w):
    """Row sums of a weight batch, NaN where the total weight collapsed."""
    sw = w.sum(axis=1)
    return np.where(sw < _WEIGHT_SUM_FLOOR, np.nan, sw)


class Poisson(Family):
    name = "poisson"
    dim = 1
    param_names = ("theta",)
    kind = "univariate"
    discrete = True

    def check_params(self, theta):
        if not np.all(np.asarray(theta) > 0):
            raise DomainError("Poisson rate must be positive")

    def check_support(self, x):
        x = _asarray1d(x)
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise DomainError("Poisson observations must be nonnegative integers")

    def logpmf(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        x = _asarray1d(x)
        return x * np.log(lam) - lam - gammaln(x + 1)

    def pmf(self, theta, x):
        return np.exp(self.logpmf(theta, x))

    def score(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        x = _asarray1d(x)
        return (x / lam - 1.0)[:, None]

    def score_curvature(self, theta, x):
        """Second derivative of the score in the (scalar) parameter."""
        lam = float(np.asarray(theta).reshape(-1)[0])
        return 2.0 * _asarray1d(x) / lam**3

    def cdf_survival(self, theta, x):
        F, S = self.cdf_batch(np.reshape(theta, (1, -1)), _asarray1d(x))
        return F[0], S[0]

    def cdf_batch(self, thetas, x):
        # regularized incomplete gamma functions; the survival side is
        # computed directly, so extreme right tails keep their relative
        # accuracy
        lam = np.asarray(thetas, dtype=float)[:, 0:1]
        k = np.floor(x)
        F = pdtr(k, lam)
        S = np.where(k >= 1, pdtrc(np.maximum(k - 1.0, 0.0), lam), 1.0)
        return np.minimum(F, 1.0), np.minimum(S, 1.0)

    def fisher_information(self, theta):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return np.array([[1.0 / lam]])

    def weighted_fit(self, x, w):
        x = _asarray1d(x)
        w = np.asarray(w, dtype=float)
        sw = w.sum()
        if sw < _WEIGHT_SUM_FLOOR:
            raise DegenerateFitError("total weight collapsed")
        lam = float(w @ x / sw)
        if lam <= 0:
            raise DegenerateFitError("weighted mean of counts is zero")
        return np.array([lam])

    def weighted_fit_batch(self, x, w):
        lam = w @ x / _weight_sums(w)
        return np.where(lam > 0, lam, np.nan)[:, None]

    def weighted_score_batch(self, thetas, x, w):
        return ((w @ x) / thetas[:, 0] - w.sum(axis=1))[:, None]


class Normal(Family):
    """Univariate normal parametrized by (mu, sigma^2)."""

    name = "normal"
    dim = 2
    param_names = ("mu", "sigma2")
    kind = "univariate"

    def check_params(self, theta):
        if not np.asarray(theta)[1] > 0:
            raise DomainError("sigma^2 must be positive")

    def check_support(self, x):
        pass

    def pdf(self, theta, x):
        mu, s2 = theta
        z = (_asarray1d(x) - mu) / np.sqrt(s2)
        return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi * s2)

    def score(self, theta, x):
        mu, s2 = theta
        x = _asarray1d(x)
        d = x - mu
        return np.column_stack([d / s2, (d * d - s2) / (2 * s2 * s2)])

    def cdf_survival(self, theta, x):
        mu, s2 = theta
        z = (_asarray1d(x) - mu) / np.sqrt(s2)
        return ndtr(z), ndtr(-z)

    def cdf_gradient(self, theta, x):
        mu, s2 = theta
        sig = np.sqrt(s2)
        x = _asarray1d(x)
        z = (x - mu) / sig
        phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        # dF/dmu = -phi(z)/sigma, dF/dsigma2 = -z*phi(z)/(2 sigma^2)
        return np.column_stack([-phi / sig, -z * phi / (2 * s2)])

    def score_jacobian(self, theta, x):
        mu, s2 = theta
        x = _asarray1d(x)
        d = x - mu
        jac = np.empty((x.size, 2, 2))
        jac[:, 0, 0] = -1.0 / s2
        jac[:, 0, 1] = -d / s2**2
        jac[:, 1, 0] = -d / s2**2
        jac[:, 1, 1] = (s2 - 2 * d * d) / (2 * s2**3)
        return jac

    def fisher_information(self, theta):
        s2 = theta[1]
        return np.diag([1.0 / s2, 1.0 / (2 * s2 * s2)])

    def weighted_fit(self, x, w):
        x = _asarray1d(x)
        w = np.asarray(w, dtype=float)
        sw = w.sum()
        if sw < _WEIGHT_SUM_FLOOR:
            raise DegenerateFitError("total weight collapsed")
        mu = float(w @ x / sw)
        s2 = float(w @ (x - mu) ** 2 / sw)
        if s2 <= 0:
            raise DegenerateFitError("weighted variance is zero")
        return np.array([mu, s2])

    # --- batched paths used by the bootstrap root search ---

    def cdf_batch(self, thetas, x):
        z = (x[None, :] - thetas[:, 0:1]) / np.sqrt(thetas[:, 1:2])
        F = ndtr(z)
        return F, ndtr(-z)

    def weighted_fit_batch(self, x, w):
        sw = _weight_sums(w)
        mu = w @ x / sw
        s2 = (w * (x[None, :] - mu[:, None]) ** 2).sum(axis=1) / sw
        s2 = np.where(s2 <= 0, np.nan, s2)
        return np.column_stack([mu, s2])

    def weighted_score_batch(self, thetas, x, w):
        s2 = thetas[:, 1]
        d = x[None, :] - thetas[:, 0:1]
        wd = w * d
        return np.column_stack([
            wd.sum(axis=1) / s2,
            ((wd * d).sum(axis=1) - s2 * w.sum(axis=1)) / (2 * s2 * s2)])


class Exponential(Family):
    name = "exponential"
    dim = 1
    param_names = ("lam",)
    kind = "univariate"

    def check_params(self, theta):
        if not np.all(np.asarray(theta) > 0):
            raise DomainError("rate must be positive")

    def check_support(self, x):
        if np.any(_asarray1d(x) < 0):
            raise DomainError("exponential observations must be nonnegative")

    def pdf(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return lam * np.exp(-lam * _asarray1d(x))

    def score(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return (1.0 / lam - _asarray1d(x))[:, None]

    def score_curvature(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return np.full(_asarray1d(x).size, 2.0 / lam**3)

    def cdf_survival(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        S = np.exp(-lam * _asarray1d(x))
        return -np.expm1(-lam * _asarray1d(x)), S

    def cdf_gradient(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        x = _asarray1d(x)
        return (x * np.exp(-lam * x))[:, None]

    def score_jacobian(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        n = _asarray1d(x).size
        return np.full((n, 1, 1), -1.0 / lam**2)

    def fisher_information(self, theta):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return np.array([[1.0 / lam**2]])

    def weighted_fit(self, x, w):
        x = _asarray1d(x)
        w = np.asarray(w, dtype=float)
        sw = w.sum()
        if sw < _WEIGHT_SUM_FLOOR:
            raise DegenerateFitError("total weight collapsed")
        m = float(w @ x / sw)
        if m <= 0:
            raise DegenerateFitError("weighted mean is zero")
        return np.array([1.0 / m])

    def cdf_batch(self, thetas, x):
        lx = thetas[:, 0:1] * x[None, :]
        return -np.expm1(-lx), np.exp(-lx)

    def weighted_fit_batch(self, x, w):
        m = w @ x / _weight_sums(w)
        return np.where(m > 0, 1.0 / m, np.nan)[:, None]

    def weighted_score_batch(self, thetas, x, w):
        return (w.sum(axis=1) / thetas[:, 0] - w @ x)[:, None]


class NormalLocation(Family):
    """Normal location model with known unit variance, N(mu, 1)."""

    name = "normal_location"
    dim = 1
    param_names = ("mu",)
    kind = "univariate"

    def check_params(self, theta):
        pass

    def check_support(self, x):
        pass

    def pdf(self, theta, x):
        z = _asarray1d(x) - float(np.asarray(theta).reshape(-1)[0])
        return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)

    def score(self, theta, x):
        mu = float(np.asarray(theta).reshape(-1)[0])
        return (_asarray1d(x) - mu)[:, None]

    def score_curvature(self, theta, x):
        return np.zeros(_asarray1d(x).size)

    def cdf_survival(self, theta, x):
        z = _asarray1d(x) - float(np.asarray(theta).reshape(-1)[0])
        return ndtr(z), ndtr(-z)

    def cdf_gradient(self, theta, x):
        z = _asarray1d(x) - float(np.asarray(theta).reshape(-1)[0])
        return (-np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi))[:, None]

    def score_jacobian(self, theta, x):
        return np.full((_asarray1d(x).size, 1, 1), -1.0)

    def fisher_information(self, theta):
        return np.array([[1.0]])

    def weighted_fit(self, x, w):
        x = _asarray1d(x)
        w = np.asarray(w, dtype=float)
        sw = w.sum()
        if sw < _WEIGHT_SUM_FLOOR:
            raise DegenerateFitError("total weight collapsed")
        return np.array([float(w @ x / sw)])

    def cdf_batch(self, thetas, x):
        z = x[None, :] - thetas[:, 0:1]
        return ndtr(z), ndtr(-z)

    def weighted_fit_batch(self, x, w):
        return (w @ x / _weight_sums(w))[:, None]

    def weighted_score_batch(self, thetas, x, w):
        return (w @ x - thetas[:, 0] * w.sum(axis=1))[:, None]


class BivariateNormal(Family):
    """Bivariate normal parametrized by (mu1, mu2, sigma1^2, sigma2^2, rho)."""

    name = "bivariate_normal"
    dim = 5
    param_names = ("mu1", "mu2", "sigma1_sq", "sigma2_sq", "rho")
    kind = "bivariate"
    min_subsample = 3

    def check_params(self, theta):
        _, _, s1, s2, rho = theta
        if s1 <= 0 or s2 <= 0 or not abs(rho) < 1:
            raise DomainError("need sigma^2 > 0 and |rho| < 1")

    def check_support(self, x):
        pass

    def _standardize(self, theta, xy):
        mu1, mu2, s1, s2, rho = theta
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        z1 = (xy[:, 0] - mu1) / np.sqrt(s1)
        z2 = (xy[:, 1] - mu2) / np.sqrt(s2)
        return z1, z2, rho

    def score(self, theta, xy):
        mu1, mu2, s1, s2, rho = theta
        z1, z2, _ = self._standardize(theta, xy)
        r2 = 1 - rho * rho
        u = np.empty((z1.size, 5))
        u[:, 0] = (z1 - rho * z2) / (np.sqrt(s1) * r2)
        u[:, 1] = (z2 - rho * z1) / (np.sqrt(s2) * r2)
        u[:, 2] = (-1.0 + (z1 * z1 - rho * z1 * z2) / r2) / (2 * s1)
        u[:, 3] = (-1.0 + (z2 * z2 - rho * z1 * z2) / r2) / (2 * s2)
        u[:, 4] = (rho / r2
                   + (z1 * z2 * (1 + rho * rho) - rho * (z1**2 + z2**2)) / r2**2)
        return u

    def cdf_batch(self, thetas, xy):
        """Quadrant probabilities (ll, lg, gl, gg) at each point under each
        parameter row, a tuple of four (B, n) arrays."""
        t = np.asarray(thetas, dtype=float)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        z1 = (xy[:, 0] - t[:, 0:1]) / np.sqrt(t[:, 2:3])
        z2 = (xy[:, 1] - t[:, 1:2]) / np.sqrt(t[:, 3:4])
        return bvn_cdf(z1, z2, t[:, 4:5], quadrants=True)

    def quadrant_probabilities(self, theta, xy):
        """Model probabilities of the four quadrants at each point.

        Returns an (n, 4) array ordered (ll, lg, gl, gg)."""
        q = self.cdf_batch(np.reshape(theta, (1, -1)), xy)
        return np.column_stack([p[0] for p in q])

    def cdf_survival(self, theta, xy):
        q = self.cdf_batch(np.reshape(theta, (1, -1)), xy)
        return q[0][0], q[3][0]

    def fisher_information(self, theta):
        # Quadrature of u u^T against the density via Gauss-Hermite nodes.
        mu1, mu2, s1, s2, rho = theta
        nodes, wts = np.polynomial.hermite_e.hermegauss(80)
        Z1, Z2 = np.meshgrid(nodes, nodes, indexing="ij")
        W = np.outer(wts, wts) / (2 * np.pi)
        # map independent (Z1, Z2) to correlated coordinates
        x = mu1 + np.sqrt(s1) * Z1
        y = mu2 + np.sqrt(s2) * (rho * Z1 + np.sqrt(1 - rho**2) * Z2)
        u = self.score(theta, np.column_stack([x.ravel(), y.ravel()]))
        return (u[:, :, None] * u[:, None, :] * W.ravel()[:, None, None]).sum(axis=0)

    def weighted_fit_batch(self, xy, w):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        sw = _weight_sums(w)
        mu1, mu2 = w @ xy[:, 0] / sw, w @ xy[:, 1] / sw
        d1 = xy[:, 0] - mu1[:, None]
        d2 = xy[:, 1] - mu2[:, None]
        wd1 = w * d1
        s1 = (wd1 * d1).sum(axis=1) / sw
        s2 = (w * d2 * d2).sum(axis=1) / sw
        c = (wd1 * d2).sum(axis=1) / sw
        # weights collapsed onto about one point can leave s1, s2 > 0 with
        # a product that underflows to zero
        v = s1 * s2
        v = np.where((s1 <= 0) | (s2 <= 0) | (v <= 0), np.nan, v)
        rho = np.clip(c / np.sqrt(v), -0.9999, 0.9999)
        return np.column_stack([mu1, mu2, s1, s2, rho])

    def weighted_score_batch(self, thetas, xy, w):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        mu1, mu2, s1, s2, rho = thetas.T
        r1, r2 = np.sqrt(s1), np.sqrt(s2)
        z1 = (xy[:, 0] - mu1[:, None]) / r1[:, None]
        z2 = (xy[:, 1] - mu2[:, None]) / r2[:, None]
        wz1, wz2 = w * z1, w * z2
        sw = w.sum(axis=1)
        m1, m2 = wz1.sum(axis=1), wz2.sum(axis=1)
        m11, m22 = (wz1 * z1).sum(axis=1), (wz2 * z2).sum(axis=1)
        m12 = (wz1 * z2).sum(axis=1)
        q = 1 - rho * rho
        return np.column_stack([
            (m1 - rho * m2) / (r1 * q),
            (m2 - rho * m1) / (r2 * q),
            (-sw + (m11 - rho * m12) / q) / (2 * s1),
            (-sw + (m22 - rho * m12) / q) / (2 * s2),
            rho * sw / q + (m12 * (1 + rho * rho) - rho * (m11 + m22)) / q**2,
        ])


class NormalRegression(Family):
    """Homoscedastic normal linear regression, theta = (beta0, beta1, sigma).

    Observations are (x, y) records; the covariate is treated as fixed and
    only y carries randomness.
    """

    name = "normal_regression"
    dim = 3
    param_names = ("beta0", "beta1", "sigma")
    kind = "regression"
    min_subsample = 3

    def check_params(self, theta):
        if not theta[2] > 0:
            raise DomainError("sigma must be positive")

    def check_support(self, x):
        pass

    def residuals(self, theta, xy):
        """Standardized residuals (y - beta0 - beta1 x) / sigma.

        A (B, 3) parameter batch gives one (B, n) row per parameter."""
        t = np.asarray(theta, dtype=float)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        return (xy[:, 1] - t[..., 0:1] - t[..., 1:2] * xy[:, 0]) / t[..., 2:3]

    def score(self, theta, xy):
        b0, b1, sig = theta
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        e = xy[:, 1] - b0 - b1 * xy[:, 0]
        u = np.empty((len(xy), 3))
        u[:, 0] = e / sig**2
        u[:, 1] = e * xy[:, 0] / sig**2
        u[:, 2] = (e * e - sig**2) / sig**3
        return u

    def cdf_survival(self, theta, xy):
        z = self.residuals(theta, xy)
        return ndtr(z), ndtr(-z)

    def fisher_information(self, theta, x_design=None):
        """Average per-observation information for a fixed design."""
        if x_design is None:
            raise ValueError("regression information requires the covariates")
        x = np.asarray(x_design, dtype=float)
        sig = theta[2]
        info = np.zeros((3, 3))
        info[0, 0] = 1.0
        info[0, 1] = info[1, 0] = x.mean()
        info[1, 1] = (x * x).mean()
        info[2, 2] = 2.0
        return info / sig**2

    def weighted_fit_batch(self, xy, w):
        # weighted least squares on the centred covariate: the 2x2 normal
        # equations have determinant sw * sxx and solve in closed form
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        x, y = xy[:, 0], xy[:, 1]
        sw = _weight_sums(w)
        mx, my = w @ x / sw, w @ y / sw
        dx = x - mx[:, None]
        wdx = w * dx
        sxx = (wdx * dx).sum(axis=1)
        singular = sw * sxx < 1e-12 * np.maximum(1.0, sw * sw)
        sxx = np.where(singular, np.nan, sxx)
        b1 = (wdx * (y - my[:, None])).sum(axis=1) / sxx
        b0 = my - b1 * mx
        e = y - b0[:, None] - b1[:, None] * x
        s2 = (w * e * e).sum(axis=1) / sw
        s2 = np.where(s2 <= 0, np.nan, s2)
        return np.column_stack([b0, b1, np.sqrt(s2)])

    def weighted_score_batch(self, thetas, xy, w):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        sig2 = thetas[:, 2] ** 2
        e = xy[:, 1] - thetas[:, 0:1] - thetas[:, 1:2] * xy[:, 0]
        we = w * e
        return np.column_stack([
            we.sum(axis=1) / sig2,
            (we @ xy[:, 0]) / sig2,
            ((we * e).sum(axis=1) - sig2 * w.sum(axis=1)) / (sig2 * thetas[:, 2]),
        ])


FAMILIES = {
    f.name: f
    for f in (Poisson(), Normal(), Exponential(), NormalLocation(),
              BivariateNormal(), NormalRegression())
}


def get_family(name):
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")


def concentration_ellipse(theta, coverage=0.95):
    """Concentration ellipse of a fitted bivariate normal.

    Returns (center, semi_axes, angle): the set of points at squared
    Mahalanobis distance chi2_2(coverage) from the mean. `angle` is the
    orientation of the major axis in radians.
    """
    if not 0 < coverage < 1:
        raise ValueError("coverage must be in (0, 1)")
    mu1, mu2, s1, s2, rho = theta
    cov = np.array([[s1, rho * np.sqrt(s1 * s2)],
                    [rho * np.sqrt(s1 * s2), s2]])
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise DomainError("covariance matrix is not positive definite")
    r2 = chi2.ppf(coverage, df=2)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    angle = float(np.arctan2(vecs[1, 0], vecs[0, 0]))
    return (np.array([mu1, mu2]), np.sqrt(vals * r2), angle)


def ellipse_polyline(theta, coverage=0.95, num=200):
    """Sample points on the concentration ellipse for plotting/CSV export."""
    center, axes, angle = concentration_ellipse(theta, coverage)
    t = np.linspace(0, 2 * np.pi, num)
    pts = np.column_stack([axes[0] * np.cos(t), axes[1] * np.sin(t)])
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return pts @ rot.T + center
