"""Parametric families exposing the quantities the estimating equation needs.

Each family provides the log-density score, one distribution-and-survival
function `cdf_survival` and a closed-form weighted fit (the inner step of
the reweighting iteration); the univariate families add the Fisher
information, and the continuous ones the parameter gradients, that the
influence analysis needs.
The score, `cdf_survival`, the weighted fit and the weighted score take
a batch of parameters or weights, with one row per start of a root search.
Five families are supported: Poisson, univariate normal, exponential,
bivariate normal and normal linear regression. The normal, the normal
location and the regression families share `NormalErrors`: each
observation has one standardized residual z, with F = ndtr(z).
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
TAIL_MASS = 1e-13  # integration_range leaves less than this in each tail


def _asarray1d(x):
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a[None]
    return a


class Family:
    """Base class; subclasses fill in the analytic pieces."""

    name = ""
    kind = "univariate"  # univariate | bivariate | regression
    discrete = False
    min_subsample = 2    # smallest subsample that identifies the parameters

    def check_params(self, theta):
        """Raise DomainError for a parameter outside the parameter space,
        which by default is every real vector."""

    def check_support(self, x):
        """Raise DomainError for observations outside the support, which
        by default is every real value."""

    def score(self, theta, x):
        """Gradient of the log-density at each observation.

        A (dim,) theta gives (n, dim); a (B, dim) batch gives (B, n, dim)
        whose row b is the score under parameter row b."""
        raise NotImplementedError

    def cdf_survival(self, theta, x):
        """(F_theta(x), S_theta(x)); S uses the `X >= x` convention.

        A (dim,) theta gives two (n,) arrays; a (B, dim) batch gives two
        (B, n) arrays whose row b is the value under parameter row b."""
        raise NotImplementedError

    def fisher_information(self, theta):
        raise NotImplementedError

    def integration_range(self, theta):
        """(a, b) leaving less than TAIL_MASS of the model in each tail."""
        raise NotImplementedError(f"no integration range for {self.name}")

    def median(self, theta):
        """The F_theta = 1/2 split point between the two tail regions."""
        raise NotImplementedError(f"no median for {self.name}")

    def mle(self, x):
        """Maximum likelihood estimate (all weights one)."""
        x = _asarray1d(x)
        return self.weighted_fit(x, np.ones(len(x)))

    def weighted_fit(self, x, w):
        """Solve sum_i w_i * u_theta(x_i) = 0 for frozen weights.

        The batch of one; a degenerate or non-finite fit raises."""
        theta = self.weighted_fit_batch(_asarray1d(x),
                                        np.asarray(w, dtype=float)[None, :])
        if not np.all(np.isfinite(theta)):
            raise DegenerateFitError("weighted fit is degenerate (weight "
                                     "mass, spread or design collapsed)")
        return theta[0]

    # Batched pieces of the fixed-point iteration: row b of `thetas` or of
    # the weights `w` belongs to the b-th start, and x is the whole sample.

    def weighted_fit_batch(self, x, w):
        """weighted_fit for each row of a (B, n) weight batch, (B, dim).

        A row whose fit is degenerate comes back as NaN, one that
        overflows as NaN or inf."""
        raise NotImplementedError

    def weighted_score_batch(self, thetas, x, w):
        """sum_i w_bi u_theta_b(x_i) for each row b, shape (B, dim).

        A point of weight zero stays out of the sum even when its score
        overflows (0 * inf = NaN); only rows that come back non-finite pay
        for the mask."""
        with np.errstate(over="ignore", invalid="ignore"):
            u = self.score(thetas, x)
            r = np.matmul(w[:, None, :], u)[:, 0]
            for b in np.flatnonzero(~np.all(np.isfinite(r), axis=1)):
                r[b] = w[b] @ np.where(w[b, :, None] > 0, u[b], 0.0)
        return r


class NormalErrors(Family):
    """A family whose model tails are those of one standardized residual.

    `residuals` gives z(theta, x), and F = ndtr(z), S = ndtr(-z)."""

    def residuals(self, theta, x):
        """Standardized residuals; a (B, dim) batch gives (B, n) rows."""
        raise NotImplementedError

    def cdf_survival(self, theta, x):
        z = self.residuals(theta, x)
        return ndtr(z), ndtr(-z)


def _weight_sums(w):
    """Row sums of a weight batch, NaN where the total weight collapsed."""
    sw = w.sum(axis=1)
    return np.where(sw < _WEIGHT_SUM_FLOOR, np.nan, sw)


class Poisson(Family):
    name = "poisson"
    discrete = True

    def check_params(self, theta):
        if not np.all(np.asarray(theta) > 0):
            raise DomainError("Poisson rate must be positive")

    def check_support(self, x):
        x = _asarray1d(x)
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise DomainError("Poisson observations must be nonnegative integers")

    def pmf(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        x = _asarray1d(x)
        return np.exp(x * np.log(lam) - lam - gammaln(x + 1))

    def score(self, theta, x):
        lam = np.asarray(theta, dtype=float)[..., 0:1]
        return (_asarray1d(x) / lam - 1.0)[..., None]

    def cdf_survival(self, theta, x):
        # regularized incomplete gamma functions; the survival side is
        # computed directly, so extreme right tails keep their relative
        # accuracy
        lam = np.asarray(theta, dtype=float)[..., 0:1]
        k = np.floor(_asarray1d(x))
        F = pdtr(k, lam)
        S = np.where(k >= 1, pdtrc(np.maximum(k - 1.0, 0.0), lam), 1.0)
        return np.minimum(F, 1.0), np.minimum(S, 1.0)

    def fisher_information(self, theta):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return np.array([[1.0 / lam]])

    def integration_range(self, theta):
        # the summation grid is the integers in this range
        lam = float(np.asarray(theta).reshape(-1)[0])
        return 0.0, float(int(lam + 12 * np.sqrt(lam) + 30))

    def weighted_fit_batch(self, x, w):
        lam = w @ x / _weight_sums(w)
        return np.where(lam > 0, lam, np.nan)[:, None]


class Normal(NormalErrors):
    """Univariate normal parametrized by (mu, sigma^2)."""

    name = "normal"

    def check_params(self, theta):
        if not np.asarray(theta)[1] > 0:
            raise DomainError("sigma^2 must be positive")

    def pdf(self, theta, x):
        z = self.residuals(theta, x)
        return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi * theta[1])

    def score(self, theta, x):
        t = np.asarray(theta, dtype=float)
        s2 = t[..., 1:2]
        d = _asarray1d(x) - t[..., 0:1]
        return np.stack([d / s2, (d * d - s2) / (2 * s2 * s2)], axis=-1)

    def residuals(self, theta, x):
        t = np.asarray(theta, dtype=float)
        return (_asarray1d(x) - t[..., 0:1]) / np.sqrt(t[..., 1:2])

    def cdf_gradient(self, theta, x):
        s2 = theta[1]
        z = self.residuals(theta, x)
        phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        # dF/dmu = -phi(z)/sigma, dF/dsigma2 = -z*phi(z)/(2 sigma^2)
        return np.column_stack([-phi / np.sqrt(s2), -z * phi / (2 * s2)])

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

    def integration_range(self, theta):
        mu, sd = theta[0], np.sqrt(theta[1])
        return mu - 10 * sd, mu + 10 * sd

    def median(self, theta):
        return float(theta[0])

    def weighted_fit_batch(self, x, w):
        sw = _weight_sums(w)
        mu = w @ x / sw
        with np.errstate(over="ignore", invalid="ignore"):
            t = w * (x[None, :] - mu[:, None]) ** 2
        s2 = t.sum(axis=1) / sw
        # a point of weight zero stays out of the variance even when its
        # squared deviation overflows (0 * inf = NaN); a row that
        # overflows comes back inf. Only such rows pay for the mask.
        nan = np.isnan(s2)
        if nan.any():
            s2[nan] = np.where(w[nan] > 0, t[nan], 0.0).sum(axis=1) / sw[nan]
        s2 = np.where(s2 <= 0, np.nan, s2)
        return np.column_stack([mu, s2])


class Exponential(Family):
    name = "exponential"

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
        lam = np.asarray(theta, dtype=float)[..., 0:1]
        return (1.0 / lam - _asarray1d(x))[..., None]

    def score_curvature(self, theta, x):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return np.full(_asarray1d(x).size, 2.0 / lam**3)

    def cdf_survival(self, theta, x):
        lx = np.asarray(theta, dtype=float)[..., 0:1] * _asarray1d(x)
        return -np.expm1(-lx), np.exp(-lx)

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

    def integration_range(self, theta):
        lam = float(np.asarray(theta).reshape(-1)[0])
        return 0.0, -np.log(TAIL_MASS) / lam

    def median(self, theta):
        return float(np.log(2.0) / np.asarray(theta).reshape(-1)[0])

    def weighted_fit_batch(self, x, w):
        m = w @ x / _weight_sums(w)
        return np.where(m > 0, 1.0 / m, np.nan)[:, None]


class NormalLocation(NormalErrors):
    """Normal location model with known unit variance, N(mu, 1)."""

    name = "normal_location"

    def pdf(self, theta, x):
        z = self.residuals(theta, x)
        return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)

    def score(self, theta, x):
        mu = np.asarray(theta, dtype=float)[..., 0:1]
        return (_asarray1d(x) - mu)[..., None]

    def score_curvature(self, theta, x):
        return np.zeros(_asarray1d(x).size)

    def residuals(self, theta, x):
        return _asarray1d(x) - np.asarray(theta, dtype=float)[..., 0:1]

    def cdf_gradient(self, theta, x):
        return -self.pdf(theta, x)[:, None]

    def score_jacobian(self, theta, x):
        return np.full((_asarray1d(x).size, 1, 1), -1.0)

    def fisher_information(self, theta):
        return np.array([[1.0]])

    def integration_range(self, theta):
        mu = float(np.asarray(theta).reshape(-1)[0])
        return mu - 10.0, mu + 10.0

    def median(self, theta):
        return float(np.asarray(theta).reshape(-1)[0])

    def weighted_fit_batch(self, x, w):
        return (w @ x / _weight_sums(w))[:, None]


class BivariateNormal(Family):
    """Bivariate normal parametrized by (mu1, mu2, sigma1^2, sigma2^2, rho)."""

    name = "bivariate_normal"
    kind = "bivariate"
    min_subsample = 3

    def check_params(self, theta):
        _, _, s1, s2, rho = theta
        if s1 <= 0 or s2 <= 0 or not abs(rho) < 1:
            raise DomainError("need sigma^2 > 0 and |rho| < 1")

    def _standardize(self, theta, xy):
        """Standardized coordinates (z1, z2) and rho; a (B, 5) batch gives
        (B, n) rows."""
        t = np.asarray(theta, dtype=float)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        z1 = (xy[:, 0] - t[..., 0:1]) / np.sqrt(t[..., 2:3])
        z2 = (xy[:, 1] - t[..., 1:2]) / np.sqrt(t[..., 3:4])
        return z1, z2, t[..., 4:5]

    def score(self, theta, xy):
        t = np.asarray(theta, dtype=float)
        s1, s2 = t[..., 2:3], t[..., 3:4]
        z1, z2, rho = self._standardize(t, xy)
        r2 = 1 - rho * rho
        return np.stack([
            (z1 - rho * z2) / (np.sqrt(s1) * r2),
            (z2 - rho * z1) / (np.sqrt(s2) * r2),
            (-1.0 + (z1 * z1 - rho * z1 * z2) / r2) / (2 * s1),
            (-1.0 + (z2 * z2 - rho * z1 * z2) / r2) / (2 * s2),
            (rho / r2
             + (z1 * z2 * (1 + rho * rho) - rho * (z1**2 + z2**2)) / r2**2),
        ], axis=-1)

    def quadrant_probabilities(self, theta, xy):
        """Quadrant probabilities (ll, lg, gl, gg) at each point, a tuple of
        four (n,) arrays, or of four (B, n) arrays for a (B, 5) batch."""
        # a huge finite outlier standardizes to +-inf, and its quadrant
        # probability to 0: its residual is inf and its weight 0
        with np.errstate(over="ignore"):
            z1, z2, rho = self._standardize(theta, xy)
            return bvn_cdf(z1, z2, rho, quadrants=True)

    def weighted_fit_batch(self, xy, w):
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        sw = _weight_sums(w)
        mu1, mu2 = w @ xy[:, 0] / sw, w @ xy[:, 1] / sw
        d1 = xy[:, 0] - mu1[:, None]
        d2 = xy[:, 1] - mu2[:, None]
        # a row whose moments overflow comes back non-finite and is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            wd1 = w * d1
            s1 = (wd1 * d1).sum(axis=1) / sw
            s2 = (w * d2 * d2).sum(axis=1) / sw
            c = (wd1 * d2).sum(axis=1) / sw
            # weights collapsed onto about one point can leave s1, s2 > 0
            # with a product that underflows to zero
            v = s1 * s2
            v = np.where((s1 <= 0) | (s2 <= 0) | (v <= 0), np.nan, v)
            rho = np.clip(c / np.sqrt(v), -0.9999, 0.9999)
        return np.column_stack([mu1, mu2, s1, s2, rho])


class NormalRegression(NormalErrors):
    """Homoscedastic normal linear regression, theta = (beta0, beta1, sigma).

    Observations are (x, y) records; the covariate is treated as fixed and
    only y carries randomness.
    """

    name = "normal_regression"
    kind = "regression"
    min_subsample = 3

    def check_params(self, theta):
        if not theta[2] > 0:
            raise DomainError("sigma must be positive")

    def residuals(self, theta, xy):
        """(y - beta0 - beta1 x) / sigma; a (B, 3) batch gives (B, n) rows."""
        t = np.asarray(theta, dtype=float)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        with np.errstate(over="ignore"):
            return ((xy[:, 1] - t[..., 0:1] - t[..., 1:2] * xy[:, 0])
                    / t[..., 2:3])

    def score(self, theta, xy):
        t = np.asarray(theta, dtype=float)
        x, y = np.asarray(xy, dtype=float).reshape(-1, 2).T
        sig = t[..., 2:3]
        e = y - t[..., 0:1] - t[..., 1:2] * x
        return np.stack([e / sig**2, e * x / sig**2,
                         (e * e - sig**2) / sig**3], axis=-1)

    def weighted_fit_batch(self, xy, w):
        # weighted least squares on the centred covariate: the 2x2 normal
        # equations have determinant sw * sxx and solve in closed form
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        x, y = xy[:, 0], xy[:, 1]
        sw = _weight_sums(w)
        mx, my = w @ x / sw, w @ y / sw
        dx = x - mx[:, None]
        wdx = w * dx
        # a huge covariate overflows sxx to inf: such a row is singular too
        with np.errstate(over="ignore"):
            sxx = (wdx * dx).sum(axis=1)
        singular = ((sw * sxx < 1e-12 * np.maximum(1.0, sw * sw))
                    | np.isinf(sxx))
        sxx = np.where(singular, np.nan, sxx)
        b1 = (wdx * (y - my[:, None])).sum(axis=1) / sxx
        b0 = my - b1 * mx
        e = y - b0[:, None] - b1[:, None] * x
        # a row whose variance overflows comes back inf and is dropped
        with np.errstate(over="ignore"):
            s2 = (w * e * e).sum(axis=1) / sw
        s2 = np.where(s2 <= 0, np.nan, s2)
        return np.column_stack([b0, b1, np.sqrt(s2)])


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
