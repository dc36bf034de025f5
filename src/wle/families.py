"""Parametric families exposing the quantities the estimating equation needs.

Each family provides the log-density score, one distribution-and-survival
function `cdf_survival`, its residual `residual` of the sample-point values
of its `empirical` functions, and a closed-form weighted fit (the inner
step of the reweighting iteration); the univariate families add the Fisher
information, and the continuous scalar-parameter ones the parameter
gradients, that the influence analysis needs. The score,
`cdf_survival`, the residual, the weighted fit and the weighted score
take a batch of parameters or weights, with one row per start of a root
search.
Five families are supported: Poisson, univariate normal, exponential,
bivariate normal and normal linear regression. The normal, the normal
location and the regression families share `NormalErrors`: each
observation has one standardized residual z, with F = ndtr(z).
"""

import numpy as np
from scipy.special import gammaln, ndtr, pdtr, pdtrc

from .bvn import bvn_cdf
from .residuals import (EmpiricalFunctions, _branch_tau, _normal_tau,
                        _rank_functions, _tail_ratio)


class DomainError(ValueError):
    """Observation outside the support or parameter outside its space."""


class DegenerateFitError(ValueError):
    """Weighted fit is not identifiable (weight mass or spread collapsed)."""


_WEIGHT_SUM_FLOOR = 1e-12
TAIL_MASS = 1e-13  # integration_range leaves less than this in each tail


class Family:
    """Base class; subclasses fill in the analytic pieces.

    Two gates take outside input: `check_data` returns the sample as a
    float array of shape (n, *obs_shape), and `check_params` returns theta
    as a float vector of shape (n_params,). Every other method reads x as
    `check_data` returns it and theta as a float array of shape (dim,) or
    (B, dim), and converts neither again."""

    name = ""
    kind = "univariate"  # univariate | bivariate | regression
    discrete = False
    min_subsample = 2    # smallest subsample that identifies the parameters
    obs_shape = ()       # shape of one observation
    n_params = 1         # length of theta
    positive = ()        # coordinates of theta that must be > 0

    def in_space(self, thetas):
        """Which rows of a (B, dim) batch lie in the parameter space: finite,
        with the `positive` coordinates > 0."""
        ok = np.logical_and.reduce(np.isfinite(thetas), axis=1)
        for j in self.positive:
            ok &= thetas[:, j] > 0
        return ok

    def check_params(self, theta):
        """theta as a float vector; raise DomainError for a parameter that
        is not a vector of `n_params` values or lies outside the parameter
        space."""
        if np.shape(theta) != (self.n_params,):
            raise DomainError(f"{self.name} parameter {theta} must be a "
                              f"vector of length {self.n_params}")
        theta = np.asarray(theta, dtype=float)
        if not self.in_space(theta[None, :])[0]:
            raise DomainError(f"{self.name} parameter {theta} lies outside "
                              "the parameter space")
        return theta

    def check_support(self, x):
        """Raise DomainError for observations outside the support, which
        by default is every real value."""

    def check_data(self, x):
        """x as floats; raise DomainError for observations not of
        `obs_shape`, an empty sample, non-finite observations and ones
        outside the support, in that order."""
        x = np.asarray(x, dtype=float)
        if x.ndim < 1 or x.shape[1:] != self.obs_shape:
            want = "".join(f" {d}" for d in self.obs_shape)
            raise DomainError(f"{self.name} data must have shape (n,{want}),"
                              f" not {x.shape}")
        if not len(x):
            raise DomainError(f"{self.name} data are empty: shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DomainError("observations must be finite")
        self.check_support(x)
        return x

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

    def empirical(self, x):
        """The sample's empirical functions in this family's convention."""
        return EmpiricalFunctions(x, self.discrete)

    def residual(self, thetas, x, values, p):
        """(B, n) residuals under a (B, dim) batch from the sample-point
        `values` (F_n, S_n) and tail fraction p, by `tau_branch`, under
        the caller's float-error scope, like every residual."""
        return _branch_tau(*values, *self.cdf_survival(thetas, x), p)

    def fisher_information(self, theta):
        raise NotImplementedError

    def integration_range(self, theta):
        """(a, b) leaving less than TAIL_MASS of the model in each tail."""
        raise NotImplementedError(f"no integration range for {self.name}")

    def median(self, theta):
        """The F_theta = 1/2 split point between the two tail regions."""
        raise NotImplementedError(f"no median for {self.name}")

    def mle(self, x):
        """Maximum likelihood estimate (all weights one) of checked data."""
        x = self.check_data(x)
        return self.weighted_fit(x, np.ones(len(x)))

    def weighted_fit(self, x, w):
        """Solve sum_i w_i * u_theta(x_i) = 0 for frozen weights.

        The batch of one; data that fail `check_data` and a degenerate or
        non-finite fit raise."""
        x = self.check_data(x)
        theta = self.weighted_fit_batch(x, np.asarray(w, dtype=float)[None, :])
        if not np.all(np.isfinite(theta)):
            raise DegenerateFitError("weighted fit is degenerate (weight "
                                     "mass, spread or design collapsed)")
        return theta[0]

    # Batched pieces of the fixed-point iteration: row b of `thetas` or of
    # the weights `w` belongs to the b-th start, and x is the whole sample.
    # Each is silent, running its `_rows` body in np.errstate; the solver's
    # loop calls the bodies inside its one scope.

    def weighted_fit_batch(self, x, w):
        """weighted_fit for each row of a (B, n) weight batch, (B, dim).

        A row whose fit is degenerate comes back as NaN, one that
        overflows as NaN or inf."""
        with np.errstate(all="ignore"):
            return self.fit_rows(x, w)

    def fit_rows(self, x, w):  # weighted_fit_batch, in the caller's scope
        raise NotImplementedError

    def weighted_score_batch(self, thetas, x, w):
        """sum_i w_bi u_theta_b(x_i) for each row b, shape (B, dim)."""
        with np.errstate(all="ignore"):
            return self.score_rows(thetas, x, w)

    def score_rows(self, thetas, x, w):
        """`weighted_score_batch` under the caller's float-error scope.

        A point of weight zero stays out of the sum even when its score
        overflows (0 * inf = NaN); only rows that come back non-finite pay
        for the mask."""
        u = self.score(thetas, x)
        r = np.matmul(w[:, None, :], u)[:, 0]
        for b in (~np.logical_and.reduce(np.isfinite(r), axis=1)).nonzero()[0]:
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

    def residual(self, thetas, x, values, p):
        # a huge outlier over a tiny scale standardizes to +-inf: its
        # model tail is 0 and its weight 0
        return _normal_tau(*values, self.residuals(thetas, x), p)


def _weight_sums(w):
    """Row sums of a weight batch, NaN where the total weight collapsed."""
    sw = np.add.reduce(w, axis=1)
    return np.where(sw < _WEIGHT_SUM_FLOOR, np.nan, sw)


class Poisson(Family):
    name = "poisson"
    discrete = True
    positive = (0,)

    def check_support(self, x):
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise DomainError("Poisson observations must be nonnegative integers")

    def pmf(self, theta, x):
        lam = theta[0]
        return np.exp(x * np.log(lam) - lam - gammaln(x + 1))

    def score(self, theta, x):
        return (x / theta[..., 0:1] - 1.0)[..., None]

    def cdf_survival(self, theta, x):
        # regularized incomplete gamma functions; the survival side is
        # computed directly, so extreme right tails keep their relative
        # accuracy
        lam = theta[..., 0:1]
        k = np.floor(x)
        F = pdtr(k, lam)
        S = np.where(k >= 1, pdtrc(np.maximum(k - 1.0, 0.0), lam), 1.0)
        return np.minimum(F, 1.0), np.minimum(S, 1.0)

    def fisher_information(self, theta):
        return np.array([[1.0 / theta[0]]])

    def integration_range(self, theta):
        # the summation grid is the integers in this range
        lam = theta[0]
        return 0.0, float(int(lam + 12 * np.sqrt(lam) + 30))

    def fit_rows(self, x, w):
        lam = w @ x / _weight_sums(w)
        return np.where(lam > 0, lam, np.nan)[:, None]


class Normal(NormalErrors):
    """Univariate normal parametrized by (mu, sigma^2)."""

    name = "normal"
    n_params = 2
    positive = (1,)

    def pdf(self, theta, x):
        z = self.residuals(theta, x)
        with np.errstate(over="ignore"):  # z * z = inf has density 0
            return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi * theta[1])

    def score(self, theta, x):
        s2 = theta[..., 1:2]
        d = x - theta[..., 0:1]
        u = np.empty((*d.shape, 2))
        np.divide(d, s2, out=u[..., 0])
        np.divide(d * d - s2, 2 * s2 * s2, out=u[..., 1])
        return u

    def residuals(self, theta, x):
        return (x - theta[..., 0:1]) / np.sqrt(theta[..., 1:2])

    def fisher_information(self, theta):
        s2 = theta[1]
        return np.diag([1.0 / s2, 1.0 / (2 * s2 * s2)])

    def integration_range(self, theta):
        mu, sd = theta[0], np.sqrt(theta[1])
        return mu - 10 * sd, mu + 10 * sd

    def median(self, theta):
        return float(theta[0])

    def fit_rows(self, x, w):
        sw, out = _weight_sums(w), np.empty((len(w), 2))
        mu = np.divide(w @ x, sw, out=out[:, 0])
        t = w * (x[None, :] - mu[:, None]) ** 2
        s2 = np.add.reduce(t, axis=1) / sw
        # a point of weight zero stays out of the variance even when its
        # squared deviation overflows (0 * inf = NaN); a row that
        # overflows comes back inf. Only such rows pay for the mask.
        nan = np.isnan(s2)
        if np.logical_or.reduce(nan):
            s2[nan] = np.where(w[nan] > 0, t[nan], 0.0).sum(axis=1) / sw[nan]
        out[:, 1] = np.where(s2 <= 0, np.nan, s2)
        return out


class Exponential(Family):
    name = "exponential"
    positive = (0,)

    def check_support(self, x):
        if np.any(x < 0):
            raise DomainError("exponential observations must be nonnegative")

    def pdf(self, theta, x):
        return theta[0] * np.exp(-theta[0] * x)

    def score(self, theta, x):
        return (1.0 / theta[..., 0:1] - x)[..., None]

    def score_curvature(self, theta, x):
        return np.full(x.shape, 2.0 / theta[0]**3)

    def cdf_survival(self, theta, x):
        lx = theta[..., 0:1] * x
        return -np.expm1(-lx), np.exp(-lx)

    def cdf_gradient(self, theta, x):
        return (x * np.exp(-theta[0] * x))[:, None]

    def score_jacobian(self, theta, x):
        return np.full((len(x), 1, 1), -1.0 / theta[0]**2)

    def fisher_information(self, theta):
        return np.array([[1.0 / theta[0]**2]])

    def integration_range(self, theta):
        return 0.0, -np.log(TAIL_MASS) / theta[0]

    def median(self, theta):
        return float(np.log(2.0) / theta[0])

    def fit_rows(self, x, w):
        m = w @ x / _weight_sums(w)  # a zero mean is a NaN row
        return np.where(m > 0, 1.0 / m, np.nan)[:, None]


class NormalLocation(NormalErrors):
    """Normal location model with known unit variance, N(mu, 1)."""

    name = "normal_location"

    def pdf(self, theta, x):
        z = self.residuals(theta, x)
        with np.errstate(over="ignore"):  # z * z = inf has density 0
            return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)

    def score(self, theta, x):
        return (x - theta[..., 0:1])[..., None]

    def score_curvature(self, theta, x):
        return np.zeros(x.shape)

    def residuals(self, theta, x):
        return x - theta[..., 0:1]

    def cdf_gradient(self, theta, x):
        return -self.pdf(theta, x)[:, None]

    def score_jacobian(self, theta, x):
        return np.full((len(x), 1, 1), -1.0)

    def fisher_information(self, theta):
        return np.array([[1.0]])

    def integration_range(self, theta):
        return theta[0] - 10.0, theta[0] + 10.0

    def median(self, theta):
        return float(theta[0])

    def fit_rows(self, x, w):
        return (w @ x / _weight_sums(w))[:, None]


class BivariateNormal(Family):
    """Bivariate normal parametrized by (mu1, mu2, sigma1^2, sigma2^2, rho)."""

    name = "bivariate_normal"
    kind = "bivariate"
    min_subsample = 3
    obs_shape = (2,)
    n_params = 5
    positive = (2, 3)

    def in_space(self, thetas):
        return super().in_space(thetas) & (np.abs(thetas[:, 4]) < 1)

    def _standardize(self, theta, xy):
        """Standardized coordinates (z1, z2) and rho; a (B, 5) batch gives
        (B, n) rows."""
        z1 = (xy[:, 0] - theta[..., 0:1]) / np.sqrt(theta[..., 2:3])
        z2 = (xy[:, 1] - theta[..., 1:2]) / np.sqrt(theta[..., 3:4])
        return z1, z2, theta[..., 4:5]

    def score(self, theta, xy):
        s1, s2 = theta[..., 2:3], theta[..., 3:4]
        z1, z2, rho = self._standardize(theta, xy)
        r2 = 1 - rho * rho
        z11, z22, rz12 = z1 * z1, z2 * z2, rho * z1 * z2
        u = np.empty((*z1.shape, 5))
        np.divide(z1 - rho * z2, np.sqrt(s1) * r2, out=u[..., 0])
        np.divide(z2 - rho * z1, np.sqrt(s2) * r2, out=u[..., 1])
        np.divide(-1.0 + (z11 - rz12) / r2, 2 * s1, out=u[..., 2])
        np.divide(-1.0 + (z22 - rz12) / r2, 2 * s2, out=u[..., 3])
        np.add(rho / r2, (z1 * z2 * (1 + rho * rho) - rho * (z11 + z22))
               / r2**2, out=u[..., 4])
        return u

    def quadrant_probabilities(self, theta, xy):
        """Quadrant probabilities (ll, lg, gl, gg) at each point, a tuple of
        four (n,) arrays, or of four (B, n) arrays for a (B, 5) batch."""
        # a huge finite outlier standardizes to +-inf, and its quadrant
        # probability to 0: its residual is inf and its weight 0
        with np.errstate(over="ignore"):
            z1, z2, rho = self._standardize(theta, xy)
            return bvn_cdf(z1, z2, rho)

    def residual(self, thetas, xy, values, p):
        """Residual from the quadrant with the smallest model probability
        against the (n, 4) quadrant masses `values`; ties go to the first
        of ll, lg, gl, gg, and NaN probabilities, always all four, give
        +inf. There is no tail fraction, so p must be 1/2."""
        if p != 0.5:
            raise ValueError(f"p = {p}: the bivariate quadrant residual has "
                             "no tail fraction, so p must be 0.5")
        q = self.quadrant_probabilities(thetas, xy)
        pm, emp = q[0], values[:, 0]
        for j in (1, 2, 3):  # a running minimum keeps the first of a tie
            take = q[j] < pm
            pm = np.where(take, q[j], pm)
            emp = np.where(take, values[:, j], emp)
        return _tail_ratio(emp, pm)

    def fit_rows(self, xy, w):
        sw, out = _weight_sums(w), np.empty((len(w), 5))
        mu1, mu2, s1, s2, rho = out.T
        np.divide(w @ xy[:, 0], sw, out=mu1)
        np.divide(w @ xy[:, 1], sw, out=mu2)
        d1 = xy[:, 0] - mu1[:, None]
        d2 = xy[:, 1] - mu2[:, None]
        # a row whose moments overflow comes back non-finite and is dropped
        wd1 = w * d1
        np.divide(np.add.reduce(wd1 * d1, axis=1), sw, out=s1)
        np.divide(np.add.reduce(w * d2 * d2, axis=1), sw, out=s2)
        c = np.add.reduce(wd1 * d2, axis=1) / sw
        # weights collapsed onto about one point can leave s1, s2 > 0
        # with a product that underflows to zero
        v = s1 * s2
        v = np.where((s1 <= 0) | (s2 <= 0) | (v <= 0), np.nan, v)
        np.clip(c / np.sqrt(v), -0.9999, 0.9999, out=rho)
        return out


class NormalRegression(NormalErrors):
    """Homoscedastic normal linear regression, theta = (beta0, beta1, sigma).

    Observations are (x, y) records; the covariate is treated as fixed and
    only y carries randomness.
    """

    name = "normal_regression"
    kind = "regression"
    min_subsample = 3
    obs_shape = (2,)
    n_params = 3
    positive = (2,)

    def residuals(self, theta, xy):
        """(y - beta0 - beta1 x) / sigma; a (B, 3) batch gives (B, n) rows."""
        with np.errstate(over="ignore"):
            return ((xy[:, 1] - theta[..., 0:1] - theta[..., 1:2] * xy[:, 0])
                    / theta[..., 2:3])

    def empirical(self, xy):
        return None  # each row ranks its own residuals

    def residual(self, thetas, xy, values, p):
        z = self.residuals(thetas, xy)
        Fn, Sn = _rank_functions(np.argsort(z, axis=-1, kind="stable"))
        return _normal_tau(Fn, Sn, z, p)

    def score(self, theta, xy):
        x, y = xy[:, 0], xy[:, 1]
        sig = theta[..., 2:3]
        e = y - theta[..., 0:1] - theta[..., 1:2] * x
        return np.stack([e / sig**2, e * x / sig**2,
                         (e * e - sig**2) / sig**3], axis=-1)

    def fit_rows(self, xy, w):
        # weighted least squares on the centred covariate: the 2x2 normal
        # equations have determinant sw * sxx and solve in closed form
        x, y = xy[:, 0], xy[:, 1]
        sw = _weight_sums(w)
        mx, my = w @ x / sw, w @ y / sw
        dx = x - mx[:, None]
        wdx = w * dx
        # a huge covariate overflows sxx to inf: such a row is singular too
        sxx = np.add.reduce(wdx * dx, axis=1)
        singular = ((sw * sxx < 1e-12 * np.maximum(1.0, sw * sw))
                    | np.isinf(sxx))
        sxx = np.where(singular, np.nan, sxx)
        out = np.empty((len(w), 3))
        b1 = np.divide(np.add.reduce(wdx * (y - my[:, None]), axis=1), sxx,
                       out=out[:, 1])
        b0 = np.subtract(my, b1 * mx, out=out[:, 0])
        e = y - b0[:, None] - b1[:, None] * x
        # a row whose variance overflows comes back inf and is dropped
        s2 = np.add.reduce(w * e * e, axis=1) / sw
        np.sqrt(np.where(s2 <= 0, np.nan, s2), out=out[:, 2])
        return out


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
    Mahalanobis distance chi2_2(coverage) from the mean, where the
    chi-squared quantile with two degrees of freedom has the closed form
    chi2_2(c) = -2 log(1 - c). `angle` is the orientation of the major
    axis in radians. A theta that fails the bivariate family's
    `check_params` raises DomainError.
    """
    if not 0 < coverage < 1:
        raise ValueError("coverage must be in (0, 1)")
    mu1, mu2, s1, s2, rho = FAMILIES["bivariate_normal"].check_params(theta)
    cov = np.array([[s1, rho * np.sqrt(s1 * s2)],
                    [rho * np.sqrt(s1 * s2), s2]])
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise DomainError("covariance matrix is not positive definite")
    r2 = -2.0 * np.log1p(-coverage)
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
