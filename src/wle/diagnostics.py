"""Population-level diagnostics of the weighted-likelihood functional.

Everything here works at the distribution level, with no data involved:
Fisher-consistency quadrature checks, first-order (closed-form) and
second-order influence analysis under point-mass contamination at the
model, root scans of the population weighted score under mixture
contamination, and CSV export of the resulting curves. The residual is
the solver's `tau_branch`, with a smooth distribution in place of the
empirical one, and the integration ranges and medians come from the
families. All integrals use one adaptive rule, `QUAD`.
"""

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .families import get_family
from .quadrature import Quadrature, QuadratureWarning
from .residuals import ResidualConfig, model_tail, tau_branch

QUAD = Quadrature()
_BISECT_RTOL = 4 * np.finfo(float).eps  # as in scipy.optimize.bisect


@dataclass(frozen=True)
class ModelDistribution:
    """A parametric family frozen at a parameter value.

    Like every distribution the diagnostics take, it offers
    `cdf_survival(x)`, the pair (F(x), S(x)) with S(x) = P(X >= x), and
    `pdf(x)`."""

    family: object
    theta: tuple

    def __post_init__(self):
        # the checked floats: a tuple that hashes, an array for the family
        theta = tuple(self.family.check_params(self.theta))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_theta", np.array(theta))

    def cdf_survival(self, x):
        return self.family.cdf_survival(self._theta, x)

    def pdf(self, x):
        return self.family.pdf(self._theta, x)

    def integration_range(self):
        return self.family.integration_range(self._theta)


@dataclass(frozen=True, kw_only=True)
class ContaminationSpec:
    """The mixture (1 - eps) * base + eps * contaminant."""

    base: ModelDistribution
    eps: float = 0.0
    contaminant: ModelDistribution

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")

    def _mix(self, base, contaminant):
        return (1.0 - self.eps) * base + self.eps * contaminant

    def cdf_survival(self, x):
        Fc, Sc = self.contaminant.cdf_survival(x)
        Fb, Sb = self.base.cdf_survival(x)
        return self._mix(Fb, Fc), self._mix(Sb, Sc)

    def pdf(self, x):
        return self._mix(self.base.pdf(x), self.contaminant.pdf(x))


@dataclass
class InfluenceReport:
    """Influence analysis at a contamination point y."""

    y: float
    t_prime: np.ndarray   # first-order influence T'(y)
    t_second: float = None          # scalar-parameter second-order term
    bias_curve: np.ndarray = None   # rows (eps, eps*T' + eps^2/2 * T'')


def fisher_consistency_check(family, theta, residual_config, weight_spec):
    """Population weighted score at the model: integral of H(tau) u dF_theta.

    The population residual of the model against itself vanishes, so the
    result must equal the plain score integral, i.e. the zero vector; the
    returned value quantifies how far the quadrature is from that.
    """
    theta = family.check_params(theta)
    density = family.pmf if family.discrete else family.pdf

    def integrand(x):
        """H(tau) f_theta at the nodes x; the score multiplies it."""
        F, S = family.cdf_survival(theta, x)
        w = weight_spec.weight(tau_branch(F, S, F, S, residual_config.p))
        return w * density(theta, x)

    a, b = family.integration_range(theta)
    if family.discrete:  # the sum over the integers in the range
        k = np.arange(a, b + 1.0)
        return integrand(k) @ family.score(theta, k)
    return QUAD.integrate(
        lambda x: integrand(x)[:, None] * family.score(theta, x), a, b,
        points=[family.median(theta)])


def _influence_point(family, theta, y):
    """y as a float; outside the support, or where the model tail that the
    residual reads is zero, the influence is undefined and this raises."""
    family.check_support(y)
    _, T = model_tail(*family.cdf_survival(theta, np.atleast_1d(y)), 0.5)
    if not T[0] > 0:
        raise ValueError(f"the model tail at y = {y} is zero or undefined")
    return float(y)


def influence_first_order(family, theta, weight_spec, y):
    """First-order influence T'(y) under point-mass contamination at the model.

    At the model every residual is 0, where H = 1 and H' = 0, so the
    kernel drops out and T'(y) is the maximum-likelihood influence
    I(theta)^{-1} u_theta(y). A y outside the support, or where the model
    tail is zero, raises.
    """
    theta = family.check_params(theta)
    if family.discrete:
        raise NotImplementedError("influence analysis covers the continuous "
                                  "univariate families")
    y = _influence_point(family, theta, y)
    return np.linalg.solve(family.fisher_information(theta),
                           family.score(theta, np.atleast_1d(y))[0])


def influence_second_order(family, theta, weight_spec, y):
    """Second-order term T''(y) of the contamination-bias expansion.

    Evaluated at the model for scalar-parameter families; the three
    integral groups share the template in which only w''(0) distinguishes
    one weight family from another (it enters the middle group with a
    flipped sign). The point y is checked as in `influence_first_order`;
    where the integrals cannot be certified (the exponential within about
    1e-11 of y = 0) this raises ValueError.
    """
    theta = family.check_params(theta)
    if family.n_params != 1 or family.discrete:
        raise NotImplementedError("second-order analysis covers the "
                                  "continuous scalar-parameter families")
    y = _influence_point(family, theta, y)
    c = weight_spec.second_derivative_at_zero()
    a, b = family.integration_range(theta)
    info = float(family.fisher_information(theta)[0, 0])
    u_y = float(family.score(theta, np.atleast_1d(y))[0, 0])
    grad_u_y = float(family.score_jacobian(theta, np.atleast_1d(y))[0, 0, 0])
    t1 = u_y / info

    def groups(x):
        # the model tail T that the residual reads at the nodes x (F below
        # the median, S above), its gradient (grad S = -grad F) over T, and
        # the point mass at y on T's side
        upper, T = model_tail(*family.cdf_survival(theta, x), 0.5)
        gradF = family.cdf_gradient(theta, x)[:, 0]
        r = np.where(upper, -gradF, gradF) / T
        mass = np.where(upper, y >= x, x >= y).astype(float)
        u = family.score(theta, x)[:, 0]
        # squared point-mass mismatch against the model tail, the
        # gradient-weighted mismatch, and the squared gradient term
        g1 = (u / T) * (mass - T) ** 2
        g2 = u * r * (mass - T)
        g3 = u * r ** 2 * T
        g4 = family.score_curvature(theta, x)
        return family.pdf(theta, x)[:, None] * np.column_stack([g1, g2, g3, g4])

    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        try:
            i1, i2, i3, i4 = QUAD.integrate(groups, a, b,
                                            points=[family.median(theta), y])
        except QuadratureWarning as exc:
            raise ValueError(f"T''(y) at y = {y} cannot be certified: "
                             f"{exc}") from None
    bracket = (c * i1
               + 2.0 * t1 * (-c * i2 + grad_u_y + info)
               + t1 * t1 * (i4 + c * i3))
    return bracket / info


def influence_report(family, theta, weight_spec, y):
    """Bundle T'(y), T''(y) and the predicted bias curve at the model."""
    t_prime = influence_first_order(family, theta, weight_spec, y)
    t_second = None
    curve = None
    if family.n_params == 1:
        t_second = influence_second_order(family, theta, weight_spec, y)
        eps = np.linspace(0.0, 0.1, 21)
        bias = eps * float(t_prime[0]) + 0.5 * eps**2 * t_second
        curve = np.column_stack([eps, bias])
    return InfluenceReport(y=float(y), t_prime=t_prime, t_second=t_second,
                           bias_curve=curve)


def population_weighted_score(contam_spec, weight_spec, mu, p=0.5):
    """Weighted score integral of the N(mu, 1) model against a mixture.

    The tail fraction p must be in (0, 1/2], as in `ResidualConfig`, mu
    finite and the range of model and mixture shorter than the largest
    float; where every weight is 0 the integral is 0.0."""
    p = ResidualConfig(p=p).p
    mu = float(mu)
    if not np.isfinite(mu):
        raise ValueError(f"mu = {mu}: mu must be finite")
    fam, theta = get_family("normal_location"), np.array([mu])
    ranges = [fam.integration_range(theta)] + [
        d.integration_range() for d in (contam_spec.base,
                                        contam_spec.contaminant)]
    a = min(float(r[0]) for r in ranges)
    b = max(float(r[1]) for r in ranges)
    if not np.isfinite(b - a):
        raise ValueError(f"mu = {mu}: the range [{a}, {b}] of the model "
                         "and the mixture is longer than the largest float")
    # branch boundaries of the residual in x
    cuts = [mu + ndtri(p), mu + ndtri(1.0 - p)]

    def integrand(x):
        tau = tau_branch(*contam_spec.cdf_survival(x),
                         *fam.cdf_survival(theta, x), p)
        return weight_spec.weight(tau) * (x - mu) * contam_spec.pdf(x)

    return float(QUAD.integrate(integrand, a, b, points=cuts))


def _bisect(f, a, b, fa, xtol=1e-6):
    """A root of f in [a, b], where f(a) = fa and f(b) differ in sign.

    scipy's `bisect` iteration: halve from the left end until the
    half-width is below xtol plus four ulps of the midpoint, at most 100
    times; but f is never evaluated at either end."""
    a, dm = float(a), float(b) - float(a)
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError("bisection did not converge in 100 halvings")


def mixture_root_scan(contam_spec, weight_spec, mu_grid, p=0.5):
    """Roots of the population weighted score of N(mu, 1) over a mu grid.

    The score integral is evaluated on the grid, sign changes are
    bracketed, and each bracket is refined by bisection to 1e-6, reusing
    the grid value at its left end. Returns the list of roots (possibly
    empty) in increasing order. A grid that is not finite and strictly
    increasing, or a tail fraction p outside (0, 1/2], raises ValueError.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if not (np.all(np.isfinite(mu_grid)) and np.all(np.diff(mu_grid) > 0)):
        raise ValueError("mu grid must be finite and strictly increasing")

    def psi(mu):
        return population_weighted_score(contam_spec, weight_spec, mu, p=p)

    values = np.array([psi(mu) for mu in mu_grid])
    roots = []
    for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
        roots.append(_bisect(psi, mu_grid[i], mu_grid[i + 1], values[i]))
    for i in np.flatnonzero(values == 0.0):
        roots.append(float(mu_grid[i]))
    return sorted(roots)


def curve_to_csv(columns, rows):
    """Serialize curve data (bias curves, score scans, ellipses) as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in np.asarray(rows):
        writer.writerow([repr(float(v)) for v in np.atleast_1d(row)])
    return buf.getvalue()
