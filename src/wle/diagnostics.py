"""Population-level diagnostics of the weighted-likelihood functional.

Everything here works at the distribution level, with no data involved:
Fisher-consistency quadrature checks, first- and second-order influence
analysis under point-mass contamination, root scans of the population
weighted score under mixture contamination, and CSV export of the
resulting curves. The residual is the solver's `tau_branch`, with a
smooth distribution in place of the empirical one, and the integration
ranges and medians come from the families. All integrals use one
adaptive rule, `QUAD`.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect
from scipy.special import ndtri

from .families import get_family
from .quadrature import Quadrature
from .residuals import ResidualConfig, model_tail, tau_branch

QUAD = Quadrature()


@dataclass(frozen=True)
class ModelDistribution:
    """A parametric family frozen at a parameter value.

    Like every distribution the diagnostics take, it offers
    `cdf_survival(x)`, the pair (F(x), S(x)) with S(x) = P(X >= x), and
    `pdf(x)`."""

    family: object
    theta: tuple

    def __post_init__(self):
        self.family.check_params(np.asarray(self.theta, dtype=float))

    def cdf_survival(self, x):
        return self.family.cdf_survival(np.asarray(self.theta, float), x)

    def pdf(self, x):
        return self.family.pdf(np.asarray(self.theta, float), x)


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
    theta = np.asarray(theta, dtype=float)
    family.check_params(theta)
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


def _tail_pieces(family, theta, x, y):
    """F, S, the model tail T that the residual reads at the nodes x (F
    below the median, S above), its gradient dT (grad S = -grad F), the
    point mass at y on T's side and the (n, d) score."""
    F, S = family.cdf_survival(theta, x)
    upper, T = model_tail(F, S, 0.5)
    gradF = family.cdf_gradient(theta, x)
    dT = np.where(upper[:, None], -gradF, gradF)
    mass = np.where(upper, y >= x, x >= y).astype(float)
    return F, S, T, dT, mass, family.score(theta, x)


def influence_first_order(family, theta_g, weight_spec, y, g=None):
    """First-order influence T'(y) = D^{-1} N under point-mass contamination.

    `g` is the true distribution (anything with cdf_survival and pdf); it
    defaults to the model at theta_g, in which case the result must equal
    the maximum-likelihood influence I(theta)^{-1} u_theta(y). The two
    integration regions are split at the median and the point-mass
    indicators are handled by breaking the panels at y. A y outside the
    support, or where the model tail is zero, raises.
    """
    theta = np.asarray(theta_g, dtype=float)
    family.check_params(theta)
    if family.discrete:
        raise NotImplementedError("influence analysis covers the continuous "
                                  "univariate families")
    y = _influence_point(family, theta, y)
    if g is None:
        g = ModelDistribution(family, tuple(theta))
    a, b = family.integration_range(theta)
    cuts = [family.median(theta), y]

    def pieces(x):
        F, S, T, dT, mass, u = _tail_pieces(family, theta, x, y)
        tau = tau_branch(*g.cdf_survival(x), F, S, 0.5)
        H, Hp = weight_spec.weight(tau), weight_spec.weight_derivative(tau)
        return tau, H, Hp, T, dT, mass, u, g.pdf(x)

    def d_integrand(x):
        tau, H, Hp, T, dT, _, u, dens = pieces(x)
        # tail term: H'(tau) u (grad T / T) (tau + 1)
        ratio = dT / T[:, None]
        tail = (Hp * (tau + 1.0))[:, None, None] * u[:, :, None] * ratio[:, None, :]
        jac = -family.score_jacobian(theta, x)
        return (tail + H[:, None, None] * jac) * dens[:, None, None]

    def n_integrand(x):
        tau, _, Hp, T, _, mass, u, dens = pieces(x)
        return ((Hp * (mass / T) - Hp * (tau + 1.0)) * dens)[:, None] * u

    D = QUAD.integrate(d_integrand, a, b, points=cuts)
    N = QUAD.integrate(n_integrand, a, b, points=cuts)
    ys = np.atleast_1d(y)
    tau_y = tau_branch(*g.cdf_survival(ys), *family.cdf_survival(theta, ys),
                       0.5)
    N = N + weight_spec.weight(tau_y)[0] * family.score(theta, ys)[0]
    return np.linalg.solve(D, N)


def influence_second_order(family, theta, weight_spec, y):
    """Second-order term T''(y) of the contamination-bias expansion.

    Evaluated at the model for scalar-parameter families; the three
    integral groups share the template in which only w''(0) distinguishes
    one weight family from another (it enters the middle group with a
    flipped sign). The point y is checked as in `influence_first_order`.
    """
    theta = np.asarray(theta, dtype=float)
    family.check_params(theta)
    if theta.size != 1 or family.discrete:
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
        _, _, T, dT, mass, u = _tail_pieces(family, theta, x, y)
        r, u = dT[:, 0] / T, u[:, 0]
        # squared point-mass mismatch against the model tail, the
        # gradient-weighted mismatch, and the squared gradient term
        g1 = (u / T) * (mass - T) ** 2
        g2 = u * r * (mass - T)
        g3 = u * r ** 2 * T
        g4 = family.score_curvature(theta, x)
        return family.pdf(theta, x)[:, None] * np.column_stack([g1, g2, g3, g4])

    i1, i2, i3, i4 = QUAD.integrate(groups, a, b,
                                    points=[family.median(theta), y])
    bracket = (c * i1
               + 2.0 * t1 * (-c * i2 + grad_u_y + info)
               + t1 * t1 * (i4 + c * i3))
    return bracket / info


def influence_report(family, theta, weight_spec, y):
    """Bundle T'(y), T''(y) and the predicted bias curve at the model."""
    t_prime = influence_first_order(family, theta, weight_spec, y)
    t_second = None
    curve = None
    if np.asarray(theta, dtype=float).size == 1:
        t_second = influence_second_order(family, theta, weight_spec, y)
        eps = np.linspace(0.0, 0.1, 21)
        bias = eps * float(t_prime[0]) + 0.5 * eps**2 * t_second
        curve = np.column_stack([eps, bias])
    return InfluenceReport(y=float(y), t_prime=t_prime, t_second=t_second,
                           bias_curve=curve)


def population_weighted_score(contam_spec, weight_spec, mu, p=0.5):
    """Weighted score integral of the N(mu, 1) model against a mixture.

    The tail fraction p must be in (0, 1/2], as in `ResidualConfig`."""
    p = ResidualConfig(p=p).p
    mu = float(mu)
    fam = get_family("normal_location")
    theta = np.array([mu])
    ranges = [fam.integration_range(theta)] + [
        d.family.integration_range(d.theta)
        for d in (contam_spec.base, contam_spec.contaminant)]
    a = min(r[0] for r in ranges)
    b = max(r[1] for r in ranges)
    # branch boundaries of the residual in x
    cuts = [mu + ndtri(p), mu + ndtri(1.0 - p)]

    def integrand(x):
        tau = tau_branch(*contam_spec.cdf_survival(x),
                         *fam.cdf_survival(theta, x), p)
        return weight_spec.weight(tau) * (x - mu) * contam_spec.pdf(x)

    return float(QUAD.integrate(integrand, a, b, points=cuts))


def mixture_root_scan(contam_spec, weight_spec, mu_grid, p=0.5):
    """Roots of the population weighted score of N(mu, 1) over a mu grid.

    The score integral is evaluated on the grid, sign changes are
    bracketed, and each bracket is refined by bisection to 1e-6. Returns
    the list of roots (possibly empty) in increasing order. A tail
    fraction p outside (0, 1/2] raises ValueError.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if np.any(np.diff(mu_grid) <= 0):
        raise ValueError("mu grid must be strictly increasing")

    def psi(mu):
        return population_weighted_score(contam_spec, weight_spec, mu, p=p)

    values = np.array([psi(mu) for mu in mu_grid])
    roots = []
    for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
        roots.append(bisect(psi, mu_grid[i], mu_grid[i + 1], xtol=1e-6))
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
