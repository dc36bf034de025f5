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
from .residuals import tau_branch

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


@dataclass(frozen=True)
class ContaminationSpec:
    """A base distribution contaminated at level eps.

    The contaminant is either a point mass at `y` or a second distribution
    (`contaminant`), giving the mixture (1 - eps) * base + eps * contaminant.
    """

    base: ModelDistribution
    eps: float = 0.0
    y: float = None
    contaminant: ModelDistribution = None

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if (self.y is None) == (self.contaminant is None):
            raise ValueError("specify exactly one of y and contaminant")

    def _mix(self, base, contaminant):
        return (1.0 - self.eps) * base + self.eps * contaminant

    def _smooth_contaminant(self):
        if self.contaminant is None:
            raise ValueError("point-mass contamination has no smooth "
                             "distribution; handle the atom analytically")
        return self.contaminant

    def cdf_survival(self, x):
        Fc, Sc = self._smooth_contaminant().cdf_survival(x)
        Fb, Sb = self.base.cdf_survival(x)
        return self._mix(Fb, Fc), self._mix(Sb, Sc)

    def pdf(self, x):
        return self._mix(self.base.pdf(x), self._smooth_contaminant().pdf(x))


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

    a, b = family.integration_range(theta)
    if family.discrete:
        k = np.arange(a, b + 1.0)
        F, S = family.cdf_survival(theta, k)
        tau = tau_branch(F, S, F, S, residual_config.p)
        w = weight_spec.weight(tau)
        return (w * family.pmf(theta, k)) @ family.score(theta, k)

    def integrand(x):
        F, S = family.cdf_survival(theta, x)
        tau = tau_branch(F, S, F, S, residual_config.p)
        w = weight_spec.weight(tau)
        return w[:, None] * family.score(theta, x) * family.pdf(theta, x)[:, None]

    return QUAD.integrate(integrand, a, b, points=[family.median(theta)])


def influence_first_order(family, theta_g, weight_spec, y, g=None):
    """First-order influence T'(y) = D^{-1} N under point-mass contamination.

    `g` is the true distribution (anything with cdf_survival and pdf); it
    defaults to the model at theta_g, in which case the result must equal
    the maximum-likelihood influence I(theta)^{-1} u_theta(y). The two
    integration regions are split at F_theta = 1/2 and the point-mass
    indicators are handled by breaking the panels at y.
    """
    theta = np.asarray(theta_g, dtype=float)
    family.check_params(theta)
    if family.discrete:
        raise NotImplementedError("influence analysis covers the continuous "
                                  "univariate families")
    if g is None:
        g = ModelDistribution(family, tuple(theta))
    a, b = family.integration_range(theta)
    y = float(y)
    cuts = [family.median(theta), y]

    def pieces(x):
        F, S = family.cdf_survival(theta, x)
        tau = tau_branch(*g.cdf_survival(x), F, S, 0.5)
        H = weight_spec.weight(tau)
        Hp = weight_spec.weight_derivative(tau)
        u = family.score(theta, x)            # (n, d)
        gradF = family.cdf_gradient(theta, x) # (n, d)
        dens = g.pdf(x)
        lower = (F <= 0.5)[:, None]
        return F, S, tau, H, Hp, u, gradF, dens, lower

    def d_integrand(x):
        F, S, tau, H, Hp, u, gradF, dens, lower = pieces(x)
        # tail term: H'(tau) u (grad F / F) (tau + 1), with grad S = -grad F
        ratio = np.where(lower, gradF / F[:, None], -gradF / S[:, None])
        tail = (Hp * (tau + 1.0))[:, None, None] * u[:, :, None] * ratio[:, None, :]
        jac = -family.score_jacobian(theta, x)
        return (tail + H[:, None, None] * jac) * dens[:, None, None]

    def n_integrand(x):
        F, S, tau, H, Hp, u, gradF, dens, lower = pieces(x)
        lam = np.where(x >= y, 1.0, 0.0)       # Lambda_y(x)
        lam_bar = np.where(y >= x, 1.0, 0.0)   # P(point mass >= x)
        atom = np.where(lower[:, 0], lam / F, lam_bar / S)
        return ((Hp * atom - Hp * (tau + 1.0)) * dens)[:, None] * u

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
    flipped sign).
    """
    theta = np.asarray(theta, dtype=float)
    family.check_params(theta)
    if theta.size != 1 or family.discrete:
        raise NotImplementedError("second-order analysis covers the "
                                  "continuous scalar-parameter families")
    c = weight_spec.second_derivative_at_zero()
    a, b = family.integration_range(theta)
    y = float(y)
    info = float(family.fisher_information(theta)[0, 0])
    u_y = float(family.score(theta, np.atleast_1d(y))[0, 0])
    grad_u_y = float(family.score_jacobian(theta, np.atleast_1d(y))[0, 0, 0])
    t1 = u_y / info

    def groups(x):
        F, S = family.cdf_survival(theta, x)
        u = family.score(theta, x)[:, 0]
        gradF = family.cdf_gradient(theta, x)[:, 0]
        dens = family.pdf(theta, x)
        lower = F <= 0.5
        lam = np.where(x >= y, 1.0, 0.0)
        lam_bar = np.where(y >= x, 1.0, 0.0)
        # squared point-mass mismatch against the tail probabilities
        g1 = np.where(lower, (u / F) * (lam - F) ** 2,
                      (u / S) * (lam_bar - S) ** 2)
        # gradient-weighted mismatch; grad S = -grad F
        g2 = np.where(lower, u * (gradF / F) * (lam - F),
                      u * (-gradF / S) * (lam_bar - S))
        g3 = np.where(lower, u * (gradF / F) ** 2 * F,
                      u * (gradF / S) ** 2 * S)
        g4 = family.score_curvature(theta, x)
        return dens[:, None] * np.column_stack([g1, g2, g3, g4])

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
    """Weighted score integral of the N(mu, 1) model against a mixture."""
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
    the list of roots (possibly empty) in increasing order.
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
