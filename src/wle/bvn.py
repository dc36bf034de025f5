"""Standard bivariate normal rectangle probabilities.

P(X <= h, Y <= k) for correlated standard normals, computed through
Owen's T function, which gives absolute accuracy near machine precision
across the whole (h, k, rho) range.
"""

import numpy as np
from scipy.special import ndtr, owens_t


def bvn_cdf(h, k, rho, quadrants=False):
    """P(X <= h, Y <= k) for standard bivariate normals with correlation rho.

    h, k and rho broadcast against each other; every rho needs |rho| < 1
    (NaN entries propagate). With quadrants=True the result is the tuple
    of the four quadrant probabilities (ll, lg, gl, gg) =
    P(X <= h, Y <= k), P(X <= h, Y >= k), P(X >= h, Y <= k),
    P(X >= h, Y >= k). Each equals one bvn_cdf call with the signs of
    (h, k, rho) flipped accordingly, and all four share two Owen's T
    evaluations: T is even in its first argument and odd in its second,
    so a sign flip only flips the sign of the T terms.
    """
    h, k, rho = np.broadcast_arrays(
        np.atleast_1d(np.asarray(h, dtype=float)),
        np.asarray(k, dtype=float), np.asarray(rho, dtype=float))
    if np.any(np.abs(rho) >= 1):
        raise ValueError("|rho| must be < 1")
    indep = rho == 0.0

    # Owen's-T slopes are singular on the axes; a 1e-12 nudge changes the
    # probability by under 1e-12, well inside the 1e-10 target. The nudge
    # keeps the sign of zero so that it commutes with negation.
    h = np.where((h == 0) & ~indep, np.copysign(1e-12, h), h)
    k = np.where((k == 0) & ~indep, np.copysign(1e-12, k), k)

    denom = np.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_h = owens_t(h, (k - rho * h) / (h * denom))
        t_k = owens_t(k, (h - rho * k) / (k * denom))
    hk = h * k
    # subtract 1/2 on the quadrants where the signed h and k differ in sign
    same, differ = np.where(hk > 0, 0.5, 0.0), np.where(hk < 0, 0.5, 0.0)
    ph, pk = ndtr(h), ndtr(k)

    def corner(a, b, sign, half):
        out = 0.5 * (a + b) - sign * t_h - sign * t_k - half
        return np.clip(np.where(indep, a * b, out), 0.0, 1.0)

    ll = corner(ph, pk, 1.0, differ)
    if not quadrants:
        return ll
    qh, qk = ndtr(-h), ndtr(-k)
    return (ll, corner(ph, qk, -1.0, same), corner(qh, pk, -1.0, same),
            corner(qh, qk, 1.0, differ))
