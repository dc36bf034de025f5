"""Adaptive composite Gauss-Legendre quadrature for vector-valued integrands.

Panels are bisected until the change between a parent panel estimate and
the sum of its two children falls below the locally allotted tolerance.
The rule works level by level: the children of every pending panel are
evaluated in one integrand call, on the concatenated nodes of all of them
(in blocks of at most BLOCK_ELEMENTS nodes). So the integrand receives a
1-d array of abscissae from many panels at once and must act elementwise
along it: it returns an array whose leading axis matches the abscissae,
and trailing axes are integrated componentwise. Non-finite bounds, and an
integrand that is not finite on some panel, raise ValueError.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .residuals import BLOCK_ELEMENTS


class QuadratureWarning(UserWarning):
    """Requested tolerance could not be certified."""


ORDER = 21       # Gauss-Legendre points per panel
MAX_DEPTH = 30   # bisections before a panel is accepted as it is
_BLOCK = BLOCK_ELEMENTS // (2 * ORDER)  # panels whose children one call
                                        # evaluates, at most
# nodes and weights of the ORDER-point rule on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(ORDER)


def _panels(f, lo, hi):
    """Gauss-Legendre estimates on the panels [lo[i], hi[i]] from one
    integrand call, and their midpoints; a ValueError if one is not finite."""
    # ends halved before the sum cannot overflow, and halving is exact
    a, b = 0.5 * lo, 0.5 * hi
    half, mid = b - a, a + b
    x = half[:, None] * _NODES + mid[:, None]
    fx = np.asarray(f(x.ravel()), dtype=float)
    trail = fx.shape[1:]
    fx = fx.reshape(lo.size, ORDER, -1).transpose(0, 2, 1)
    est = (fx @ _WEIGHTS).reshape(lo.size, *trail)
    est = half.reshape(-1, *(1,) * len(trail)) * est
    if not np.isfinite(est).all():
        i = np.flatnonzero(~np.isfinite(est.reshape(lo.size, -1)).all(1))[0]
        raise ValueError(f"integrand is not finite on [{lo[i]}, {hi[i]}]")
    return est, mid


def _blocks(*arrays):
    """The arrays cut in step into blocks of _BLOCK panels at most."""
    return [tuple(a[s:s + _BLOCK] for a in arrays)
            for s in range(0, len(arrays[0]), _BLOCK)]


@dataclass(frozen=True)
class Quadrature:
    """Adaptive Gauss-Legendre rule with an absolute-error target."""

    tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be positive and finite")

    def integrate(self, f, a, b, points=()):
        """Integrate f over [a, b], forcing panel breaks at `points`.

        Returns the integral (scalar or array matching f's trailing shape).
        Breakpoints let callers isolate kinks and jump discontinuities so
        the smooth pieces converge at the full Gauss-Legendre rate. The
        tolerance is split evenly over the pieces and halved per bisection.
        """
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError("integration bounds must be finite, with a < b")
        cuts = np.unique([a, b, *(p for p in points if a < p < b)])
        tol = self.tol / (cuts.size - 1)
        # a block holds panels of one depth, whose children one call
        # evaluates; _BLOCK keeps a call within BLOCK_ELEMENTS nodes, and
        # the memory bounded where panels never settle
        stack = [(lo, hi, *_panels(f, lo, hi), tol, 0)
                 for lo, hi in _blocks(cuts[:-1], cuts[1:])]
        total, err = 0.0, 0.0
        while stack:
            lo, hi, whole, mid, tol, depth = stack.pop()
            n = lo.size
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            halves, mids = _panels(f, lo, hi)
            pair = halves[:n] + halves[n:]
            delta = np.abs(pair - whole).reshape(n, -1).max(axis=1)
            done = (delta <= tol) | (depth >= MAX_DEPTH)
            total = total + pair[done].sum(axis=0)
            # bisecting a Gauss panel roughly squares its accuracy, so the
            # parent-child difference is a conservative error bound
            err += float(delta[done].sum())
            keep = np.concatenate([~done, ~done])
            stack += [(*block, tol / 2, depth + 1) for block in
                      _blocks(lo[keep], hi[keep], halves[keep], mids[keep])]
        if err > self.tol:
            warnings.warn(f"quadrature error estimate {err:.2e} exceeds "
                          f"tolerance {self.tol:.2e}", QuadratureWarning)
        return total
