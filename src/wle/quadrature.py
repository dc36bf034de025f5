"""Adaptive composite Gauss-Legendre quadrature for vector-valued integrands.

Panels are bisected until the change between a parent panel estimate and
the sum of its two children falls below the locally allotted tolerance.
Integrands receive a 1-d array of abscissae and must return an array whose
leading axis matches it; trailing axes are integrated componentwise.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class QuadratureWarning(UserWarning):
    """Requested tolerance could not be certified."""


ORDER = 21       # Gauss-Legendre points per panel
MAX_DEPTH = 30   # bisections before a panel is accepted as it is
# nodes and weights of the ORDER-point rule on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(ORDER)


@dataclass(frozen=True)
class Quadrature:
    """Adaptive Gauss-Legendre rule with an absolute-error target."""

    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")

    def _panel(self, f, a, b):
        x = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
        fx = np.asarray(f(x), dtype=float)
        return 0.5 * (b - a) * np.tensordot(_WEIGHTS, fx, axes=(0, 0))

    def integrate(self, f, a, b, points=()):
        """Integrate f over [a, b], forcing panel breaks at `points`.

        Returns the integral (scalar or array matching f's trailing shape).
        Breakpoints let callers isolate kinks and jump discontinuities so
        the smooth pieces converge at the full Gauss-Legendre rate.
        """
        if not b > a:
            raise ValueError("integration bounds must satisfy a < b")
        cuts = np.unique([a, b, *(p for p in points if a < p < b)])
        total = 0.0
        err = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part, perr = self._adaptive(f, lo, hi, self.tol / (len(cuts) - 1))
            total = total + part
            err += perr
        if err > self.tol:
            warnings.warn(f"quadrature error estimate {err:.2e} exceeds "
                          f"tolerance {self.tol:.2e}", QuadratureWarning)
        return total

    def _adaptive(self, f, a, b, tol):
        whole = self._panel(f, a, b)
        stack = [(a, b, whole, tol, 0)]
        total, err = 0.0, 0.0
        while stack:
            a, b, whole, tol, depth = stack.pop()
            mid = 0.5 * (a + b)
            left = self._panel(f, a, mid)
            right = self._panel(f, mid, b)
            delta = np.max(np.abs(left + right - whole))
            if delta <= tol or depth >= MAX_DEPTH:
                total = total + left + right
                # bisecting a Gauss panel roughly squares its accuracy, so
                # the parent-child difference is a conservative error bound
                err += float(delta)
            else:
                stack.append((a, mid, left, tol / 2, depth + 1))
                stack.append((mid, b, right, tol / 2, depth + 1))
        return total, err
