"""Adaptive quadrature against closed-form integrals and scipy."""

import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import ndtr

from wle import quadrature
from wle.quadrature import Quadrature, QuadratureWarning

DENS = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
KINK = lambda x: np.abs(x - 0.25) * np.exp(-x)


class Recorder:
    """An integrand that records the abscissae of every call."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, x):
        assert x.ndim == 1 and x.size % quadrature.ORDER == 0
        self.calls.append(x.copy())
        return self.f(x)

    @property
    def nodes(self):
        return np.sort(np.concatenate(self.calls))


def depth_first(f, a, b, points, tol):
    """Reference rule: one integrand call per panel, depth first, with
    the same accept test. Returns the integral and the sorted nodes."""
    seen = []

    def panel(a, b):
        x = 0.5 * (b - a) * quadrature._NODES + 0.5 * (a + b)
        seen.append(x)
        fx = np.asarray(f(x), dtype=float)
        return 0.5 * (b - a) * np.tensordot(quadrature._WEIGHTS, fx, (0, 0))

    cuts = np.unique([a, b, *(p for p in points if a < p < b)])
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        stack = [(lo, hi, panel(lo, hi), tol / (len(cuts) - 1), 0)]
        while stack:
            lo, hi, whole, t, depth = stack.pop()
            mid = 0.5 * (lo + hi)
            left, right = panel(lo, mid), panel(mid, hi)
            if (np.max(np.abs(left + right - whole)) <= t
                    or depth >= quadrature.MAX_DEPTH):
                total = total + left + right
            else:
                stack += [(lo, mid, left, t / 2, depth + 1),
                          (mid, hi, right, t / 2, depth + 1)]
    return total, np.sort(np.concatenate(seen))


@contextmanager
def within(seconds):
    """Fail, instead of hanging, when the block takes longer."""
    def expire(*_):
        raise TimeoutError(f"took longer than {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_polynomial_exact():
    q = Quadrature()
    val = q.integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)


def test_gaussian_density_mass():
    q = Quadrature(tol=1e-10)
    dens = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    assert q.integrate(dens, -10, 10) == pytest.approx(1.0, abs=1e-10)


def test_vector_valued_integrand():
    q = Quadrature()
    val = q.integrate(lambda x: np.column_stack([x**2, np.sin(x)]), 0.0, 1.0)
    np.testing.assert_allclose(val, [1.0 / 3.0, 1.0 - np.cos(1.0)],
                               atol=1e-10)


def test_matrix_valued_integrand():
    q = Quadrature()

    def f(x):
        out = np.zeros((x.size, 2, 2))
        out[:, 0, 0] = x
        out[:, 1, 1] = x**3
        return out

    val = q.integrate(f, 0.0, 2.0)
    np.testing.assert_allclose(val, [[2.0, 0.0], [0.0, 4.0]], atol=1e-10)


def test_breakpoints_isolate_jump():
    # integrand with a jump at 0.3: forcing a panel break there keeps the
    # piecewise-smooth convergence; the reference is exact
    q = Quadrature(tol=1e-10)
    f = lambda x: np.where(x < 0.3, 1.0, 2.0) * x
    val = q.integrate(f, 0.0, 1.0, points=[0.3])
    exact = 0.5 * 0.3**2 + (1.0 - 0.3**2)
    assert val == pytest.approx(exact, abs=1e-10)


def test_kink_against_scipy():
    q = Quadrature(tol=1e-10)
    f = lambda x: np.abs(x - 0.25) * np.exp(-x)
    ours = q.integrate(f, 0.0, 2.0, points=[0.25])
    ref = scipy_quad(f, 0.0, 2.0, points=[0.25], limit=200)[0]
    assert ours == pytest.approx(ref, abs=1e-10)


def test_adaptive_narrow_spike():
    # a spike far narrower than the initial panels forces bisection; the
    # breakpoints bracket the spike so the rule cannot step over it
    q = Quadrature(tol=1e-9)
    f = lambda x: np.exp(-0.5 * ((x - 0.1) / 1e-3) ** 2)
    val = q.integrate(f, -5.0, 5.0, points=[0.095, 0.105])
    exact = 1e-3 * np.sqrt(2 * np.pi)
    assert val == pytest.approx(exact, rel=1e-5)


def test_tail_integral_of_normal():
    q = Quadrature(tol=1e-12)
    dens = lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
    assert q.integrate(dens, 1.0, 10.0) == pytest.approx(ndtr(-1.0),
                                                         abs=1e-11)


def test_warning_when_tolerance_not_met():
    # a jump at 1/3 never falls on a panel edge: at the depth limit the
    # panel holding it still errs by about its width, far above 1e-14
    q = Quadrature(tol=1e-14)
    with pytest.warns(QuadratureWarning):
        q.integrate(lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        Quadrature(tol=tol)


def test_validation():
    q = Quadrature()
    with pytest.raises(ValueError):
        q.integrate(lambda x: x, 1.0, 1.0)


def test_outside_breakpoints_ignored():
    q = Quadrature()
    val = q.integrate(lambda x: x, 0.0, 1.0, points=[-3.0, 7.0])
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("f, a, b, points, calls, nodes", [
    (DENS, -10.0, 10.0, (), 3, 147),
    (KINK, 0.0, 2.0, [0.25], 2, 126),
], ids=["normal-pdf", "kink"])
def test_one_integrand_call_per_level(f, a, b, points, calls, nodes):
    # the children of every pending panel share one call, so a rule that
    # bisects twice takes three calls; the panels are those of the
    # depth-first rule, which took 7 and 6 calls for the same nodes
    rec = Recorder(f)
    Quadrature(tol=1e-10).integrate(rec, a, b, points=points)
    assert (len(rec.calls), rec.nodes.size) == (calls, nodes)


@pytest.mark.parametrize("f, a, b, points, tol", [
    (DENS, -10.0, 10.0, (), 1e-10),
    (DENS, 1.0, 10.0, (), 1e-12),
    (KINK, 0.0, 2.0, [0.25], 1e-10),
    (KINK, 0.0, 2.0, (), 1e-10),
    (lambda x: np.exp(-0.5 * ((x - 0.1) / 1e-3) ** 2), -5.0, 5.0,
     [0.095, 0.105], 1e-9),
    (lambda x: np.column_stack([np.sin(5 * x), np.sqrt(x)]), 0.0, 3.0, (),
     1e-9),
], ids=["normal-pdf", "normal-tail", "kink", "kink-unsplit", "spike",
        "vector"])
def test_same_panels_as_the_depth_first_rule(f, a, b, points, tol):
    # the accept test is per panel, so evaluating a level at once leaves
    # the nodes unchanged; only the order of the sums moves the result
    rec = Recorder(f)
    ours = Quadrature(tol=tol).integrate(rec, a, b, points=points)
    ref, ref_nodes = depth_first(f, a, b, points, tol)
    np.testing.assert_array_equal(rec.nodes, ref_nodes)
    np.testing.assert_allclose(ours, ref, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize("trailing", [(4,), (2, 2)], ids=["vector", "matrix"])
def test_one_leading_axis_per_node(trailing):
    # several panels per call: the integrand still sees one flat array of
    # abscissae and returns one leading row per abscissa
    def f(x):
        out = np.zeros((x.size, 4))
        out[:, 0] = np.exp(-x * x)
        out[:, 3] = x**3
        return out.reshape(x.size, *trailing)

    rec = Recorder(f)
    val = Quadrature(tol=1e-12).integrate(rec, -6.0, 6.0)
    assert max(x.size for x in rec.calls) > quadrature.ORDER
    np.testing.assert_allclose(val.ravel(), [np.sqrt(np.pi), 0.0, 0.0, 0.0],
                               atol=1e-12)
    assert val.shape == trailing


@pytest.mark.parametrize("points", [(), np.linspace(0.1, 0.9, 9)],
                         ids=["one-segment", "ten-segments"])
def test_calls_hold_at_most_a_block_of_panels(monkeypatch, points):
    # an oscillation far finer than the panels bisects every panel to the
    # depth limit; segments and pending panels go to the integrand in
    # blocks, whose children make one call
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 6)
    monkeypatch.setattr(quadrature, "_BLOCK", 2)
    f = lambda x: np.sin(1e5 * x)
    rec = Recorder(f)
    with pytest.warns(QuadratureWarning):
        val = Quadrature().integrate(rec, 0.0, 1.0, points=points)
    assert max(x.size for x in rec.calls) == 4 * quadrature.ORDER
    ref, ref_nodes = depth_first(f, 0.0, 1.0, points, Quadrature().tol)
    np.testing.assert_array_equal(rec.nodes, ref_nodes)
    panels = (len(points) + 1) * (2 ** 8 - 1)  # depths 0-7 per segment
    assert rec.nodes.size == panels * quadrature.ORDER
    assert val == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("a, b", [(-np.inf, 0.0), (0.0, np.inf),
                                  (np.nan, 1.0), (-np.inf, np.inf)])
def test_non_finite_bounds_raise(a, b):
    with within(1.0), pytest.raises(ValueError, match="must be finite"):
        Quadrature().integrate(lambda x: x, a, b)


@pytest.mark.parametrize("f, where", [
    (lambda x: np.where(x > 0.5, np.nan, x), "[0.0, 1.0]"),
    (lambda x: np.where(x > 0.9, np.inf, x), "[0.0, 1.0]"),
    # finite on the first panel's nodes; a child's nodes reach the NaN
    (lambda x: np.where(np.abs(x - 0.999) < 1e-3, np.nan, 1 / (1.5 - x)),
     "[0.5, 1.0]"),
], ids=["nan", "inf", "nan-in-a-child"])
def test_non_finite_integrand_raises_naming_the_panel(f, where):
    # a NaN difference never passes the accept test: without the check
    # the rule would bisect towards 2**30 panels
    with within(1.0), pytest.raises(ValueError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuadratureWarning)
            Quadrature().integrate(f, 0.0, 1.0)
    assert str(exc.value) == f"integrand is not finite on {where}"


@pytest.mark.parametrize("a, b", [(0.5, 1.0), (-1.0, 1.0), (-1.0, -0.5)])
def test_panels_next_to_the_largest_float_do_not_overflow(a, b):
    # a panel's midpoint and half-width are formed from its halved ends,
    # so neither overflows while both ends are floats
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Quadrature().integrate(np.zeros_like, a * big, b * big) == 0.0
