"""Closed-form family quantities against scipy/numpy oracles."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad
from scipy.special import gammaln, ndtr

from wle.bvn import bvn_cdf
from wle.diagnostics import QUAD
from wle.families import (DegenerateFitError, DomainError, FAMILIES,
                          TAIL_MASS, concentration_ellipse, ellipse_polyline,
                          get_family)


def test_registry():
    assert set(FAMILIES) == {"poisson", "normal", "exponential",
                             "normal_location", "bivariate_normal",
                             "normal_regression"}
    with pytest.raises(KeyError):
        get_family("cauchy")


@pytest.mark.parametrize("name, inside, outside", [
    ("poisson", [2.5], [[0.0], [-1.0], [np.inf]]),
    ("exponential", [0.5], [[0.0], [np.nan]]),
    ("normal", [-1.0, 2.0], [[0.0, 0.0], [0.0, -1.0], [np.inf, 1.0]]),
    ("normal_location", [-3.0], [[np.nan], [-np.inf]]),
    ("bivariate_normal", [0.0, 1.0, 2.0, 3.0, -0.5],
     [[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0],
      [0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0, -1.5],
      [0.0, np.nan, 1.0, 1.0, 0.0]]),
    ("normal_regression", [1.0, -2.0, 0.5],
     [[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [1.0, np.inf, 1.0]])])
def test_parameter_space_is_one_predicate(name, inside, outside):
    # the batch predicate the solver's extrapolation reads, and the check
    # that raises from it
    fam = get_family(name)
    mask = fam.in_space(np.array([inside] + outside))
    assert mask.tolist() == [True] + [False] * len(outside)
    fam.check_params(inside)
    for theta in outside:
        with pytest.raises(DomainError, match="outside the parameter space"):
            fam.check_params(theta)
    # a vector one short or one long is rejected by its length, before
    # the predicate reads it
    for theta in (inside[:-1], inside + [1.0]):
        with pytest.raises(DomainError, match=rf"^{name} parameter .* must "
                           rf"be a vector of length {len(inside)}$"):
            fam.check_params(theta)


def test_poisson_closed_forms():
    fam = get_family("poisson")
    theta = np.array([2.5])
    x = np.arange(0, 8, dtype=float)
    np.testing.assert_allclose(fam.pmf(theta, x), st.poisson.pmf(x, 2.5),
                               rtol=1e-12)
    F, S = fam.cdf_survival(theta, x)
    np.testing.assert_allclose(F, st.poisson.cdf(x, 2.5), rtol=1e-12)
    # survival uses X >= x, so F + S = 1 + P(X = x)
    np.testing.assert_allclose(F + S, 1.0 + st.poisson.pmf(x, 2.5),
                               rtol=1e-12)
    np.testing.assert_allclose(fam.score(theta, x)[:, 0], x / 2.5 - 1.0)
    assert fam.mle([1.0, 2.0, 6.0])[0] == pytest.approx(3.0)
    assert fam.fisher_information(theta)[0, 0] == pytest.approx(1 / 2.5)
    total = fam.pmf(theta, np.arange(0, 60, dtype=float)).sum()
    assert total == pytest.approx(1.0, abs=1e-6)


def test_normal_closed_forms():
    fam = get_family("normal")
    theta = np.array([1.0, 4.0])
    x = np.array([-2.0, 1.0, 3.5])
    F, S = fam.cdf_survival(theta, x)
    np.testing.assert_allclose(F, st.norm.cdf(x, 1.0, 2.0), rtol=1e-12)
    np.testing.assert_allclose(F + S, 1.0, rtol=1e-12)
    w = np.array([1.0, 2.0, 0.5])
    fit = fam.weighted_fit(x, w)
    mu = w @ x / w.sum()
    assert fit[0] == pytest.approx(mu)
    assert fit[1] == pytest.approx(w @ (x - mu) ** 2 / w.sum())
    info = fam.fisher_information(theta)
    np.testing.assert_allclose(info, [[1 / 4.0, 0.0], [0.0, 1 / 32.0]],
                               rtol=1e-10)
    area = quad(lambda t: fam.pdf(theta, t)[0], -30, 30, limit=200)[0]
    assert area == pytest.approx(1.0, abs=1e-6)


def test_exponential_closed_forms():
    fam = get_family("exponential")
    theta = np.array([0.5])
    x = np.array([0.1, 2.0, 9.0])
    F, S = fam.cdf_survival(theta, x)
    np.testing.assert_allclose(F, st.expon.cdf(x, scale=2.0), rtol=1e-12)
    np.testing.assert_allclose(S, st.expon.sf(x, scale=2.0), rtol=1e-12)
    w = np.array([2.0, 1.0, 1.0])
    assert fam.weighted_fit(x, w)[0] == pytest.approx(w.sum() / (w @ x))
    assert fam.fisher_information(theta)[0, 0] == pytest.approx(4.0)
    with pytest.raises(DomainError):
        fam.check_params(np.array([-1.0]))


def test_normal_location_fit_is_weighted_mean():
    fam = get_family("normal_location")
    x = np.array([0.0, 1.0, 5.0])
    w = np.array([1.0, 1.0, 0.0])
    assert fam.weighted_fit(x, w)[0] == pytest.approx(0.5)
    assert fam.fisher_information([0.0])[0, 0] == 1.0
    # theta reaches the family's methods as a float array
    np.testing.assert_allclose(fam.score(np.array([1.0]), x)[:, 0], x - 1.0)


def test_bvn_cdf_against_scipy():
    rng = np.random.default_rng(7)
    mvn = st.multivariate_normal
    for rho in (-0.95, -0.3, 0.0, 0.5, 0.9):
        cov = [[1.0, rho], [rho, 1.0]]
        hk = rng.uniform(-2.5, 2.5, size=(12, 2))
        ours = bvn_cdf(hk[:, 0], hk[:, 1], rho)[0]
        ref = np.array([mvn.cdf(p, mean=[0, 0], cov=cov) for p in hk])
        np.testing.assert_allclose(ours, ref, atol=5e-9)


def test_bivariate_quadrants_sum_to_one():
    fam = get_family("bivariate_normal")
    theta = np.array([0.5, -1.0, 2.0, 0.5, 0.4])
    xy = np.array([[0.0, 0.0], [1.5, -2.0], [-3.0, 1.0]])
    q = np.column_stack(fam.quadrant_probabilities(theta, xy))
    np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(q > 0)


def test_bivariate_residual_reads_the_first_smallest_quadrant(monkeypatch):
    # each point reads the quadrant of smallest model probability; a tie
    # goes to the first of ll, lg, gl, gg, and all-NaN probabilities give
    # +inf. The four points: lg smallest, a three-way tie at ll, a gl-gg
    # tie, and all NaN
    fam = get_family("bivariate_normal")
    q = tuple(np.array([row]) for row in ([0.2, 0.1, 0.3, np.nan],
                                          [0.1, 0.1, 0.3, np.nan],
                                          [0.1, 0.2, 0.05, np.nan],
                                          [0.3, 0.1, 0.05, np.nan]))
    monkeypatch.setattr(type(fam), "quadrant_probabilities",
                        lambda self, thetas, xy: q)
    values = np.arange(1.0, 17.0).reshape(4, 4) / 20
    tau = fam.residual(np.zeros((1, 5)), np.zeros((4, 2)), values, 0.5)
    emp, pm = values[[0, 1, 2, 3], [1, 0, 2, 0]], np.array([0.1, 0.1, 0.05])
    np.testing.assert_array_equal(tau[0, :3], emp[:3] / pm - 1.0)
    assert tau.shape == (1, 4) and tau[0, 3] == np.inf


def test_bivariate_weighted_fit_matches_numpy():
    rng = np.random.default_rng(5)
    xy = rng.normal(size=(60, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]])
    fam = get_family("bivariate_normal")
    fit = fam.mle(xy)
    mu = xy.mean(axis=0)
    cov = np.cov(xy.T, bias=True)
    np.testing.assert_allclose(fit[:2], mu, rtol=1e-10)
    assert fit[2] == pytest.approx(cov[0, 0])
    assert fit[3] == pytest.approx(cov[1, 1])
    assert fit[4] == pytest.approx(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))


def test_bivariate_score_zero_at_mle():
    rng = np.random.default_rng(6)
    xy = rng.normal(size=(40, 2))
    fam = get_family("bivariate_normal")
    u = fam.score(fam.mle(xy), xy)
    np.testing.assert_allclose(u.sum(axis=0), 0.0, atol=1e-8)


def _bivariate_score_stacked(theta, xy):
    """The bivariate score as five stacked expressions, each product
    written out where it is used."""
    s1, s2 = theta[..., 2:3], theta[..., 3:4]
    z1, z2, rho = get_family("bivariate_normal")._standardize(theta, xy)
    r2 = 1 - rho * rho
    return np.stack([
        (z1 - rho * z2) / (np.sqrt(s1) * r2),
        (z2 - rho * z1) / (np.sqrt(s2) * r2),
        (-1.0 + (z1 * z1 - rho * z1 * z2) / r2) / (2 * s1),
        (-1.0 + (z2 * z2 - rho * z1 * z2) / r2) / (2 * s2),
        (rho / r2
         + (z1 * z2 * (1 + rho * rho) - rho * (z1**2 + z2**2)) / r2**2),
    ], axis=-1)


@pytest.mark.parametrize("rows", [None, 1, 3, 51])
def test_bivariate_score_fills_the_stacked_expressions_bit_for_bit(rows):
    # the score computes each shared product once into one array and
    # gives the five written-out expressions bit for bit, for one theta
    # and for batches
    rng = np.random.default_rng(rows or 0)
    fam = get_family("bivariate_normal")
    for _ in range(20):
        b = rows or 1
        theta = np.column_stack([
            rng.normal(0, 3, b), rng.normal(0, 3, b), rng.uniform(1e-3, 5, b),
            rng.uniform(1e-3, 5, b), rng.uniform(-0.999, 0.999, b)])
        theta = theta[0] if rows is None else theta
        xy = rng.normal(0, 2, (int(rng.integers(1, 80)), 2))
        got, ref = fam.score(theta, xy), _bivariate_score_stacked(theta, xy)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_regression_weighted_fit_matches_lstsq():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 10, 50)
    y = 2.0 + 0.7 * x + rng.normal(0, 1.2, 50)
    w = rng.uniform(0.1, 1.0, 50)
    fam = get_family("normal_regression")
    fit = fam.weighted_fit(np.column_stack([x, y]), w)
    X = np.column_stack([np.ones(50), x])
    beta_ref = np.linalg.lstsq(X * np.sqrt(w)[:, None],
                               y * np.sqrt(w), rcond=None)[0]
    np.testing.assert_allclose(fit[:2], beta_ref, rtol=1e-10)
    e = y - X @ fit[:2]
    assert fit[2] == pytest.approx(np.sqrt(w @ (e * e) / w.sum()))


def test_regression_score_zero_at_fit():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 5, 30)
    y = 1.0 - 0.5 * x + rng.normal(0, 0.3, 30)
    fam = get_family("normal_regression")
    xy = np.column_stack([x, y])
    u = fam.score(fam.mle(xy), xy)
    np.testing.assert_allclose(u.sum(axis=0), 0.0, atol=1e-8)


def test_degenerate_weight_collapse():
    fam = get_family("normal")
    with pytest.raises(DegenerateFitError):
        fam.weighted_fit(np.array([1.0, 2.0]), np.array([1e-14, 1e-14]))


def test_poisson_batch_cdf_matches_pmf_sums():
    # direct summation of the pmf, with the survival side summed upward
    # from x so that its right tail keeps its relative accuracy
    fam = get_family("poisson")
    lams = np.array([0.01, 0.4, 2.5, 10.0, 40.0])
    x = np.arange(0.0, 61.0)
    F, S = fam.cdf_survival(lams[:, None], x)
    for b, lam in enumerate(lams):
        def pmf(k):
            return np.exp(k * np.log(lam) - lam - gammaln(k + 1))
        for i, k in enumerate(x):
            F_ref = min(pmf(np.arange(0.0, k + 1)).sum(), 1.0)
            S_ref = min(pmf(np.arange(k, k + 200)).sum(), 1.0)
            assert F[b, i] == pytest.approx(F_ref, rel=1e-13, abs=0)
            assert S[b, i] == pytest.approx(S_ref, rel=1e-13, abs=1e-300)
    F1, S1 = fam.cdf_survival(lams[2:3], x)
    np.testing.assert_array_equal(F1, F[2])
    np.testing.assert_array_equal(S1, S[2])


def test_bvn_quadrants_share_two_owens_t_calls():
    rng = np.random.default_rng(11)
    h, k = rng.normal(0.0, 2.0, (2, 40, 30))
    h[:, :5] = 0.0                 # points on the axes
    k[:, 3:8] = 0.0
    rho = rng.uniform(-0.99, 0.99, (40, 1))
    rho[::4] = 0.0
    q = bvn_cdf(h, k, rho)
    four = (bvn_cdf(h, k, rho)[0], bvn_cdf(h, -k, -rho)[0],
            bvn_cdf(-h, k, -rho)[0], bvn_cdf(-h, -k, rho)[0])
    for got, ref in zip(q, four):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sum(q), 1.0, atol=1e-12)
    # rho = 0 is the product of the margins
    np.testing.assert_array_equal(
        q[1][0], st.norm.cdf(h[0]) * st.norm.cdf(-k[0]))
    with pytest.raises(ValueError):
        bvn_cdf(h, k, np.full((40, 1), 1.0))


def _fit_rows(fam, x, w):
    """`fit_rows` under the silent float-error scope the solver gives it."""
    with np.errstate(all="ignore"):
        return fam.fit_rows(x, w)


def test_regression_batch_solve_matches_linalg():
    rng = np.random.default_rng(3)
    x = rng.uniform(-4.0, 12.0, 25)
    xy = np.column_stack([x, 1.5 - 0.4 * x + rng.normal(0.0, 0.8, 25)])
    w = rng.uniform(0.0, 1.0, (6, 25))
    w[0, 5:] = 0.0                 # five points carry the whole weight
    fam = get_family("normal_regression")
    fits = _fit_rows(fam, xy, w)
    X = np.column_stack([np.ones(25), x])
    for wb, fit in zip(w, fits):
        beta = np.linalg.solve((X.T * wb) @ X, (X.T * wb) @ xy[:, 1])
        np.testing.assert_allclose(fit[:2], beta, rtol=1e-12)
        e = xy[:, 1] - X @ beta
        assert fit[2] == pytest.approx(np.sqrt(wb @ (e * e) / wb.sum()),
                                       rel=1e-12)


def test_regression_batch_flags_degenerate_rows():
    fam = get_family("normal_regression")
    xy = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.0], [3.0, 7.0]])
    w = np.array([[1.0, 1.0, 1.0, 1.0],      # regular
                  [1e-14, 1e-14, 0.0, 0.0],  # total weight collapsed
                  [0.0, 1.0, 0.0, 0.0],      # one point: singular design
                  [1.0, 0.0, 0.0, 1.0]])     # two points: exact fit
    fits = _fit_rows(fam, xy, w)
    assert np.all(np.isfinite(fits[0]))
    assert np.all(np.isnan(fits[1:]).any(axis=1))
    for wb in w[1:]:
        with pytest.raises(DegenerateFitError):
            fam.weighted_fit(xy, wb)
    # a huge covariate overflows sxx: the row is singular, not b1 = 0
    xy[0, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_fit_rows(fam, xy, w[:1])).any()


def test_bivariate_fit_with_weight_on_one_point_is_degenerate():
    # weights concentrated on one point leave s1, s2 > 0 but s1 * s2
    # underflows; rho must not become +-inf and be clipped
    rng = np.random.default_rng(4)
    xy = rng.normal(size=(12, 2))
    w = np.full(12, 1e-200)
    w[3] = 1.0
    fam = get_family("bivariate_normal")
    with warnings.catch_warnings(), pytest.raises(DegenerateFitError):
        warnings.simplefilter("error")
        fam.weighted_fit(xy, w)
    fits = _fit_rows(fam, xy, np.vstack([w, np.ones(12)]))
    assert np.isnan(fits[0]).any()
    np.testing.assert_array_equal(fits[1], fam.mle(xy))  # the row contract


def test_bivariate_batch_fit_matches_weighted_covariance():
    rng = np.random.default_rng(5)
    xy = rng.normal(size=(30, 2)) @ np.array([[1.0, 0.6], [0.0, 0.5]])
    w = rng.uniform(0.1, 1.0, (4, 30))
    fits = _fit_rows(get_family("bivariate_normal"), xy, w)
    for wb, fit in zip(w, fits):
        cov = np.cov(xy.T, aweights=wb, bias=True)
        np.testing.assert_allclose(fit[:2], wb @ xy / wb.sum(), rtol=1e-12)
        np.testing.assert_allclose(fit[2:4], np.diag(cov), rtol=1e-12)
        assert fit[4] == pytest.approx(
            cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]), rel=1e-12)


_SCORE_CASES = {
    "poisson": (lambda r: r.poisson(2.0, 20).astype(float),
                [[0.5], [2.0], [7.0]]),
    "normal": (lambda r: r.normal(1.0, 2.0, 20),
               [[0.0, 1.0], [1.0, 4.0], [-2.0, 0.3]]),
    "exponential": (lambda r: r.exponential(2.0, 20), [[0.1], [0.5], [3.0]]),
    "normal_location": (lambda r: r.normal(size=20), [[0.0], [1.5], [-3.0]]),
    "bivariate_normal": (lambda r: r.normal(size=(20, 2)),
                         [[0.0, 0.0, 1.0, 1.0, 0.0],
                          [0.3, -0.2, 2.0, 0.5, 0.7],
                          [1.0, 1.0, 0.2, 3.0, -0.9]]),
    "normal_regression": (lambda r: r.normal(size=(20, 2)),
                          [[0.0, 1.0, 1.0], [1.0, -0.5, 0.2],
                           [-2.0, 3.0, 5.0]]),
}


@pytest.mark.parametrize("name", sorted(_SCORE_CASES))
def test_weighted_score_batch_matches_score(name):
    fam = get_family(name)
    rng = np.random.default_rng(2)
    draw, thetas = _SCORE_CASES[name]
    x, thetas = draw(rng), np.array(thetas)
    w = rng.uniform(0.0, 1.0, (len(thetas), len(x)))
    with np.errstate(all="ignore"):
        got = fam.score_rows(thetas, x, w)
    for b, theta in enumerate(thetas):
        ref = w[b] @ fam.score(theta, x)
        np.testing.assert_allclose(got[b], ref, rtol=1e-10,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("name", sorted(_SCORE_CASES))
def test_batch_rows_match_single_parameter_calls(name):
    # one formula serves both shapes: row b of a (B, dim) batch call is the
    # (dim,) call at parameter row b, bit for bit
    fam = get_family(name)
    draw, thetas = _SCORE_CASES[name]
    x, thetas = draw(np.random.default_rng(4)), np.array(thetas)
    model = (fam.quadrant_probabilities if fam.kind == "bivariate"
             else fam.cdf_survival)
    batch = model(thetas, x)
    scores = fam.score(thetas, x)
    assert scores.shape == (len(thetas), len(x), thetas.shape[1])
    for b, theta in enumerate(thetas):
        for rows, single in zip(batch, model(theta, x)):
            assert rows.shape == (len(thetas), len(x))
            assert single.shape == (len(x),)
            np.testing.assert_array_equal(rows[b], single)
        np.testing.assert_array_equal(scores[b], fam.score(theta, x))


def _regression_pairs(rng, n):
    x = rng.uniform(-4.0, 12.0, n)
    return np.column_stack([x, 1.5 - 0.4 * x + rng.normal(0.0, 0.8, n)])


_ROW_DRAWS = {
    "poisson": lambda r, n: r.poisson(2.0, n).astype(float),
    "normal": lambda r, n: r.normal(1.0, 2.0, n),
    "exponential": lambda r, n: r.exponential(2.0, n),
    "normal_location": lambda r, n: r.normal(size=n),
    "bivariate_normal": lambda r, n: (r.normal(size=(n, 2))
                                      @ np.array([[1.0, 0.6], [0.0, 0.5]])),
    "normal_regression": _regression_pairs,
}


@pytest.mark.parametrize("n", [30, 20_000])
@pytest.mark.parametrize("name", sorted(_ROW_DRAWS))
def test_a_row_has_the_same_bits_alone_as_in_a_batch(name, n):
    # each row of a weighted fit and of a weighted score is a computation
    # of that row alone: the 51 rows of a search's batch give the bits
    # that each row, copied, gives in a batch of one
    fam, rng = get_family(name), np.random.default_rng(7)
    x = fam.check_data(_ROW_DRAWS[name](rng, n))
    w = rng.uniform(0.0, 1.0, (51, n))
    w[1:4, 3:] = 0.0  # three points carry the whole weight
    with np.errstate(all="ignore"):
        fits = fam.fit_rows(x, w)
        scores = fam.score_rows(fits, x, w)
        assert np.all(np.isfinite(fits)) and np.all(np.isfinite(scores))
        for b in range(len(w)):
            one = np.array(w[b:b + 1])
            assert fam.fit_rows(x, one).tobytes() == fits[b].tobytes()
            assert (fam.score_rows(np.array(fits[b:b + 1]), x, one).tobytes()
                    == scores[b].tobytes())


_THREADS_RUN = """
import hashlib
import numpy as np
from wle.families import get_family

rng = np.random.default_rng(9)
w = rng.uniform(0.0, 1.0, (51, 20_000))
xy = rng.normal(size=(20_000, 2))
with np.errstate(all="ignore"):
    fits = (get_family("normal").fit_rows(np.array(xy[:, 1]), w),
            get_family("normal_regression").fit_rows(xy, w))
print(hashlib.sha256(b"".join(f.tobytes() for f in fits)).hexdigest())
"""


def test_fit_bits_do_not_depend_on_the_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 terms over its
    # threads, which regroups the sum; the fits sum in shorter blocks
    src = str(Path(__file__).resolve().parents[1] / "src")

    def digest(threads):
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": str(threads)}
        return subprocess.run([sys.executable, "-c", _THREADS_RUN],
                              check=True, capture_output=True, text=True,
                              env=env).stdout

    assert digest(1) == digest(2)


_RANGE_CASES = {
    "normal": [(0.0, 1.0), (3.0, 0.25), (-20.0, 400.0)],
    "normal_location": [(0.0,), (-4.5,)],
    "exponential": [(0.1,), (1.0,), (7.0,)],
    "poisson": [(0.05,), (0.4,), (2.5,), (60.0,), (1e4,)],
}


@pytest.mark.parametrize("name", sorted(_RANGE_CASES))
def test_integration_range_and_median(name):
    fam = get_family(name)
    for theta in map(np.array, _RANGE_CASES[name]):
        a, b = fam.integration_range(theta)
        if fam.discrete:
            # summed over the integers 0..b: the tail is P(X >= b + 1)
            assert a == 0
            below, above = 0.0, fam.cdf_survival(theta, [b + 1.0])[1][0]
        else:
            below = fam.cdf_survival(theta, [a])[0][0]
            above = fam.cdf_survival(theta, [b])[1][0]
            med = fam.median(theta)
            assert fam.cdf_survival(theta, [med])[0][0] == pytest.approx(
                0.5, abs=1e-15)
        # the exponential range leaves exactly TAIL_MASS, up to rounding
        assert below <= TAIL_MASS * (1 + 1e-12)
        assert above <= TAIL_MASS * (1 + 1e-12)


_INFO_CASES = {
    "normal": [(0.0, 1.0), (2.0, 4.0)],
    "normal_location": [(0.0,), (-1.5,)],
    "exponential": [(1.0,), (0.3,)],
    "poisson": [(0.4,), (2.5,)],
}


@pytest.mark.parametrize("name", sorted(_INFO_CASES))
def test_fisher_information_is_the_score_second_moment(name):
    # the first-order influence I(theta)^{-1} u_theta(y) rests on these
    # closed forms: I(theta) = E_theta[u u^T], integrated over the family's
    # range with a break at the median, or summed over its integers
    fam = get_family(name)
    for theta in map(np.array, _INFO_CASES[name]):
        a, b = fam.integration_range(theta)
        if fam.discrete:
            k = np.arange(a, b + 1.0)
            u = fam.score(theta, k)
            moment = np.einsum("n,ni,nj->ij", fam.pmf(theta, k), u, u)
        else:
            def integrand(x):
                u = fam.score(theta, x)
                return (fam.pdf(theta, x)[:, None, None]
                        * u[:, :, None] * u[:, None, :])

            moment = QUAD.integrate(integrand, a, b,
                                    points=[fam.median(theta)])
        np.testing.assert_allclose(moment, fam.fisher_information(theta),
                                   rtol=0, atol=1e-8)


def test_concentration_ellipse_mahalanobis():
    theta = np.array([1.0, -2.0, 2.0, 0.5, 0.6])
    pts = ellipse_polyline(theta, coverage=0.95, num=64)
    cov = np.array([[2.0, 0.6 * np.sqrt(1.0)], [0.6 * np.sqrt(1.0), 0.5]])
    inv = np.linalg.inv(cov)
    d = pts - np.array([1.0, -2.0])
    m2 = np.einsum("ij,jk,ik->i", d, inv, d)
    np.testing.assert_allclose(m2, st.chi2.ppf(0.95, 2), rtol=1e-8)
    with pytest.raises(ValueError):
        concentration_ellipse(theta, coverage=1.5)
    # a theta outside the bivariate parameter space, or of the wrong
    # length, is the family's DomainError, not NaN axes or an unpacking
    # error
    for bad in ([1.0, -2.0, -1.0, 0.5, 0.6], [1.0, -2.0, np.nan, 0.5, 0.6],
                [1.0, -2.0, 2.0, np.inf, 0.6], [1.0, -2.0, 2.0, 0.5],
                [1.0, -2.0, 2.0, 0.5, 0.6, 0.0]):
        for fn in (concentration_ellipse, ellipse_polyline):
            with pytest.raises(DomainError):
                fn(bad)


def test_score_matches_numeric_gradient_of_logpdf():
    # spot-check the normal score against finite differences
    fam = get_family("normal")
    theta = np.array([0.3, 1.7])
    x = np.array([1.4])

    def logpdf(th):
        return np.log(fam.pdf(th, x))[0]

    h = 1e-6
    for j in range(2):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        num = (logpdf(tp) - logpdf(tm)) / (2 * h)
        assert fam.score(theta, x)[0, j] == pytest.approx(num, abs=1e-5)


@pytest.mark.parametrize("name", ["normal", "normal_location",
                                  "normal_regression"])
def test_normal_error_cdf_survival_is_the_old_formula(name):
    # the normal-error families share one cdf_survival on their
    # standardized residual; it must give the formulas each family wrote
    # out before, bit for bit, for one theta and for a batch
    rng = np.random.default_rng(17)
    fam = get_family(name)
    if name == "normal":
        x = rng.normal(1.0, 3.0, 25)
        thetas = np.column_stack([rng.normal(size=6),
                                  rng.uniform(0.05, 9.0, 6)])

        def old(t):
            z = (x - t[..., 0:1]) / np.sqrt(t[..., 1:2])
            return ndtr(z), ndtr(-z)
    elif name == "normal_location":
        x = rng.normal(0.0, 2.0, 25)
        thetas = rng.normal(size=(6, 1))

        def old(t):
            z = x - t[..., 0:1]
            return ndtr(z), ndtr(-z)
    else:
        x = rng.normal(size=(25, 2))
        thetas = np.column_stack([rng.normal(size=6), rng.normal(size=6),
                                  rng.uniform(0.1, 3.0, 6)])

        def old(t):
            z = (x[:, 1] - t[..., 0:1] - t[..., 1:2] * x[:, 0]) / t[..., 2:3]
            return ndtr(z), ndtr(-z)
    for t in (thetas, thetas[2]):
        F, S = fam.cdf_survival(t, x)
        F0, S0 = old(t)
        assert F.shape == F0.shape and S.shape == S0.shape
        np.testing.assert_array_equal(F.view(np.uint64), F0.view(np.uint64))
        np.testing.assert_array_equal(S.view(np.uint64), S0.view(np.uint64))
