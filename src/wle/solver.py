"""Weighted-likelihood estimating equation solver and multi-root search.

The estimating equation sum_i w_i(theta) u_theta(X_i) = 0 is solved by
iteratively reweighted closed-form estimation: freeze the weights at the
current parameter, solve the weighted likelihood equation in closed form,
repeat, with each step extrapolated from the last two (safeguarded
depth-one Anderson acceleration). Multiple roots are enumerated by
restarting from MLEs of small bootstrap subsamples, deduplicated, and
ranked by total weight. Every start of a search iterates as one row of a
single batch, for every family; a single start is the batch of one.
"""

import functools
import math
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .families import DegenerateFitError
from .residuals import BLOCK_ELEMENTS, tau_for_sample

SCORE_RESIDUAL_TOL = 1e-6  # converged roots satisfy ||sum w u||_inf < tol * n
ROOT_TOL = 1e-4            # relative sup-norm within which roots are one
MIN_WEIGHT_SHARE = 0.25    # share of the combined root weight the second
                           # root needs to win selection
STALL_STEP = 64 * np.finfo(float).eps  # relative steps this small are
                                       # rounding noise at a fixed point
_TINY = np.finfo(float).tiny  # a zero df gives gamma 0, the plain step


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8              # relative parameter change
    max_iter: int = 500            # per start
    bootstrap_b: int = 50          # number of bootstrap restarts
    bootstrap_m: int = 3           # bootstrap subsample size
    eligibility_share: float = 0.0 # roots below this share of n are kept in
                                   # the report but never win selection
    seed: int = 0

    def __post_init__(self):
        check_settings(self, tol=0, max_iter=1, bootstrap_b=1, bootstrap_m=2,
                       seed=0)
        if not 0 <= self.eligibility_share < 1:
            raise ValueError("eligibility share must be in [0, 1)")

    def subsample_size(self, family, n):
        """The bootstrap subsample size for `family`; a smaller n raises."""
        if n < (m := max(self.bootstrap_m, family.min_subsample)):
            raise ValueError(f"n = {n}: the sample size must be at least "
                             f"the bootstrap subsample size {m}")
        return m


def check_settings(config, **bounds):
    """A ValueError, by the field's name, for the first keyword field of
    `config` outside its bound: an `int` field must hold an integer of at
    least its bound, a `float` field a finite number above it."""
    types = {f.name: f.type for f in fields(config)}
    for name, bound in bounds.items():
        value = getattr(config, name)
        if types[name] is not int:
            if (isinstance(value, Real) and math.isfinite(value)
                    and value > bound):
                continue
            rule = f"finite and > {bound}"
        elif not isinstance(value, (int, np.integer)):
            rule = "an integer"
        elif value < bound:
            rule = f">= {bound}"
        else:
            continue
        raise ValueError(f"{name} = {value!r}: {name} must be {rule}")


@dataclass
class Root:
    theta: np.ndarray
    weights: np.ndarray
    weight_sum: float
    iterations: int
    converged: bool
    score_residual: float

    def summary(self):
        return {
            "theta": [float(v) for v in self.theta],
            "weight_sum": self.weight_sum,
            "iterations": self.iterations,
            "converged": self.converged,
            "score_residual": self.score_residual,
        }


@dataclass
class RootSet:
    roots: list            # distinct converged roots, weight sum descending
    selected_index: int
    n: int                 # sample size
    selection_rule: str = "highest"
    n_restarts: int = 0
    n_failed: int = 0
    n_skipped_subsamples: int = 0
    non_converged: list = field(default_factory=list)

    @property
    def selected(self):
        return self.roots[self.selected_index]

    def summary(self):
        """Every field, a list of roots as their summaries."""
        return {f.name: [r.summary() for r in v] if f.type is list else v
                for f in fields(self) for v in [getattr(self, f.name)]}


def _checked_data(family, data, residual_config):
    """The data from `family.check_data`; a residual kind other than the
    family's raises."""
    if residual_config.kind != family.kind:
        raise ValueError(f"residual kind {residual_config.kind!r} does not "
                         f"match the {family.kind!r} family {family.name!r}")
    return family.check_data(data)


def _solve_batch(family, data, residual_config, weight_spec, solver_config,
                 theta0s):
    """Reweighted fixed-point iteration from a (B, dim) batch of starts.

    Each row steps theta <- weighted_fit(data, w(theta)), extrapolated by
    Anderson(1) while its step shrinks. A row has converged once its
    relative plain step is below `tol` and its weighted score is solved,
    ||sum_i w_i u_theta(X_i)||_inf < SCORE_RESIDUAL_TOL * n (ill-scaled
    parameters need extra iterations after the step is small);
    it has stalled at a numerical fixed point when its relative step is at
    most STALL_STEP without a solved score. A converged row takes one more
    step while other rows iterate: if its next point converges too, its
    Root is a fixed point to `tol` and takes in every row whose current
    point comes within ROOT_TOL of it, by the clustering rule; such a row
    stops as that same Root object. Returns a list of Root-or-None aligned
    with theta0s: non-convergence is flagged, a non-finite start or a
    degenerate or non-finite weighted fit gives None. It runs in one
    `np.errstate(all="ignore")` scope and calls bodies that enter none.
    """
    thetas = np.array(theta0s, dtype=float, ndmin=2)
    nstart, n = len(thetas), len(data)
    tol, max_iter = solver_config.tol, solver_config.max_iter
    empirical = family.empirical(data)
    if empirical is not None:
        # its read-only copy of the sample passes the sample check by identity
        data = empirical.sample

    # every residual, kernel and score acts row by row (regression ranks
    # each row, bivariate reads the quadrants per element), so blocks of
    # rows give the whole batch's weights and certificates bit for bit;
    # a batch of one block is passed as it is, with no buffer
    step = max(1, BLOCK_ELEMENTS // n)

    def by_blocks(fn, cols, *arrays):  # fn of `step` rows at a time
        if len(arrays[0]) <= step:
            return fn(*arrays)
        out = np.empty((len(arrays[0]), *cols))
        for i in range(0, len(out), step):
            out[i:i + step] = fn(*(a[i:i + step] for a in arrays))
        return out

    def weights(th):
        return weight_spec.weight_rows(tau_for_sample(
            residual_config, family, th, data, empirical))

    def score_residuals(th, w):  # ||sum_i w_i u_theta(X_i)||_inf per row
        return np.maximum.reduce(np.abs(family.score_rows(th, data, w)),
                                 axis=1)

    roots = [None] * nstart         # each row's Root, built where it stops
    fixed = []                      # the Roots whose next point converged,
    at = np.empty((0, thetas.shape[1]))  # and their thetas
    with np.errstate(all="ignore"):
        ok = np.logical_and.reduce(np.isfinite(thetas), axis=1)
        active = ok.nonzero()[0]    # rows still iterating, and for each:
        x = thetas[active]          # its current point
        w = by_blocks(weights, (n,), x)  # its weights there
        pf = pg = np.zeros_like(x)  # its last plain step f and fit g
        pdelta = np.full(active.size, np.nan)  # its last relative step, or NaN
        held = np.zeros(active.size, dtype=bool)  # whether it converged there
        for it in range(1, max_iter + 1):
            g = family.fit_rows(data, w)
            ok = np.logical_and.reduce(np.isfinite(g), axis=1)
            if not np.logical_and.reduce(ok):
                keep = ok.nonzero()[0]
                active, x, g, pf, pg, pdelta, held = (
                    a.take(keep, 0)
                    for a in (active, x, g, pf, pg, pdelta, held))
            f = g - x
            scale = 1.0 + np.maximum.reduce(np.abs(x), axis=1)
            delta = np.maximum.reduce(np.abs(f), axis=1) / scale
            # Anderson(1): step to g - gamma (g - g_prev), gamma = (df.f) /
            # (df.df), one df over the row's scale against overflow. A row
            # with no history, a near one, one whose step grew (its history
            # restarts there) and one extrapolated out of the space step to g
            df = f - pf
            q = df / scale[:, None]
            gamma = np.vecdot(q, f) / (np.vecdot(q, df) + _TINY)
            x = g - gamma[:, None] * (g - pg)
            take = (delta <= pdelta) & (delta >= tol)
            x = np.where((take & family.in_space(x))[:, None], x, g)
            pf, pg, pdelta = f, g, delta
            w = by_blocks(weights, (n,), x)
            # a near row converges at x, which is its g. A held row stops,
            # and its Root is fixed if it converges again at x
            near, last = delta < tol, it == max_iter
            check = (near | last | held).nonzero()[0]
            if check.size:
                r = by_blocks(score_residuals, (), x[check], w[check])
                conv = near[check] & (r < SCORE_RESIDUAL_TOL * n)
                fixed += (roots[i] for i in active[check[held[check] & conv]])
            gone = held                 # the rows that stop here
            # a row whose point is near a fixed Root stops as that Root
            if fixed:
                if len(at) < len(fixed):
                    at = np.array([r.theta for r in fixed])
                close = _near_roots(x, at)
                hit = np.logical_or.reduce(close, axis=1)
                if np.logical_or.reduce(hit):
                    hit &= ~held
                    for i, j in zip(active[hit], close[hit].argmax(axis=1)):
                        roots[i] = fixed[j]
                    gone = gone | hit
            # any other converged row is held for one more step, unless
            # this is the last; a stalled row and, on the last iteration,
            # every row stop, out of iterations unless converged
            if check.size:
                new = ~gone[check] & (conv | (delta[check] <= STALL_STEP)
                                      | last)
                out = check[new]
                # the rows' copies, so no Root holds the whole batch
                for i, xi, wi, c, ri in zip(active[out], x[out], w[out],
                                            conv[new], r[new]):
                    roots[i] = Root(theta=xi, weights=wi,
                                    weight_sum=float(np.add.reduce(wi)),
                                    iterations=it, converged=bool(c),
                                    score_residual=float(ri))
                hold = new & conv & (not last)
                gone = gone.copy()
                gone[check[new & ~hold]] = True
                held = np.zeros(active.size, dtype=bool)
                held[check[hold]] = True
            if gone is not held:        # a row may have stopped
                # held rows wait only while other rows may come near them
                if not np.logical_or.reduce(~(gone | held)):
                    break
                keep = (~gone).nonzero()[0]
                active, x, w, pf, pg, pdelta, held = (
                    a.take(keep, 0)
                    for a in (active, x, w, pf, pg, pdelta, held))
            if not active.size:
                break
    return roots


def solve_from(family, data, residual_config, weight_spec, solver_config,
               theta0):
    """Iterate the reweighted closed-form step from a single start.

    Returns a Root; non-convergence is flagged, not raised. A degenerate
    weighted fit (collapsed weight mass or spread) raises
    DegenerateFitError.
    """
    data = _checked_data(family, data, residual_config)
    theta0 = family.check_params(theta0)
    root = _solve_batch(family, data, residual_config, weight_spec,
                        solver_config, theta0[None, :])[0]
    if root is None:
        raise DegenerateFitError("weighted fit degenerated during iteration")
    return root


def _near_roots(thetas, roots):
    """near[i, j]: row i of `thetas` lies within ROOT_TOL of row j of
    `roots` in sup-norm, relative to its own 1 + max|theta|; the distances
    are taken one parameter column at a time."""
    dist = functools.reduce(np.maximum, (np.abs(t[:, None] - r[None, :])
                                         for t, r in zip(thetas.T, roots.T)))
    return dist / (1.0 + np.max(np.abs(thetas), axis=1))[:, None] < ROOT_TOL


def cluster_roots(roots):
    """Deduplicate converged roots; keep the highest-weight representative.

    In decreasing weight order, a root joins the kept root before it that
    it agrees with to ROOT_TOL in sup-norm, relative to its own
    1 + max|theta|; otherwise it is kept."""
    ranked = sorted(roots, key=lambda r: -r.weight_sum)
    if not ranked:
        return []
    thetas = np.array([r.theta for r in ranked])
    near = _near_roots(thetas, thetas)
    covered = np.zeros(len(ranked), dtype=bool)
    distinct = []
    for i, r in enumerate(ranked):
        if not covered[i]:
            distinct.append(r)
            covered |= near[:, i]
    return distinct


# numpy SeedSequence's hash constants, and Philox4x64's round multipliers
# and key increments (Salmon et al., SC 2011)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _MIX_L = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD
_INIT_B, _MULT_B, _MIX_R = 0x8B51F9DD, 0x58F38DED, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _hash(value, const, mult):
    """SeedSequence's hash of 32-bit words, and the next hash constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _restart_keys(seed, b):
    """(2, b) uint64 Philox keys of `SeedSequence(seed, spawn_key=(i,))`,
    i < b. The seed's words are mixed into the pool once, in Python ints;
    the spawn key, the last word, enters the four pool words under hash
    constants that do not depend on it, as one (4, b) round, and
    `generate_state(2, uint64)` hashes the (4, b) pool the same way."""
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    words += [0] * (4 - len(words))  # a spawn key pads the seed to the pool
    const, pool = _INIT_A, []
    for w in words[:4]:
        v, const = _hash(w, const, _MULT_A)
        pool.append(v)
    for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
        v, const = _hash(pool[src], const, _MULT_A)
        pool[dst] = _mix(pool[dst], v)
    for w, dst in [(w, d) for w in words[4:] for d in range(4)]:
        v, const = _hash(w, const, _MULT_A)
        pool[dst] = _mix(pool[dst], v)
    powers = np.arange(4, dtype=np.uint32)[:, None]
    v = _hash(np.arange(b, dtype=np.uint32), const * _MULT_A**powers, _MULT_A)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], v[0])
    state = _hash(pool, _INIT_B * _MULT_B**powers, _MULT_B)[0]
    return state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32


def _philox_blocks(key, blocks):
    """(b, 4 blocks) uint64 Philox4x64-10 output of counters (k, 0, 0, 0),
    k = 1 .. blocks, under each of the b keys. Counter words 0 and 2 (x)
    are multiplied, from 32-bit halves, and words 1 and 3 (y) are not."""
    mult, bump = (np.array(c, dtype=np.uint64)[:, None, None]
                  for c in (_PHILOX_M, _PHILOX_W))
    lo32, hi32 = mult & _MASK32, mult >> 32
    x = np.zeros((2, key.shape[1], blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1)
    y, key = np.zeros_like(x), key[:, :, None]
    for _ in range(10):  # uint64 array products and sums wrap mod 2**64
        xl, xh = x & _MASK32, x >> 32
        ll, hl = lo32 * xl, hi32 * xl
        mid = (ll >> 32) + (hl & _MASK32) + lo32 * xh
        hi = hi32 * xh + (hl >> 32) + (mid >> 32)
        x, y, key = hi[::-1] ^ y ^ key, (mult * x)[::-1], key + bump
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(len(x[0]), -1)


@functools.lru_cache(maxsize=1)
def _subsample_indices(seed, b, n, m):
    """Read-only (b, m) subsample indices; restart i draws its row from its
    own Philox stream, as numpy's `Generator(Philox(SeedSequence(seed,
    spawn_key=(i,)))).integers(0, n, size=m)` bit for bit, and the b streams
    are computed together. The indices depend on nothing else, so the last
    array serves the next search with the same arguments, such as the
    second kernel's search of a simulation replication."""
    if not 0 < n <= 1 << 32:
        raise ValueError(f"n = {n}: subsample indices need 0 < n <= 2**32")
    key = _restart_keys(int(seed), b)
    # numpy's bounded draw: each output's low 32-bit word, then its high
    # word w gives (w n) >> 32, unless (w n) mod 2**32 < (2**32 - n) mod n
    floor, blocks = ((1 << 32) - n) % n, -(-m // 8)
    while True:
        out = _philox_blocks(key, blocks)
        wn = np.stack([out & _MASK32, out >> 32], axis=-1).reshape(b, -1) * n
        ok = (wn & _MASK32) >= floor
        if np.all(np.count_nonzero(ok, axis=1) >= m):
            break
        blocks *= 2
    first = np.argsort(~ok, axis=1, kind="stable")[:, :m]
    idx = np.take_along_axis(wn >> 32, first, axis=1).astype(np.int64)
    idx.flags.writeable = False
    return idx


def _subsample_starts(family, data, solver_config):
    """MLE starting values from seeded with-replacement subsamples.

    The subsample multiplicities form one (B, n) weight batch with a single
    weighted fit; a degenerate or non-finite fit skips its subsample.
    """
    n, b = len(data), solver_config.bootstrap_b
    m = solver_config.subsample_size(family, n)
    idx = _subsample_indices(solver_config.seed, b, n, m)
    counts = np.zeros((b, n))
    np.add.at(counts, (np.arange(b)[:, None], idx), 1.0)
    fits = family.weighted_fit_batch(data, counts)
    ok = np.all(np.isfinite(fits), axis=1)
    return list(fits[ok]), b - int(np.count_nonzero(ok))


def _choose_index(roots, n, solver_config):
    """Selection rule on a weight-ordered root list.

    Roots carrying less than eligibility_share * n total weight never win.
    Among the eligible roots, the second-highest weight sum wins when it
    holds at least MIN_WEIGHT_SHARE of their combined weight; otherwise
    the highest does.
    """
    eligible = [i for i, r in enumerate(roots)
                if r.weight_sum >= solver_config.eligibility_share * n]
    if not eligible:
        return 0, "highest"
    total = sum(roots[i].weight_sum for i in eligible)
    if (len(eligible) >= 2 and roots[eligible[1]].weight_sum
            >= MIN_WEIGHT_SHARE * total):
        return eligible[1], "second-highest"
    return eligible[0], "highest"


def build_root_set(roots, n, solver_config, n_skipped_subsamples=0):
    """Cluster, rank and apply the root-selection rule to one Root-or-None
    per start (starts may share one), reading the start counts off `roots`.
    With no converged root this raises DegenerateFitError, counting the
    starts that degenerated (None), those that did not certify, and the
    skipped subsamples."""
    n_failed = sum(r is None for r in roots)
    found = {id(r): r for r in roots if r is not None}.values()
    non_conv = cluster_roots([r for r in found if not r.converged])
    distinct = cluster_roots([r for r in found if r.converged])
    if not distinct:
        raise DegenerateFitError(
            f"no converged roots found: of {len(roots)} starts, {n_failed}"
            f" degenerated and {len(roots) - n_failed} did not certify; "
            f"{n_skipped_subsamples} subsamples skipped")
    selected, rule = _choose_index(distinct, n, solver_config)
    return RootSet(roots=distinct, selected_index=selected, n=n,
                   selection_rule=rule, n_restarts=len(roots),
                   n_failed=n_failed, non_converged=non_conv,
                   n_skipped_subsamples=n_skipped_subsamples)


def bootstrap_root_search(family, data, residual_config, weight_spec,
                          solver_config):
    """Enumerate distinct roots via bootstrap-subsample MLE restarts.

    The full-sample MLE is always included as an extra start, so the
    MLE-like root cannot be missed by unlucky subsampling; a degenerate
    or non-finite MLE fails as a start. All starts iterate together as one
    batch. Data that `family.check_data` rejects raise DomainError, and a
    residual kind other than the family's raises ValueError.
    """
    data = _checked_data(family, data, residual_config)
    n = len(data)
    starts, skipped = _subsample_starts(family, data, solver_config)
    starts.insert(0, family.weighted_fit_batch(data, np.ones((1, n)))[0])
    roots = _solve_batch(family, data, residual_config, weight_spec,
                         solver_config, np.asarray(starts))
    return build_root_set(roots, n, solver_config,
                          n_skipped_subsamples=skipped)
