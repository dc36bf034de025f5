"""Acceptance suite: one test per published-results criterion.

Each test prints a single summary line and asserts the stated tolerances.
Known near-misses are asserted at their published tolerances regardless:
a red test here means the computed value genuinely sits outside the
stated band, not that the code path is broken (see the per-test notes).
"""

import time

import numpy as np
import pytest

from wle import (ContaminationSpec, GammaKernel, ModelDistribution,
                 ResidualConfig, SimulationPlan, SolverConfig, get_family,
                 load_dataset,
                 influence_first_order, influence_report,
                 fisher_consistency_check, bootstrap_root_search,
                 mixture_root_scan, reproduce_table, run_simulation,
                 solve_from)
from wle.residuals import EmpiricalFunctions, tau_branch
from wle.weights import GevKernel, ScaledFKernel, WeibullKernel

_CACHE = {}


def _table(table_id, **kw):
    key = (table_id, tuple(sorted(kw.items())))
    if key not in _CACHE:
        _CACHE[key] = reproduce_table(table_id, **kw)
    return _CACHE[key]


def _cells_by_key(report):
    return {(c.row, c.column): c for c in report.cells}


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_fruitfly_rates():
    rep = _table("table2")
    cells = _cells_by_key(rep)
    mle_ok = cells[("mle", "theta")].passed
    wle = [cells[("wle_gamma_alpha1.01", "theta")],
           cells[("wle_weibull_k1.01", "theta")]]
    ok = mle_ok and all(c.passed for c in wle) and rep.runtime_seconds < 1.0
    _report("criterion 1 (fruit-fly Poisson rates)", ok,
            f"mle={cells[('mle', 'theta')].computed:.4f}, "
            f"wle={[round(c.computed, 5) for c in wle]} vs 0.3948 +/- 1e-3, "
            f"{rep.runtime_seconds:.2f}s")


def test_criterion_01_bound_in_writing():
    # Why the band of criterion 1 is out of reach. The counts are 23 zeros,
    # 7 ones, 3 twos and one 91, and each table-2 root is the fixed point
    # lam = sum w x / sum w. There the 91 has weight 0, the zeros weight 1
    # and no weight exceeds 1, so lam = (7 w1 + 6 w2) / (23 w0 + 7 w1 +
    # 3 w2) <= 13/33, the outlier-deleted MLE, and the band's lower edge
    # needs w2 >= 0.99905 even at w1 = 1. The twos get about 0.9971 at the
    # root that the table reads, the selected root of the seed-0 search.
    x = load_dataset("drosophila").column("daughters")
    assert sorted(x) == [0.0] * 23 + [1.0] * 7 + [2.0] * 3 + [91.0]
    fam = get_family("poisson")
    cells = _cells_by_key(_table("table2"))
    edge = cells[("mle_outlier_deleted", "theta")]
    lam_d = fam.mle(x[x < 91])[0]
    assert lam_d == 13 / 33 and edge.computed == lam_d
    band = cells[("wle_gamma_alpha1.01", "theta")]
    low = band.reference - band.tol
    w2_needed = (30 * low - 7) / (6 - 3 * low)  # lam at w0 = w1 = 1
    assert w2_needed == pytest.approx(0.99905, abs=5e-6)
    w2s = []
    for label, spec in (("wle_gamma_alpha1.01", GammaKernel(1.01)),
                        ("wle_weibull_k1.01", WeibullKernel(1.01))):
        root = bootstrap_root_search(fam, x, ResidualConfig(), spec,
                                     SolverConfig(seed=0)).selected
        assert root.theta[0] == cells[(label, "theta")].computed
        w0, w1, w2, w91 = (np.unique(root.weights[x == v]).item()
                           for v in (0.0, 1.0, 2.0, 91.0))
        assert w91 == 0.0 and w0 == 1.0 and root.weights.max() <= 1.0
        lam = (7 * w1 + 6 * w2) / (23 * w0 + 7 * w1 + 3 * w2)
        assert root.theta[0] == pytest.approx(lam, rel=1e-8)
        assert lam <= 13 / 33
        w2s.append(w2)
    _report("criterion 1 bound (lam <= 13/33 with w0 = 1)",
            all(w2 < w2_needed for w2 in w2s),
            f"w2 = {[round(w2, 5) for w2 in w2s]}, band edge {low:.4f} "
            f"needs w2 >= {w2_needed:.5f}")


def test_criterion_02_passage_of_light():
    rep = _table("table3")
    wle_cells = [c for c in rep.cells if c.row != "mle"]
    ok = all(c.passed for c in wle_cells) and rep.runtime_seconds < 5.0
    worst = max(wle_cells, key=lambda c: abs(c.deviation) / c.tol)
    _report("criterion 2 (six normal fits, mu +/- 0.05, s2 +/- 0.5)", ok,
            f"worst cell {worst.row}/{worst.column}: "
            f"{worst.computed:.4f} vs {worst.reference:.4f}, "
            f"{rep.runtime_seconds:.2f}s")


def test_criterion_03_rainfall_rate():
    rep = _table("table4")
    cell = _cells_by_key(rep)[("wle_gamma_alpha1.05", "lambda")]
    _report("criterion 3 (rainfall rate 0.2786 +/- 0.005)", cell.passed,
            f"lambda={cell.computed:.4f}")


def test_criterion_04_beetle_roots_and_weights():
    r5, r6 = _table("table5"), _table("table6")
    _report("criterion 4 (three beetle roots +/- 0.02, weight pattern)",
            r5.passed and r6.passed,
            f"table5 {len(r5.cells) - r5.n_failed}/{len(r5.cells)}, "
            f"table6 {len(r6.cells) - r6.n_failed}/{len(r6.cells)} cells")


def test_criterion_05_population_root_scan():
    norm = get_family("normal")
    base = ModelDistribution(norm, (0.0, 1.0))
    spec = GammaKernel(1.05)

    def scan(eps, mean, var=1.0):
        cs = ContaminationSpec(base=base, eps=eps,
                               contaminant=ModelDistribution(norm,
                                                             (mean, var)))
        grid = np.arange(-4.0, mean + 4.0 + 1e-9, 0.05)
        return mixture_root_scan(cs, spec, grid)

    clean = scan(0.0, 5.0)
    far = scan(0.2, 5.0)
    near_01 = scan(0.1, 4.0)
    near_02 = scan(0.2, 4.0)
    ok = (len(clean) == 1 and abs(clean[0]) <= 1e-3
          and len(far) == 3
          and abs(far[0] - 0.0) <= 0.3 and abs(far[-1] - 5.0) <= 0.3
          and len(near_01) == 1 and len(near_02) > 1)
    _report("criterion 5 (mixture root counts and locations)", ok,
            f"eps=0: {clean}; eps=0.2: {[round(r, 3) for r in far]}; "
            f"N(4,1) roots at eps=0.1/0.2: {len(near_01)}/{len(near_02)}")


@pytest.mark.slow
def test_criterion_06_simulation_grids():
    t0 = time.perf_counter()
    reports = {tid: _table(tid, reps=1000)
               for tid in ("table7", "table8", "table9")}
    runtime = time.perf_counter() - t0
    failed = [(tid, c.row, c.column)
              for tid, rep in reports.items()
              for c in rep.cells if not c.passed]

    orderings_ok = True
    for tid in ("table7", "table9"):
        cells = _cells_by_key(reports[tid])
        for (row, col), c in cells.items():
            if col == "mle" or row == "eps=0":
                continue
            if c.computed >= cells[(row, "mle")].computed:
                orderings_ok = False
    loc = _cells_by_key(reports["table8"])
    wle_cols = [col for (row, col) in loc if col != "mle"]
    reversal_ok = all(loc[("eps=0.5", col)].computed
                      > loc[("eps=0.5", "mle")].computed for col in wle_cols)

    ok = not failed and orderings_ok and reversal_ok and runtime < 600
    _report("criterion 6 (MSE grids, R=1000, +/- 25% rel, 10% at eps=0)",
            ok, f"cells out of tolerance: {failed or 'none'}; "
                f"WLE<MLE orderings {'hold' if orderings_ok else 'broken'}; "
                f"eps=0.5 location reversal "
                f"{'holds' if reversal_ok else 'broken'}; {runtime:.0f}s")


def test_criterion_07_star_cluster_fit():
    rep = _table("table10")
    _report("criterion 7 (star-cluster bivariate fit)", rep.passed,
            f"{len(rep.cells) - rep.n_failed}/{len(rep.cells)} cells")


def test_criterion_08_beetle_bivariate_roots():
    rep = _table("table11")
    _report("criterion 8 (three bivariate roots from the seed-0 search)",
            rep.passed,
            f"{len(rep.cells) - rep.n_failed}/{len(rep.cells)} cells")


def test_criterion_09_regression_tables():
    r12, r13 = _table("table12"), _table("table13")
    _report("criterion 9 (regression fits and degenerate root)",
            r12.passed and r13.passed,
            f"table12 {len(r12.cells) - r12.n_failed}/{len(r12.cells)}, "
            f"table13 {len(r13.cells) - r13.n_failed}/{len(r13.cells)} cells")


def test_criterion_10_property_suite():
    checks = {}

    # weight-function invariants for one member of each family
    specs = [GammaKernel(1.5), WeibullKernel(1.5), GevKernel(5.0),
             ScaledFKernel(2.5, 1.0)]
    taus = np.array([-0.999, -0.5, 0.0, 0.7, 3.0, 50.0])
    checks["weights"] = all(
        s.weight(0.0) == pytest.approx(1.0, abs=1e-12)
        and s.weight(-1.0) == 0.0
        and abs(s.weight_derivative(0.0)) < 1e-12
        and np.all((s.weight(taus) >= 0) & (s.weight(taus) <= 1))
        for s in specs)

    # residual population-zero property at interior quantiles, large n
    fam = get_family("normal")
    rng = np.random.default_rng(0)
    x = rng.normal(size=50000)
    grid = np.linspace(-1.5, 1.5, 31)
    emp = EmpiricalFunctions(x)
    tau = tau_branch(emp.cdf(grid), emp.survival(grid),
                     *fam.cdf_survival(np.array([0.0, 1.0]), grid), 0.5)
    checks["residual-zero"] = np.max(np.abs(tau)) < 0.02

    # Fisher-consistency quadrature check
    fc = [np.max(np.abs(fisher_consistency_check(
            get_family(name), np.array(theta), ResidualConfig(), spec)))
          for name, theta in (("normal", (0.0, 1.0)), ("exponential", (1.0,)))
          for spec in (GammaKernel(1.5), ScaledFKernel(2.5, 1.0))]
    checks["fisher-consistency"] = max(fc) < 1e-6

    # influence function equals the MLE influence at the model
    t = influence_first_order(fam, (0.0, 1.0), GammaKernel(1.5), 2.0)
    checks["influence"] = np.allclose(t, [2.0, 3.0], atol=1e-5)

    # location-scale equivariance of the weighted fit
    xs = rng.normal(size=40)
    xs[:10] += 6.0
    cfg = SolverConfig(tol=1e-12)
    r1 = solve_from(fam, xs, ResidualConfig(), GammaKernel(1.2), cfg,
                    fam.mle(xs))
    r2 = solve_from(fam, 3.0 + 2.0 * xs, ResidualConfig(), GammaKernel(1.2),
                    cfg, fam.mle(3.0 + 2.0 * xs))
    checks["equivariance"] = (
        abs(r2.theta[0] - (3.0 + 2.0 * r1.theta[0])) < 1e-8
        and abs(r2.theta[1] - 4.0 * r1.theta[1]) < 1e-8 * r2.theta[1])

    # seed determinism of the simulation engine
    plan = SimulationPlan(scheme="scale", eps_grid=(0.0, 0.2), reps=5, seed=3)
    checks["determinism"] = run_simulation(plan) == run_simulation(plan)

    # second-order bias curve below the MLE line
    loc = get_family("normal_location")
    below = []
    for alpha in (2.0, 3.0, 5.0):
        rep = influence_report(loc, (0.0,), GammaKernel(alpha), 3.0)
        eps, bias = rep.bias_curve[:, 0], rep.bias_curve[:, 1]
        below.append(bool(np.all(bias[eps > 0] < 3.0 * eps[eps > 0])))
    checks["bias-curve"] = all(below)

    bad = [k for k, v in checks.items() if not v]
    _report("criterion 10 (property suite)", not bad,
            f"failing blocks: {bad or 'none'}")
