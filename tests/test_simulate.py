"""Monte-Carlo engine: determinism, serialization, statistical sanity."""

import json

import numpy as np
import pytest

from wle import simulate
from wle.families import DegenerateFitError
from wle.simulate import (SCHEMES, SimulationPlan, SimulationReport,
                          run_simulation)
from wle.tables import export_report


def _small_plan(**kw):
    defaults = dict(scheme="scale", eps_grid=(0.0, 0.3), reps=20, seed=0)
    defaults.update(kw)
    return SimulationPlan(**defaults)


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(scheme="cauchy")
    with pytest.raises(ValueError):
        SimulationPlan(eps_grid=(0.0, 0.7))
    with pytest.raises(ValueError):
        SimulationPlan(reps=0)
    with pytest.raises(ValueError, match=r"^seed = -1: "):
        SimulationPlan(seed=-1)
    # the plan's searches draw subsamples of 5: a smaller sample fails
    # when the plan is built, not partway through the run
    for n in (0, 4):
        with pytest.raises(ValueError, match=rf"^n = {n}: .* size 5$"):
            SimulationPlan(n=n)
    assert SimulationPlan(n=5).n == 5
    for name, value in (("n", 30.5), ("reps", 2.5), ("seed", 1.5)):
        with pytest.raises(ValueError, match=rf"^{name} = {value}: {name} "
                                             "must be an integer$"):
            SimulationPlan(**{name: value})
    # eps_grid is a non-empty sequence of levels, kept as a tuple so the
    # frozen plan hashes
    for grid in (0.1, (), "0.1"):
        with pytest.raises(ValueError, match=r"^eps_grid = .*: eps_grid must"):
            SimulationPlan(eps_grid=grid)
    plan = SimulationPlan(eps_grid=[0.0, 0.2])
    assert plan.eps_grid == (0.0, 0.2)
    assert hash(plan) == hash(SimulationPlan(eps_grid=(0.0, 0.2)))


def test_a_cell_where_every_search_fails_reads_nan(monkeypatch):
    def fail(*args):
        raise DegenerateFitError("no converged roots found")

    monkeypatch.setattr(simulate, "bootstrap_root_search", fail)
    rep = run_simulation(_small_plan(eps_grid=(0.1,), reps=3))
    assert rep.failures.tolist() == [[0, 3, 3]]
    assert rep.mean_root_count[0, 0] == 1.0
    for values in (rep.mse, rep.mc_se, rep.var, rep.mean_root_count):
        assert np.isfinite(values[0, 0]) and np.all(np.isnan(values[0, 1:]))


def test_a_cell_where_some_searches_fail_reduces_its_survivors(monkeypatch):
    # every third search fails; each cell's columns are the usual
    # reductions over the replications whose search succeeded, and the
    # searches run per replication, one per kernel in order
    search, calls, found = simulate.bootstrap_root_search, [], {}

    def every_third(family, x, rc, spec, sc):
        calls.append(spec)
        if len(calls) % 3 == 0:
            raise DegenerateFitError("no converged roots found")
        rs = search(family, x, rc, spec, sc)
        found[len(calls) - 1] = rs.selected.theta[0], len(rs.roots)
        return rs

    monkeypatch.setattr(simulate, "bootstrap_root_search", every_third)
    plan = _small_plan(reps=7)
    rep = run_simulation(plan)
    k = len(plan.weight_specs)
    assert len(calls) == len(plan.eps_grid) * plan.reps * k
    target = SCHEMES[plan.scheme][1]
    for ie in range(len(plan.eps_grid)):
        for je, spec in enumerate(plan.weight_specs, start=1):
            idx = [(ie * plan.reps + r) * k + je - 1 for r in range(plan.reps)]
            assert all(calls[i] == spec for i in idx)
            ok = [found[i] for i in idx if i in found]
            assert 0 < len(ok) < plan.reps
            assert rep.failures[ie, je] + len(ok) == plan.reps
            est = np.array([e for e, _ in ok])
            err = (est - target) ** 2
            np.testing.assert_allclose(
                [rep.mse[ie, je], rep.mc_se[ie, je], rep.var[ie, je],
                 rep.mean_root_count[ie, je]],
                [err.mean(), err.std(ddof=1) / np.sqrt(len(ok)), est.var(),
                 np.mean([c for _, c in ok])], rtol=1e-12)
    assert rep.failures[:, 0].tolist() == [0, 0]


def _no_nan_token(name):
    raise AssertionError(f"JSON holds a bare {name} token")


@pytest.mark.parametrize("fails", ["second_kernel", "every_search"])
def test_failed_cells_are_json_null_and_round_trip(monkeypatch, fails):
    search = simulate.bootstrap_root_search
    second = SimulationPlan.weight_specs[1]

    def patched(family, x, rc, spec, sc):
        if fails == "every_search" or spec == second:
            raise DegenerateFitError("no converged roots found")
        return search(family, x, rc, spec, sc)

    monkeypatch.setattr(simulate, "bootstrap_root_search", patched)
    rep = run_simulation(_small_plan(reps=3))
    failed = 2 if fails == "second_kernel" else 1
    assert np.isnan(rep.mse[:, failed:]).all() and rep == rep
    text = rep.to_json()
    d = json.loads(text, parse_constant=_no_nan_token)
    assert all(row[failed:] == [None] * (3 - failed) for row in d["mse"])
    back = SimulationReport.from_json(text)
    assert back == rep and back.failures.dtype.kind == "i"
    assert back.mse.dtype == float and np.isnan(back.mse[:, failed:]).all()
    np.testing.assert_array_equal(back.mean_root_count, rep.mean_root_count)
    assert back.to_json() == text
    # the CSV keeps nan for a failed cell
    rows = export_report(rep, "csv").splitlines()[1:]
    assert [row.endswith(",nan,nan,nan,nan,3") for row in rows] == [
        je >= failed for ie in range(2) for je in range(3)]


def test_report_shapes_and_labels():
    rep = run_simulation(_small_plan())
    assert rep.mse.shape == (2, 3)
    assert rep.estimators[0] == "mle"
    assert all(lab.startswith("wle[GammaKernel") for lab in rep.estimators[1:])
    assert np.all(np.isfinite(rep.mse))
    assert np.all(rep.mc_se >= 0)
    assert np.all(rep.mean_root_count >= 1)
    assert rep.failures.sum() == 0


def test_seed_determinism_bit_identical():
    r1 = run_simulation(_small_plan())
    r2 = run_simulation(_small_plan())
    assert r1 == r2
    assert np.array_equal(r1.mse, r2.mse)


def test_different_seed_different_draws():
    r1 = run_simulation(_small_plan())
    r2 = run_simulation(_small_plan(seed=1))
    assert not np.array_equal(r1.mse, r2.mse)


def test_json_round_trip():
    rep = run_simulation(_small_plan())
    back = SimulationReport.from_json(rep.to_json())
    assert back == rep
    np.testing.assert_array_equal(back.mse, rep.mse)


def test_json_version_guard():
    rep = run_simulation(_small_plan(reps=2))
    d = rep.to_dict()
    d["version"] = 99
    with pytest.raises(ValueError):
        SimulationReport.from_dict(d)


def test_contamination_inflates_mle_mse():
    rep = run_simulation(_small_plan(scheme="location", reps=50))
    # eps = 0.3 location shift devastates the MLE relative to eps = 0
    assert rep.mse[1, 0] > 5 * rep.mse[0, 0]


def test_weighted_estimates_resist_contamination():
    rep = run_simulation(_small_plan(scheme="location", reps=50))
    # both weighted estimators beat the MLE under 30% contamination
    assert rep.mse[1, 1] < rep.mse[1, 0]
    assert rep.mse[1, 2] < rep.mse[1, 0]


def test_exponential_scheme_targets_unit_rate():
    rep = run_simulation(_small_plan(scheme="exponential", eps_grid=(0.0,),
                                     reps=50))
    # clean-data MSEs of rate estimates around 1 are small for all entries
    assert np.all(rep.mse[0] < 0.2)


def test_clean_data_efficiency_close_to_mle():
    # with n = 500 clean normal observations the weighted estimator pays
    # only a small efficiency premium over maximum likelihood
    plan = SimulationPlan(scheme="scale", eps_grid=(0.0,), n=500, reps=100,
                          seed=0)
    rep = run_simulation(plan)
    ratio = rep.var[0, 1] / rep.var[0, 0]
    assert 0.9 < ratio < 1.15


def test_scheme_samplers_hit_their_targets():
    rng = np.random.default_rng(0)
    for name, (_, target, base, contam) in SCHEMES.items():
        xb = base(rng, 20000)
        xc = contam(rng, 20000)
        # the contaminant is more dispersed or shifted away from the base
        assert np.var(xc) > 2 * np.var(xb) or abs(
            np.mean(xc) - np.mean(xb)) > 2
        del target


def test_json_round_trip_nan_cell_and_failures():
    # a cell without any converged root is NaN and its failures count
    # stays an integer through JSON
    rep = run_simulation(_small_plan(reps=2))
    rep.mse[1, 2] = rep.mc_se[1, 2] = rep.var[1, 2] = np.nan
    rep.failures[1, 2] = 2
    text = rep.to_json()
    back = SimulationReport.from_json(text)
    assert back.failures.dtype.kind == "i"
    assert back.failures[1, 2] == 2 and np.isnan(back.mse[1, 2])
    assert back.to_json() == text


def test_export_report_is_the_reports_own_writer():
    # a report writes its own JSON and CSV, one CSV column per array field,
    # so a new column needs no edit of the exporter
    rep = run_simulation(_small_plan())
    assert export_report(rep, "json") == rep.to_json()
    assert export_report(rep, "csv") == rep.to_csv()
    assert rep.to_csv().splitlines()[0].split(",") == [
        "scheme", "eps", "estimator", "mse", "mc_se", "var",
        "mean_root_count", "failures"]
