"""Monte-Carlo engine: determinism, serialization, statistical sanity."""

import numpy as np
import pytest

from wle.simulate import (SCHEMES, SimulationPlan, SimulationReport,
                          run_simulation)


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
