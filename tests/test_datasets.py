"""Bundled datasets: counts, checksums, and documented landmark values."""

import numpy as np
import pytest

from wle.datasets import DatasetError, dataset_names, load_dataset

EXPECTED_N = {
    "drosophila": 34,
    "newcomb": 66,
    "rainfall": 31,
    "lubischew": 43,
    "hertzsprung_russell": 47,
    "animals": 28,
    "voltage_drop": 41,
}


def test_names_and_counts():
    assert dataset_names() == sorted(EXPECTED_N)
    for name, n in EXPECTED_N.items():
        ds = load_dataset(name)
        assert ds.n == n
        assert len(ds.columns) >= 1
        assert ds.provenance


def test_unknown_name():
    with pytest.raises(DatasetError):
        load_dataset("galaxy")


def test_unknown_column_names_it_and_the_columns():
    with pytest.raises(DatasetError,
                       match=r"^no column 'nope'; columns: \('deviation',\)$"):
        load_dataset("newcomb").column("nope")


def test_drosophila_frequency_table():
    counts = load_dataset("drosophila").column("daughters")
    assert np.sum(counts == 0) == 23
    assert np.sum(counts == 1) == 7
    assert np.sum(counts == 2) == 3
    assert np.max(counts) == 91


def test_newcomb_outliers_present():
    x = load_dataset("newcomb").column("deviation")
    assert -44.0 in x and -2.0 in x
    assert np.mean(x) == pytest.approx(26.2121, abs=1e-4)


def test_rainfall_documented_estimates():
    x = load_dataset("rainfall").column("rainfall_mm")
    assert 1.0 / np.mean(x) == pytest.approx(0.2224, abs=5e-4)
    trimmed = np.sort(x)[:-1]  # drop the single large outlier
    assert 1.0 / np.mean(trimmed) == pytest.approx(0.2747, abs=5e-4)


def test_lubischew_species_split():
    ds = load_dataset("lubischew")
    species = ds.column("species")
    assert np.sum(species == "concinna") == 21
    assert np.sum(species == "heptapotamica") == 22
    assert ds.numeric().shape == (43, 2)


def test_animals_positive_weights():
    ds = load_dataset("animals")
    xy = ds.numeric()
    assert xy.shape == (28, 2)
    assert np.all(xy > 0)  # log-log analysis requires positive values


def test_voltage_time_grid():
    ds = load_dataset("voltage_drop")
    t = ds.column("time")
    np.testing.assert_allclose(np.diff(t), 0.5, atol=1e-12)
    assert t[0] == 0.0 and t[-1] == 20.0


def test_checksum_guards_corruption(monkeypatch, tmp_path):
    # a registry entry with a wrong checksum must fail loudly
    import wle.datasets as d
    bad = dict(d._REGISTRY)
    bad["newcomb"] = (66, "0" * 64, "tampered")
    monkeypatch.setattr(d, "_REGISTRY", bad)
    with pytest.raises(DatasetError):
        load_dataset("newcomb")
