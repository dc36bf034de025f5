"""Bundled example datasets with checksum-validated CSV parsing.

Each dataset ships as a UTF-8 CSV with a header row inside the package.
Loading verifies a SHA-256 checksum and the documented record count, so a
corrupted install fails loudly instead of silently shifting estimates.
"""

import csv
import hashlib
from dataclasses import dataclass
from importlib import resources

import numpy as np


class DatasetError(ValueError):
    """Unknown dataset name or column, or corrupted bundle."""


@dataclass(frozen=True)
class Dataset:
    name: str
    columns: tuple
    records: tuple          # tuples of parsed values, strings left as-is
    provenance: str

    @property
    def n(self):
        return len(self.records)

    def column(self, name):
        """One column as a numpy array (float when fully numeric)."""
        if name not in self.columns:
            raise DatasetError(f"no column {name!r}; columns: {self.columns}")
        j = self.columns.index(name)
        vals = [r[j] for r in self.records]
        if all(isinstance(v, float) for v in vals):
            return np.array(vals)
        return np.array(vals, dtype=object)

    def numeric(self):
        """All all-numeric columns as a (n, k) float array."""
        cols = [self.column(c) for c in self.columns]
        keep = [c for c in cols if c.dtype != object]
        return np.column_stack(keep)


_REGISTRY = {
    "drosophila": (
        34, "5c1b7648553b19df67e8c512feeec6b088fcd55d2c75b68d34466700d89ac5bd",
        "Counts of recessive lethal daughters of male drosophila exposed to "
        "a chemical; frequency table 0:23, 1:7, 2:3, >=5:1 (recorded as 91)."),
    "newcomb": (
        66, "0a7be709b2b1362d5ae416e0f97647c74b2fdc11afa969780000de1b04196aa4",
        "Newcomb's passage-time measurements of light (deviations from "
        "24800 ns), as tabulated by Stigler (1977); outliers at -44 and -2."),
    "rainfall": (
        31, "cbe6e846a70338225b1a619b4b54d45d474e6f5c193a4f42ae203f70125f6795",
        "Melbourne winter daily rainfall on every fourth rain day, "
        "1981-1983, after Staudte & Sheather (1990). The source table is "
        "not reproduced verbatim: values are reconstructed to one decimal "
        "to match the published n=31, the rate estimate 0.2224, the "
        "outlier-deleted estimate 0.2747 and the single large outlier."),
    "lubischew": (
        43, "b01526758838bc929293214d02320087e7a34e45618938867c09d1c7b451fe3e",
        "Lubischew's flea-beetle measurements: maximal head width and "
        "aedeagus front angle for 21 Chaetocnema concinna and 22 "
        "Ch. heptapotamica specimens."),
    "hertzsprung_russell": (
        47, "04e5ceb1e03cdf31b3ddfc2872cea5eb8fe2db4aae94208be92acb7b9d7443a6",
        "Hertzsprung-Russell diagram of the star cluster CYG OB1: log "
        "effective surface temperature and log light intensity for 47 "
        "stars (Rousseeuw & Leroy 1987); four giant stars sit apart."),
    "animals": (
        28, "9f444dc9015008392eacd1bc90385f1d40921870c41b469820118bee43efc6d0",
        "Average body weight (kg) and brain weight (g) of 28 animal "
        "species (Rousseeuw & Leroy 1987), including three dinosaurs; "
        "analyzed on the log-log scale."),
    "voltage_drop": (
        41, "d894668d2dbfc28866f6477d3ea28e7ca76ce201c2b2ce1be1d4dbe8bf8e9396",
        "Battery voltage drop of a guided missile motor observed over "
        "20 seconds of flight at half-second intervals (Montgomery & "
        "Peck); the trend is nonlinear, so a straight-line fit exhibits "
        "structured residuals."),
}


def dataset_names():
    return sorted(_REGISTRY)


def load_dataset(name):
    """Load a bundled dataset by name, verifying checksum and row count."""
    if name not in _REGISTRY:
        raise DatasetError(f"unknown dataset {name!r}; "
                           f"available: {dataset_names()}")
    expected_n, checksum, provenance = _REGISTRY[name]
    raw = (resources.files("wle") / "data" / f"{name}.csv").read_bytes()
    if hashlib.sha256(raw).hexdigest() != checksum:
        raise DatasetError(f"checksum mismatch for bundled dataset {name!r}")
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    header, body = tuple(rows[0]), rows[1:]
    if len(body) != expected_n:
        raise DatasetError(f"dataset {name!r} has {len(body)} records, "
                           f"expected {expected_n}")

    def parse(v):
        try:
            return float(v)
        except ValueError:
            return v

    records = tuple(tuple(parse(v) for v in row) for row in body)
    return Dataset(name=name, columns=header, records=records,
                   provenance=provenance)
