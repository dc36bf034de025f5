"""Reference-table reproduction: cell logic, serialization, dataset tables.

Two cells, the fruit-fly weighted Poisson rates, are documented
near-misses and are excluded from the blanket pass assertions here; the
acceptance suite reports them at their stated tolerance.
"""

import json

import numpy as np
import pytest

from wle import (GammaKernel, GevKernel, ResidualConfig, SolverConfig,
                 WeibullKernel, get_family, load_dataset, solve_from)
from wle.solver import _near_roots
from wle.tables import (TableCell, TableReport, _search, export_report,
                        reproduce_table, table_ids)

# cells whose computed values sit just outside the published tolerance;
# everything else in their tables must pass
KNOWN_NEAR_MISSES = {
    ("table2", "wle_gamma_alpha1.01"),
    ("table2", "wle_weibull_k1.01"),
}

FAST_TABLES = ["table2", "table3", "table4", "table5", "table6",
               "table10", "table11", "table12", "table13"]


def test_table_ids_complete():
    assert table_ids() == [f"table{i}" for i in range(2, 14)]
    with pytest.raises(KeyError):
        reproduce_table("table99")


def test_cell_pass_logic():
    assert TableCell("r", "c", 1.0, 1.05, tol=0.1).passed
    assert not TableCell("r", "c", 1.0, 1.2, tol=0.1).passed
    assert TableCell("r", "c", 1.0, 1.05, tol=0.1, kind="rel").passed
    assert TableCell("r", "c", 2.0, 1.5, kind="greater", tol=0.0).passed
    assert TableCell("r", "c", 1.0, 1.5, kind="less", tol=0.0).passed
    assert not TableCell("r", "c", 2.0, 1.5, kind="less", tol=0.0).passed


@pytest.mark.parametrize("table_id", FAST_TABLES)
def test_dataset_table_cells(table_id):
    report = reproduce_table(table_id)
    assert report.cells
    failed = {(table_id, c.row) for c in report.cells if not c.passed}
    unexpected = failed - KNOWN_NEAR_MISSES
    assert not unexpected, (
        f"{table_id} cells outside tolerance: "
        + "; ".join(f"{t}/{row}" for t, row in sorted(unexpected)))


def test_known_near_misses_are_close():
    # the documented near-misses still land within 3x of their tolerance
    for table_id in ("table2", "table3"):
        report = reproduce_table(table_id)
        for c in report.cells:
            if (table_id, c.row) in KNOWN_NEAR_MISSES and not c.passed:
                assert abs(c.deviation) < 3 * c.tol


def test_report_serialization_round_trip():
    report = reproduce_table("table4")
    d = json.loads(export_report(report, fmt="json"))
    assert d["table_id"] == "table4"
    assert d["cells"]
    assert all(set(c) >= {"row", "column", "computed", "reference",
                          "passed"} for c in d["cells"])
    csv_text = export_report(report, fmt="csv")
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("row,column,computed")
    assert len(lines) == len(report.cells) + 1
    with pytest.raises(ValueError):
        export_report(report, fmt="xml")


def test_summary_lines_format():
    report = reproduce_table("table4")
    lines = report.summary_lines()
    assert lines[0].startswith("table4:")
    assert lines[-1].lstrip().startswith("=>")
    assert any("[pass]" in ln or "[FAIL]" in ln for ln in lines[1:-1])


def test_simulation_table_smoke():
    # tiny replication count: exercises the wiring, not the tolerances
    report = reproduce_table("table7", reps=5, seed=0)
    assert len(report.cells) == 18  # 6 eps levels x 3 estimators
    assert all(np.isfinite(c.computed) for c in report.cells)
    again = reproduce_table("table7", reps=5, seed=0)
    assert [c.computed for c in report.cells] == \
        [c.computed for c in again.cells]


def test_table_report_passed_property():
    good = TableReport("t", "x", [TableCell("r", "c", 1.0, 1.0, tol=0.1)])
    bad = TableReport("t", "x", [TableCell("r", "c", 9.0, 1.0, tol=0.1)])
    assert good.passed and not bad.passed
    assert bad.n_failed == 1


def test_table_report_writes_its_own_json_and_csv():
    report = reproduce_table("table4")
    assert export_report(report, "json") == report.to_json()
    assert export_report(report, "csv") == report.to_csv()


def _mle(fam, x, ds):
    return fam.mle(x)


def _outlier_deleted_mle(fam, x, ds):
    return fam.mle(x[x < x.max()])


def _species_mle(name):
    return lambda fam, x, ds: fam.mle(x[ds.column("species") == name])


# the hand-picked starts that the weighted rows of tables 2-4, 10 and 11
# were once solved from: (table, row, dataset, column, family, start,
# kernel), where a bivariate sample is the dataset's numeric columns
_FLY = ("drosophila", "daughters", "poisson", _outlier_deleted_mle)
_LIGHT = ("newcomb", "deviation", "normal", _mle)
_BEETLES = ("lubischew", None, "bivariate_normal")
DOCUMENTED_STARTS = [
    ("table2", "wle_gamma_alpha1.01", *_FLY, GammaKernel(1.01)),
    ("table2", "wle_weibull_k1.01", *_FLY, WeibullKernel(1.01)),
    ("table3", "wle_gamma_alpha1.01", *_LIGHT, GammaKernel(1.01)),
    ("table3", "wle_gamma_alpha1.1", *_LIGHT, GammaKernel(1.1)),
    ("table3", "wle_weibull_k1.05", *_LIGHT, WeibullKernel(1.05)),
    ("table3", "wle_weibull_k1.1", *_LIGHT, WeibullKernel(1.1)),
    ("table3", "wle_gev_xi5", *_LIGHT, GevKernel(5.0)),
    ("table3", "wle_gev_xi10", *_LIGHT, GevKernel(10.0)),
    ("table4", "wle_gamma_alpha1.05", "rainfall", "rainfall_mm",
     "exponential", _outlier_deleted_mle, GammaKernel(1.05)),
    ("table10", "wle_gamma_alpha1.01", "hertzsprung_russell", None,
     "bivariate_normal", _mle, GammaKernel(1.01)),
    ("table11", "mle_like_root", *_BEETLES, _mle, GammaKernel(1.01)),
    ("table11", "concinna_root", *_BEETLES, _species_mle("concinna"),
     GammaKernel(1.01)),
    ("table11", "heptapotamica_root", *_BEETLES,
     _species_mle("heptapotamica"), GammaKernel(1.01)),
]


@pytest.mark.parametrize(
    "table_id, row, dataset, column, family, start, spec", DOCUMENTED_STARTS,
    ids=[f"{t[0]}-{t[1]}" for t in DOCUMENTED_STARTS])
def test_documented_start_lands_on_the_root_the_table_reads(
        table_id, row, dataset, column, family, start, spec):
    # each row reads one root of its table's seed-0 search (the selected
    # root, but in table 11) and prints that root's theta[0] as its first
    # cell; the start the row was once solved from lands on that root
    ds = load_dataset(dataset)
    x = ds.column(column) if column else ds.numeric()
    fam = get_family(family)
    rs = _search(fam, x, spec)
    first = next(c for c in reproduce_table(table_id).cells if c.row == row)
    read, = [r for r in rs.roots if r.theta[0] == first.computed]
    assert read is rs.selected or table_id == "table11"
    root = solve_from(fam, x, ResidualConfig(kind=fam.kind), spec,
                      SolverConfig(), start(fam, x, ds))
    assert root.converged
    assert _near_roots(root.theta[None, :], read.theta[None, :])[0, 0]
