"""Command-line interface: every subcommand produces parseable output."""

import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest

from wle.cli import _configs, _weight_spec, build_parser, main
from wle.solver import SolverConfig
from wle.weights import DEFAULT_SPECS, KERNELS


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_fit_mle(capsys):
    code, out = _run(capsys, "fit", "--model", "normal", "--data", "newcomb",
                     "--weight-fn", "none")
    assert code == 0
    d = json.loads(out)
    assert d["estimator"] == "mle"
    assert d["theta"][0] == pytest.approx(26.2121, abs=1e-4)


def test_fit_weighted(capsys):
    code, out = _run(capsys, "fit", "--model", "normal", "--data", "newcomb",
                     "--weight-fn", "gamma", "--alpha", "1.01")
    assert code == 0
    d = json.loads(out)
    assert d["converged"]
    assert d["theta"][0] == pytest.approx(27.76, abs=0.05)
    assert d["theta"][1] == pytest.approx(25.3, abs=0.5)


def test_fit_external_csv(capsys, tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "x.csv"
    path.write_text("value\n" + "\n".join(
        str(v) for v in rng.normal(3.0, 1.0, 100)))
    code, out = _run(capsys, "fit", "--model", "normal", "--data", str(path),
                     "--weight-fn", "none")
    assert code == 0
    assert json.loads(out)["theta"][0] == pytest.approx(3.0, abs=0.5)


def test_roots_reports_three_roots(capsys):
    code, out = _run(capsys, "roots", "--model", "normal", "--data",
                     "lubischew", "--columns", "angle", "--weight-fn",
                     "gamma", "--alpha", "1.02", "--seed", "0")
    assert code == 0
    d = json.loads(out)
    assert len(d["roots"]) == 3
    mus = sorted(r["theta"][0] for r in d["roots"])
    assert mus[0] == pytest.approx(10.05, abs=0.05)
    assert mus[1] == pytest.approx(12.05, abs=0.05)
    assert mus[2] == pytest.approx(14.06, abs=0.05)
    assert d["selection_rule"] in ("highest", "second-highest")


def test_simulate_csv(capsys):
    code, out = _run(capsys, "simulate", "--scheme", "scale", "--eps-grid",
                     "0,0.2", "--reps", "5", "--format", "csv")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[:3] == ["scheme", "eps", "estimator"]
    assert len(rows) == 6  # 2 eps levels x 3 estimators


def test_simulate_json_round_trip(capsys):
    from wle.simulate import SimulationReport
    code, out = _run(capsys, "simulate", "--scheme", "exponential",
                     "--eps-grid", "0", "--reps", "3")
    assert code == 0
    rep = SimulationReport.from_json(out)
    assert rep.scheme == "exponential"


def test_diagnose_bias_curve(capsys):
    code, out = _run(capsys, "diagnose", "--bias-curve", "--weight-fn",
                     "gamma", "--alpha", "2.0", "--y", "3.0")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["eps", "predicted_bias", "mle_bias"]
    data = np.array(rows, dtype=float)
    # downweighting keeps the predicted bias below the mle line
    pos = data[:, 0] > 0
    assert np.all(data[pos, 1] < data[pos, 2])


def test_diagnose_mixture_scan(capsys):
    code, out = _run(capsys, "diagnose", "--mixture-scan", "--eps", "0.2",
                     "--contaminant-mean", "5.0", "--weight-fn", "gamma",
                     "--alpha", "1.1")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["root"]
    roots = np.array(rows, dtype=float).ravel()
    assert len(roots) == 3


def test_diagnose_ellipse(capsys):
    code, out = _run(capsys, "diagnose", "--ellipse", "--model",
                     "bivariate_normal", "--data", "hertzsprung_russell",
                     "--weight-fn", "none")
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["x", "y"]
    assert len(rows) >= 32


def test_diagnose_requires_a_mode(capsys):
    with pytest.raises(SystemExit):
        main(["diagnose"])


def test_reproduce_text_and_strict(capsys):
    code, out = _run(capsys, "reproduce", "table4")
    assert code == 0
    assert "=> PASS" in out
    code, out = _run(capsys, "reproduce", "table4", "--strict")
    assert code == 0


def test_reproduce_json(capsys):
    code, out = _run(capsys, "reproduce", "table5", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["table_id"] == "table5" and d["passed"]


def test_bad_column_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fit", "--model", "normal", "--data", "newcomb",
              "--columns", "nope", "--weight-fn", "none"])


def test_log_transform(capsys):
    code, out = _run(capsys, "fit", "--model", "normal_regression", "--data",
                     "animals", "--columns", "body_kg,brain_g", "--log",
                     "--weight-fn", "none")
    assert code == 0
    theta = json.loads(out)["theta"]
    # least-squares fit on the log-log scale: slope near 0.50
    assert theta[1] == pytest.approx(0.496, abs=0.01)


@pytest.mark.parametrize("command", ["roots", "fit"])
def test_solver_defaults_come_from_solver_config(command):
    args = build_parser().parse_args([command, "--model", "normal",
                                      "--data", "newcomb"])
    assert _configs(args)[2] == SolverConfig()


@pytest.mark.parametrize("argv", [
    ["roots", "--model", "normal", "--data", "newcomb", "--columns",
     "deviation", "--tol", "0"],
    ["roots", "--model", "normal", "--data", "newcomb", "--columns",
     "deviation", "--bootstrap-b", "0"],
    ["fit", "--model", "normal", "--data", "newcomb", "--p", "0.9"],
    ["roots", "--model", "normal", "--data", "newcomb", "--alpha", "0.5"],
    ["roots", "--model", "exponential", "--data", "newcomb", "--columns",
     "deviation"],
    ["diagnose", "--mixture-scan", "--p", "0.9"],
], ids=["tol", "bootstrap-b", "p", "alpha", "out-of-support", "scan-p"])
def test_invalid_values_are_usage_errors(capsys, argv):
    # a bad value or out-of-support data ends in one usage line, not a
    # traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("wle: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "roots", "diagnose"])
def test_kernel_flags_carry_the_field_defaults(command):
    # every tuning field of every kernel is a flag defaulting to the
    # field's default, so no flag gives the kernel's default spec
    args = build_parser().parse_args([command, "--model", "normal",
                                      "--data", "newcomb"])
    for name, kernel in KERNELS.items():
        for f in fields(kernel):
            assert getattr(args, f.name) == f.default
        args.weight_fn = name
        assert _weight_spec(args) == DEFAULT_SPECS[name]
