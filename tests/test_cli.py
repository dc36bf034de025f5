"""Command-line interface: every subcommand produces parseable output."""

import csv
import io
import json
from dataclasses import fields

import numpy as np
import pytest

from wle import cli
from wle.cli import _configs, _weight_spec, build_parser, main
from wle.datasets import load_dataset
from wle.diagnostics import curve_to_csv
from wle.families import ellipse_polyline, get_family
from wle.residuals import ResidualConfig
from wle.simulate import SimulationPlan, run_simulation
from wle.solver import RootSet, SolverConfig, solve_from
from wle.tables import reproduce_table
from wle.weights import DEFAULT_SPECS, KERNELS, GammaKernel


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _usage_error(capsys, argv):
    """The one usage line that `argv` ends in, without a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


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
    # every field of the root set, the skipped subsamples among them
    assert list(d) == ["model", *(f.name for f in fields(RootSet))]
    assert d["n_skipped_subsamples"] == 4


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


def test_diagnose_weighted_ellipse_is_table10_root(capsys):
    # the default --weight-fn gamma solves from the MLE: the ellipse of
    # table 10's weighted root, not the MLE's
    ds = load_dataset("hertzsprung_russell")
    xy = np.column_stack([ds.column("log_temperature"),
                          ds.column("log_light")])
    fam = get_family("bivariate_normal")
    root = solve_from(fam, xy, ResidualConfig(kind="bivariate"),
                      GammaKernel(1.01), SolverConfig(), fam.mle(xy))
    argv = ["diagnose", "--ellipse", "--model", "bivariate_normal", "--data",
            "hertzsprung_russell"]
    code, out = _run(capsys, *argv)
    assert code == 0
    assert out == curve_to_csv(["x", "y"], ellipse_polyline(root.theta))
    _, mle_out = _run(capsys, *argv, "--weight-fn", "none")
    assert mle_out != out


def test_diagnose_requires_a_mode(capsys):
    assert "--ellipse" in _usage_error(capsys, ["diagnose"])


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
    assert "--columns" in _usage_error(
        capsys, ["fit", "--model", "normal", "--data", "newcomb",
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
    assert _configs(args)[1:] == (ResidualConfig(), SolverConfig())


def test_simulate_defaults_come_from_the_plan(monkeypatch, capsys):
    plans = []

    def run(plan):
        plans.append(plan)
        return run_simulation(SimulationPlan(eps_grid=(0.0,), reps=1))

    monkeypatch.setattr(cli, "run_simulation", run)
    assert _run(capsys, "simulate")[0] == 0
    assert plans == [SimulationPlan()]


def test_reproduce_defaults_come_from_reproduce_table(monkeypatch, capsys):
    calls = []

    def reproduce(table_id, **kw):
        calls.append(kw)
        return reproduce_table(table_id, **kw)

    monkeypatch.setattr(cli, "reproduce_table", reproduce)
    assert _run(capsys, "reproduce", "table4")[0] == 0
    assert _run(capsys, "reproduce", "table4", "--reps", "3", "--seed",
                "1")[0] == 0
    assert calls == [{}, {"reps": 3, "seed": 1}]


def test_given_solver_flags_reach_the_configs():
    args = build_parser().parse_args(["roots", "--model", "normal", "--data",
                                      "newcomb", "--p", "0.3", "--tol",
                                      "1e-6", "--max-iter", "7"])
    _, rc, sc = _configs(args)
    assert (rc.p, sc.tol, sc.max_iter) == (0.3, 1e-6, 7)


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
    assert _usage_error(capsys, argv).startswith("wle: error: ")


@pytest.mark.parametrize("argv, message", [
    (["diagnose", "--ellipse", "--model", "bivariate_normal"],
     "--ellipse needs --data"),
    (["diagnose", "--ellipse", "--data", "lubischew", "--columns",
      "width,angle"], "--ellipse needs --model bivariate_normal"),
    (["diagnose", "--ellipse", "--model", "normal", "--data", "newcomb"],
     "--ellipse needs --model bivariate_normal"),
    (["fit", "--model", "bivariate_normal", "--data", "newcomb",
      "--weight-fn", "none"], "bivariate_normal data must have shape "
                              "(n, 2), not (66,)"),
    (["roots", "--model", "normal", "--data", "newcomb", "--weight-fn",
      "none"], "--weight-fn none: this command needs a weight function"),
    (["diagnose", "--bias-curve", "--model", "exponential"],
     "--model does not apply to --bias-curve"),
    (["diagnose", "--mixture-scan", "--data", "newcomb"],
     "--data does not apply to --mixture-scan"),
    (["diagnose", "--bias-curve", "--columns", "deviation"],
     "--columns does not apply to --bias-curve"),
    (["diagnose", "--mixture-scan", "--log"],
     "--log does not apply to --mixture-scan"),
    (["roots", "--model", "bivariate_normal", "--data",
      "hertzsprung_russell", "--p", "0.1"], "p = 0.1: the bivariate "
     "quadrant residual has no tail fraction, so p must be 0.5"),
    # the bias curve reads the branch at p = 1/2, and neither diagnostic
    # runs the solver
    (["diagnose", "--bias-curve", "--p", "0.5"],
     "--p does not apply to --bias-curve"),
    (["diagnose", "--bias-curve", "--tol", "1e-2"],
     "--tol does not apply to --bias-curve"),
    (["diagnose", "--mixture-scan", "--tol", "1e-2"],
     "--tol does not apply to --mixture-scan"),
    (["diagnose", "--bias-curve", "--max-iter", "1"],
     "--max-iter does not apply to --bias-curve"),
    (["diagnose", "--mixture-scan", "--max-iter", "500"],
     "--max-iter does not apply to --mixture-scan"),
    # a flag that only another kernel, or another mode, reads
    (["fit", "--model", "normal", "--data", "newcomb", "--weight-fn",
      "weibull", "--alpha", "5"], "--alpha does not apply to --weight-fn "
                                  "weibull"),
    (["fit", "--model", "normal", "--data", "newcomb", "--weight-fn",
      "none", "--alpha", "3"], "--alpha does not apply to --weight-fn none"),
    (["fit", "--model", "normal", "--data", "newcomb", "--weight-fn",
      "none", "--tol", "1e-2"], "--tol does not apply to --weight-fn none"),
    (["fit", "--model", "normal", "--data", "newcomb", "--weight-fn",
      "none", "--p", "0.2"], "--p does not apply to --weight-fn none"),
    (["diagnose", "--mixture-scan", "--y", "7"],
     "--y does not apply to --mixture-scan"),
    (["diagnose", "--mixture-scan", "--coverage", "0.5"],
     "--coverage does not apply to --mixture-scan"),
    (["diagnose", "--bias-curve", "--eps", "0.3"],
     "--eps does not apply to --bias-curve"),
    (["diagnose", "--bias-curve", "--contaminant-mean", "9"],
     "--contaminant-mean does not apply to --bias-curve"),
    (["diagnose", "--bias-curve", "--contaminant-var", "4"],
     "--contaminant-var does not apply to --bias-curve"),
    (["diagnose", "--ellipse", "--model", "bivariate_normal", "--data",
      "hertzsprung_russell", "--y", "3"], "--y does not apply to --ellipse"),
    # the fruit-fly counts hold zeros: checked before np.log warns
    (["fit", "--model", "poisson", "--data", "drosophila", "--log",
      "--weight-fn", "none"], "--log: the selected columns hold values <= 0"),
    # a negative seed fails when the configuration is built, by its name
    (["roots", "--model", "normal", "--data", "newcomb", "--seed", "-1"],
     "seed = -1: seed must be >= 0"),
    (["simulate", "--seed", "-1"], "seed = -1: seed must be >= 0"),
    # a non-finite tuning value fails when the kernel is built, not as a
    # degenerate fit
    (["fit", "--model", "normal", "--data", "newcomb", "--alpha", "inf"],
     "alpha = inf: alpha must be finite and > 1"),
    # the search and the simulation plan state the subsample rule alike
    (["roots", "--model", "normal", "--data", "newcomb", "--bootstrap-m",
      "100"], "n = 66: the sample size must be at least the bootstrap "
              "subsample size 100"),
    (["simulate", "--n", "4"], "n = 4: the sample size must be at least "
                               "the bootstrap subsample size 5"),
    # the scan grid grows with the contaminant mean: a cap, by the flag
    (["diagnose", "--mixture-scan", "--contaminant-mean", "1e4"],
     "--contaminant-mean 10000.0: the scan would take over 10000 points"),
    (["diagnose", "--mixture-scan", "--contaminant-mean", "1e300"],
     "--contaminant-mean 1e+300: the scan would take over 10000 points"),
], ids=["ellipse-no-data", "ellipse-no-model", "ellipse-normal-model",
        "bivariate-one-column", "roots-without-weights", "bias-curve-model",
        "scan-data", "bias-curve-columns", "scan-log", "bivariate-p",
        "bias-curve-p", "bias-curve-tol", "scan-tol", "bias-curve-max-iter",
        "scan-max-iter", "weibull-alpha", "none-alpha", "none-tol", "none-p",
        "scan-y", "scan-coverage", "bias-curve-eps",
        "bias-curve-contaminant-mean", "bias-curve-contaminant-var",
        "ellipse-y", "log-of-zero", "roots-negative-seed",
        "simulate-negative-seed", "fit-alpha-inf", "roots-subsample-size",
        "simulate-subsample-size", "scan-grid-cap", "scan-grid-cap-huge"])
def test_missing_or_mismatched_flags_are_usage_errors(capsys, argv, message):
    assert _usage_error(capsys, argv) == f"wle: error: {message}"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--eps-grid", "0,x"],
     "argument --eps-grid: invalid float_list value: '0,x'"),
    (["diagnose", "--bias-curve", "--mixture-scan"],
     "argument --mixture-scan: not allowed with argument --bias-curve"),
    (["diagnose", "--mixture-scan", "--ellipse"],
     "argument --ellipse: not allowed with argument --mixture-scan"),
], ids=["simulate-eps-grid", "diagnose-two-modes", "diagnose-scan-ellipse"])
def test_parse_errors_name_the_flag(capsys, argv, message):
    assert _usage_error(capsys, argv) == f"wle {argv[0]}: error: {message}"


def test_unreadable_data_file_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    line = _usage_error(capsys, ["fit", "--model", "normal", "--data",
                                 str(missing)])
    assert line.startswith(f"wle: error: --data {missing}: ")


@pytest.mark.parametrize("text, message", [
    ("", "the file has no header and data rows"),
    ("a,b\n\n", "the file has no header and data rows"),
    ("a,b\n1,2\n3\n", "a row is shorter than the header")],
    ids=["empty", "header-only", "short-row"])
def test_malformed_data_file_is_a_usage_error(capsys, tmp_path, text,
                                              message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    line = _usage_error(capsys, ["fit", "--model", "normal", "--data",
                                 str(path), "--weight-fn", "none"])
    assert line == f"wle: error: --data {path}: {message}"


@pytest.mark.parametrize("command", ["fit", "roots", "diagnose"])
def test_kernel_flags_carry_the_field_defaults(command):
    # every tuning field of every kernel is a flag that is None when not
    # given, so the kernel fills in its field default: no flag gives the
    # kernel's default spec
    mode = ["--bias-curve"] * (command == "diagnose")
    args = build_parser().parse_args([command, *mode, "--model", "normal",
                                      "--data", "newcomb"])
    for name, kernel in KERNELS.items():
        for f in fields(kernel):
            assert getattr(args, f.name) is None
        args.weight_fn = name
        assert _weight_spec(args) == DEFAULT_SPECS[name]
