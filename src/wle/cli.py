"""Command-line interface for fitting, root searching, simulation,
diagnostics, and reference-table reproduction.

All subcommands print JSON or plot-ready CSV to stdout; nothing is
plotted directly.
"""

import argparse
import csv
import json
import sys
from dataclasses import fields

import numpy as np

from .datasets import dataset_names, load_dataset
from .diagnostics import (ContaminationSpec, ModelDistribution, curve_to_csv,
                          influence_report, mixture_root_scan)
from .families import FAMILIES, ellipse_polyline, get_family
from .residuals import ResidualConfig
from .simulate import SCHEMES, SimulationPlan, run_simulation
from .solver import SolverConfig, bootstrap_root_search, solve_from
from .tables import export_report, reproduce_table, table_ids
from .weights import KERNELS


#: the tuning flags of every kernel, one per field
_KERNEL_FLAGS = [f.name for kernel in KERNELS.values() for f in fields(kernel)]

#: the flags that one diagnose mode reads, with their defaults
_MODE_FLAGS = {"bias_curve": {"y": 3.0},
               "mixture_scan": {"eps": 0.2, "contaminant_mean": 5.0,
                                "contaminant_var": 1.0},
               "ellipse": {"coverage": 0.95}}

_MAX_SCAN_POINTS = 10_000  # a --mixture-scan grid's cap: ~25 s of quadratures


def _reject(args, names, where):
    """A usage error for the first of `names` given on the command line;
    `where` does not read it."""
    for name in names:
        if getattr(args, name) not in (None, False):
            raise ValueError(f"--{name.replace('_', '-')} does not apply "
                             f"to {where}")


def _weight_spec(args):
    """The --weight-fn kernel, its tuning parameters read from the flags
    named after its fields; another kernel's flag is a usage error."""
    kernel = KERNELS.get(args.weight_fn)
    if kernel is None:
        raise ValueError(f"--weight-fn {args.weight_fn}: this command "
                         "needs a weight function")
    own = [f.name for f in fields(kernel)]
    _reject(args, [n for n in _KERNEL_FLAGS if n not in own],
            f"--weight-fn {args.weight_fn}")
    return kernel(**_given(args, kernel))


def _load_columns(args):
    """Data matrix from a bundled dataset name or an external CSV path."""
    if args.data in dataset_names():
        ds = load_dataset(args.data)
        columns, rows = ds.columns, ds.records
    else:
        try:
            with open(args.data, newline="", encoding="utf-8") as fh:
                raw = [r for r in csv.reader(fh) if r]  # blank lines skipped
        except OSError as exc:
            raise ValueError(f"--data {args.data}: no such dataset, and "
                             f"the file cannot be read ({exc.strerror})")
        if len(raw) < 2:
            raise ValueError(f"--data {args.data}: the file has no header "
                             "and data rows")
        columns, rows = tuple(raw[0]), raw[1:]
    wanted = args.columns.split(",") if args.columns else list(columns)
    idx = []
    for name in wanted:
        if name not in columns:
            raise ValueError(f"--columns: {name!r} not in {columns}")
        idx.append(columns.index(name))
    try:
        x = np.array([[float(r[j]) for j in idx] for r in rows])
    except ValueError:
        raise ValueError("--columns: selected columns contain non-numeric "
                         "values")
    except IndexError:
        raise ValueError(f"--data {args.data}: a row is shorter than the "
                         "header")
    if args.log:
        if not np.all(x > 0):
            raise ValueError("--log: the selected columns hold values <= 0")
        x = np.log(x)
    return x[:, 0] if x.shape[1] == 1 else x


def _given(args, config):
    """The flags of `config`'s fields that were given; it supplies the rest."""
    return {f.name: v for f in fields(config)
            if (v := getattr(args, f.name, None)) is not None}


def _configs(args):
    if args.weight_fn == "none":  # the MLE reads no kernel or solver flag
        _reject(args, [*_KERNEL_FLAGS, "p", "tol", "max_iter"],
                "--weight-fn none")
    family = get_family(args.model)
    rc = ResidualConfig(**_given(args, ResidualConfig), kind=family.kind)
    return family, rc, SolverConfig(**_given(args, SolverConfig))


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _cmd_fit(args):
    family, rc, sc = _configs(args)
    x = _load_columns(args)
    mle = family.mle(x)
    if args.weight_fn == "none":
        _emit({"model": args.model, "estimator": "mle",
               "theta": [float(v) for v in mle]})
        return 0
    root = solve_from(family, x, rc, _weight_spec(args), sc, mle)
    _emit({"model": args.model, "estimator": args.weight_fn,
           "start": "mle", **root.summary()})
    return 0


def _cmd_roots(args):
    family, rc, sc = _configs(args)
    x = _load_columns(args)
    rs = bootstrap_root_search(family, x, rc, _weight_spec(args), sc)
    _emit({"model": args.model, **rs.summary()})
    return 0


def _cmd_simulate(args):
    report = run_simulation(SimulationPlan(**_given(args, SimulationPlan)))
    sys.stdout.write(export_report(report, args.format))
    return 0


def _cmd_diagnose(args):
    mode = next(m for m in _MODE_FLAGS if getattr(args, m))
    where = f"--{mode.replace('_', '-')}"
    _reject(args, [n for m, flags in _MODE_FLAGS.items() if m != mode
                   for n in flags], where)
    if mode != "ellipse":
        # both fix their own models and solve nothing, and the influence
        # analysis reads the residual's branch at p = 1/2
        _reject(args, ["model", "data", "columns", "log", "tol", "max_iter"]
                + ["p"] * (mode == "bias_curve"), where)
    for name, value in _MODE_FLAGS[mode].items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    if mode == "bias_curve":
        fam = get_family("normal_location")
        rep = influence_report(fam, np.array([0.0]), _weight_spec(args),
                               args.y)
        rows = np.column_stack([rep.bias_curve,
                                rep.bias_curve[:, 0] * args.y])
        sys.stdout.write(curve_to_csv(["eps", "predicted_bias", "mle_bias"],
                                      rows))
        return 0
    if mode == "mixture_scan":
        norm = get_family("normal")
        base = ModelDistribution(norm, (0.0, 1.0))
        contaminant = ModelDistribution(
            norm, (args.contaminant_mean, args.contaminant_var))
        spec = ContaminationSpec(base=base, eps=args.eps,
                                 contaminant=contaminant)
        hi = max(4.0, args.contaminant_mean + 4.0)
        if (hi + 4.0) / 0.05 >= _MAX_SCAN_POINTS:
            raise ValueError(f"--contaminant-mean {args.contaminant_mean}: "
                             f"the scan would take over {_MAX_SCAN_POINTS} "
                             "points")
        grid = np.arange(-4.0, hi + 1e-9, 0.05)
        roots = mixture_root_scan(spec, _weight_spec(args), grid,
                                  **_given(args, ResidualConfig))
        sys.stdout.write(curve_to_csv(["root"], np.asarray(roots)))
        return 0
    if args.model != "bivariate_normal":
        raise ValueError("--ellipse needs --model bivariate_normal")
    if args.data is None:
        raise ValueError("--ellipse needs --data")
    x = _load_columns(args)
    family, rc, sc = _configs(args)
    theta = family.mle(x)
    if args.weight_fn != "none":
        theta = solve_from(family, x, rc, _weight_spec(args), sc,
                           theta).theta
    pts = ellipse_polyline(theta, coverage=args.coverage)
    sys.stdout.write(curve_to_csv(["x", "y"], pts))
    return 0


def _cmd_reproduce(args):
    # the Monte-Carlo tables' plans read the replications and the seed
    report = reproduce_table(args.table_id, **_given(args, SimulationPlan))
    if args.format == "text":
        print("\n".join(report.summary_lines()))
    else:
        sys.stdout.write(export_report(report, args.format))
    return 0 if (report.passed or not args.strict) else 1


def _add_model_args(p, model_required=True):
    p.add_argument("--model", required=model_required,
                   choices=list(FAMILIES))
    p.add_argument("--data", required=model_required,
                   help="bundled dataset name or CSV file path")
    p.add_argument("--columns", default=None,
                   help="comma-separated column names to use, in order")
    p.add_argument("--log", action="store_true",
                   help="apply the natural logarithm to the selected columns")


def _add_field_flags(p, config, *names, **options):
    """A typed `--<field>` flag, None when not given, per named field."""
    types = {f.name: f.type for f in fields(config)}
    for name in names or types:
        p.add_argument(f"--{name.replace('_', '-')}",
                       **{"type": types[name], **options.get(name, {})})


def _add_weight_args(p):
    p.add_argument("--weight-fn", default="gamma",
                   choices=[*KERNELS, "none"])
    for kernel in KERNELS.values():
        _add_field_flags(p, kernel)
    _add_field_flags(p, ResidualConfig, "p")
    _add_field_flags(p, SolverConfig, "tol", "max_iter")


def build_parser():
    def float_list(text):  # a bad list reads "invalid float_list value"
        return tuple(float(v) for v in text.split(","))

    parser = argparse.ArgumentParser(
        prog="wle",
        description="Robust estimation by weighted likelihood: fitting, "
                    "multi-root search, contamination simulation, "
                    "diagnostics, and reference-table reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="single weighted-likelihood fit")
    _add_model_args(p)
    _add_weight_args(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("roots", help="bootstrap multi-root search")
    _add_model_args(p)
    _add_weight_args(p)
    _add_field_flags(p, SolverConfig, "bootstrap_b", "bootstrap_m", "seed")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="contamination Monte Carlo study")
    _add_field_flags(p, SimulationPlan, scheme={"choices": list(SCHEMES)},
                     eps_grid={"type": float_list})
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="influence, mixture-root and "
                                        "ellipse diagnostics (CSV output)")
    modes = p.add_mutually_exclusive_group(required=True)
    for mode in _MODE_FLAGS:
        modes.add_argument(f"--{mode.replace('_', '-')}", action="store_true")
    for mode, flags in _MODE_FLAGS.items():  # None when not given
        for name, value in flags.items():
            p.add_argument(f"--{name.replace('_', '-')}", type=float,
                           help=f"read by --{mode.replace('_', '-')}, "
                                f"default {value}")
    _add_model_args(p, model_required=False)
    _add_weight_args(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("reproduce", help="re-run a reference table")
    p.add_argument("table_id", choices=table_ids())
    _add_field_flags(p, SimulationPlan, "reps", "seed", reps={
        "help": "replications for the Monte-Carlo tables"})
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv"])
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any cell fails")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DomainError, DegenerateFitError included
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
