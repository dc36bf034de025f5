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
from .tables import (REPRODUCTION_SEED, export_report, reproduce_table,
                     table_ids)
from .weights import KERNELS


def _weight_spec(args):
    """The --weight-fn kernel, its tuning parameters read from the flags
    named after its fields."""
    kernel = KERNELS.get(args.weight_fn)
    if kernel is None:
        raise SystemExit(f"unknown weight function {args.weight_fn!r}")
    return kernel(**{f.name: getattr(args, f.name) for f in fields(kernel)})


def _load_columns(args):
    """Data matrix from a bundled dataset name or an external CSV path."""
    if args.data in dataset_names():
        ds = load_dataset(args.data)
        columns, rows = ds.columns, ds.records
    else:
        with open(args.data, newline="", encoding="utf-8") as fh:
            raw = list(csv.reader(fh))
        columns, rows = tuple(raw[0]), raw[1:]
    wanted = args.columns.split(",") if args.columns else list(columns)
    idx = []
    for name in wanted:
        if name not in columns:
            raise SystemExit(f"column {name!r} not in {columns}")
        idx.append(columns.index(name))
    try:
        x = np.array([[float(r[j]) for j in idx] for r in rows])
    except ValueError:
        raise SystemExit("selected columns contain non-numeric values")
    if args.log:
        x = np.log(x)
    return x[:, 0] if x.shape[1] == 1 else x


def _configs(args):
    family = get_family(args.model)
    rc = ResidualConfig(p=args.p, kind=family.kind)
    # the solver flags a subcommand has; SolverConfig supplies the rest
    sc = SolverConfig(**{f.name: getattr(args, f.name)
                         for f in fields(SolverConfig)
                         if hasattr(args, f.name)})
    return family, rc, sc


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
    _emit({"model": args.model, "n": rs.n,
           "selection_rule": rs.selection_rule,
           "selected_index": rs.selected_index,
           "n_restarts": rs.n_restarts, "n_failed": rs.n_failed,
           "roots": [r.summary() for r in rs.roots],
           "non_converged": [r.summary() for r in rs.non_converged]})
    return 0


def _cmd_simulate(args):
    eps_grid = tuple(float(v) for v in args.eps_grid.split(","))
    plan = SimulationPlan(scheme=args.scheme, eps_grid=eps_grid, n=args.n,
                          reps=args.reps, seed=args.seed)
    report = run_simulation(plan)
    sys.stdout.write(export_report(report, args.format))
    return 0


def _cmd_diagnose(args):
    if args.bias_curve:
        fam = get_family("normal_location")
        rep = influence_report(fam, np.array([0.0]), _weight_spec(args),
                               args.y)
        rows = np.column_stack([rep.bias_curve,
                                rep.bias_curve[:, 0] * args.y])
        sys.stdout.write(curve_to_csv(["eps", "predicted_bias", "mle_bias"],
                                      rows))
        return 0
    if args.mixture_scan:
        norm = get_family("normal")
        base = ModelDistribution(norm, (0.0, 1.0))
        contaminant = ModelDistribution(
            norm, (args.contaminant_mean, args.contaminant_var))
        spec = ContaminationSpec(base=base, eps=args.eps,
                                 contaminant=contaminant)
        hi = max(4.0, args.contaminant_mean + 4.0)
        grid = np.arange(-4.0, hi + 1e-9, 0.05)
        roots = mixture_root_scan(spec, _weight_spec(args), grid, p=args.p)
        sys.stdout.write(curve_to_csv(["root"], np.asarray(roots)))
        return 0
    if args.ellipse:
        x = _load_columns(args)
        family, rc, sc = _configs(args)
        theta = family.mle(x)
        if args.weight_fn != "none":
            theta = solve_from(family, x, rc, _weight_spec(args), sc,
                               theta).theta
        pts = ellipse_polyline(theta, coverage=args.coverage)
        sys.stdout.write(curve_to_csv(["x", "y"], pts))
        return 0
    raise SystemExit("choose one of --bias-curve, --mixture-scan, --ellipse")


def _cmd_reproduce(args):
    report = reproduce_table(args.table_id, reps=args.reps, seed=args.seed)
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


def _add_weight_args(p):
    p.add_argument("--weight-fn", default="gamma",
                   choices=[*KERNELS, "none"])
    for kernel in KERNELS.values():  # one flag per tuning field
        for f in fields(kernel):
            p.add_argument(f"--{f.name}", type=float, default=f.default)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)


def build_parser():
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
    p.add_argument("--bootstrap-b", type=int,
                   default=SolverConfig.bootstrap_b)
    p.add_argument("--bootstrap-m", type=int,
                   default=SolverConfig.bootstrap_m)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="contamination Monte Carlo study")
    p.add_argument("--scheme", default="scale", choices=list(SCHEMES))
    p.add_argument("--eps-grid", default="0,0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="influence, mixture-root and "
                                        "ellipse diagnostics (CSV output)")
    p.add_argument("--bias-curve", action="store_true")
    p.add_argument("--mixture-scan", action="store_true")
    p.add_argument("--ellipse", action="store_true")
    p.add_argument("--y", type=float, default=3.0,
                   help="contamination point for the bias curve")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--contaminant-mean", type=float, default=5.0)
    p.add_argument("--contaminant-var", type=float, default=1.0)
    p.add_argument("--coverage", type=float, default=0.95)
    _add_model_args(p, model_required=False)
    _add_weight_args(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("reproduce", help="re-run a reference table")
    p.add_argument("table_id", choices=table_ids())
    p.add_argument("--reps", type=int, default=1000,
                   help="replications for the Monte-Carlo tables")
    p.add_argument("--seed", type=int, default=REPRODUCTION_SEED)
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
