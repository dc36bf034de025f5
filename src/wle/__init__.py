"""Robust parametric estimation by weighted likelihood.

The estimating equation sum_i w(tau_i) u_theta(X_i) = 0 downweights
observations whose empirical tail probability disagrees with the model's.
The package provides the residual and weight constructions, closed-form
reweighting solvers with bootstrap multi-root search, influence-function
and mixture-root diagnostics, bundled example datasets, a contamination
Monte-Carlo engine, and a reference-table reproduction harness.
"""

from .datasets import Dataset, DatasetError, dataset_names, load_dataset
from .diagnostics import (ContaminationSpec, InfluenceReport,
                          ModelDistribution, curve_to_csv,
                          fisher_consistency_check, influence_first_order,
                          influence_report, influence_second_order,
                          mixture_root_scan, population_weighted_score)
from .families import (BivariateNormal, DegenerateFitError, DomainError,
                       Exponential, FAMILIES, Normal, NormalLocation,
                       NormalRegression, Poisson, concentration_ellipse,
                       ellipse_polyline, get_family)
from .quadrature import Quadrature, QuadratureWarning
from .residuals import EmpiricalFunctions, ResidualConfig, tau_for_sample
from .simulate import SCHEMES, SimulationPlan, SimulationReport, run_simulation
from .solver import (Root, RootSet, SolverConfig, bootstrap_root_search,
                     cluster_roots, solve_from)
from .tables import (TableCell, TableReport, export_report, reproduce_table,
                     table_ids)
from .weights import (DEFAULT_SPECS, GammaKernel, GevKernel, KERNELS,
                      ScaledFKernel, WeibullKernel)

__version__ = "0.1.0"

__all__ = [
    "BivariateNormal", "ContaminationSpec", "DEFAULT_SPECS", "Dataset",
    "DatasetError", "DegenerateFitError", "DomainError",
    "EmpiricalFunctions", "Exponential", "FAMILIES", "GammaKernel",
    "GevKernel", "InfluenceReport", "KERNELS", "ModelDistribution",
    "Normal", "NormalLocation", "NormalRegression", "Poisson", "Quadrature",
    "QuadratureWarning", "ResidualConfig", "Root", "RootSet", "SCHEMES",
    "ScaledFKernel", "SimulationPlan", "SimulationReport", "SolverConfig",
    "TableCell", "TableReport", "WeibullKernel",
    "bootstrap_root_search", "cluster_roots", "concentration_ellipse",
    "curve_to_csv", "dataset_names", "ellipse_polyline", "export_report",
    "fisher_consistency_check", "get_family", "influence_first_order",
    "influence_report", "influence_second_order", "load_dataset",
    "mixture_root_scan", "population_weighted_score", "reproduce_table",
    "run_simulation", "solve_from", "table_ids",
    "tau_for_sample",
]
