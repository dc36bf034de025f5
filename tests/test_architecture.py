"""The family chooses its residual: the residual module and the solver
hold no switch on the family's kind or class."""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from wle.families import Family
from wle.residuals import ResidualConfig
from wle.simulate import SimulationPlan
from wle.solver import SolverConfig
from wle.weights import KERNELS

SRC = Path(__file__).resolve().parents[1] / "src" / "wle"


def _family_classes():
    names, todo = set(), [Family]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _tree(module):
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _imported(tree):
    """Dotted names of every module and name that `tree` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


def _names(node):
    """The class names that an isinstance argument refers to."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _is_literal(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_is_literal(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _kind_switches(tree):
    """Lines that compare a `.kind` with a string literal. A config
    validating its own `self.kind` is not a switch, and neither is the
    check that a residual config's kind matches the family's."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        kinds = [o for o in operands if isinstance(o, ast.Attribute)
                 and o.attr == "kind" and not (isinstance(o.value, ast.Name)
                                               and o.value.id == "self")]
        if kinds and any(_is_literal(o) for o in operands):
            yield node.lineno


def test_residuals_does_not_import_families():
    imported = [name for name in _imported(_tree("residuals.py"))
                if "families" in name.split(".")]
    assert imported == []


@pytest.mark.parametrize("module", ["residuals.py", "solver.py"])
def test_no_switch_on_the_family(module):
    tree = _tree(module)
    assert list(_kind_switches(tree)) == []
    families = _family_classes()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            assert not _names(node.args[1]) & families, node.lineno


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_bivariate_keyword(module):
    # the sample's shape says whether it is bivariate: no function takes
    # a `bivariate` argument and no call passes one
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Call):
            assert "bivariate" not in {k.arg for k in node.keywords}
        elif isinstance(node, ast.arguments):
            assert "bivariate" not in {a.arg for a in [
                *node.posonlyargs, *node.args, *node.kwonlyargs]}


def test_solver_holds_no_data_check_of_its_own():
    # which observations a family accepts is `Family.check_data`'s rule;
    # the solver calls it and none of the family's partial checks
    called = {node.func.attr for node in ast.walk(_tree("solver.py"))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert "check_data" in called
    assert not called & {"check_support", "check_shape"}


def test_solver_constructs_no_numpy_generator():
    # the restart streams equal numpy's per-restart Philox streams and are
    # computed in solver.py, so it names none of numpy's constructors
    named = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(_tree("solver.py"))}
    assert not named & {"Generator", "Philox", "SeedSequence"}


_COLD_RUN = """
import sys
import wle
from wle.diagnostics import (ContaminationSpec, ModelDistribution,
                             mixture_root_scan)
from wle.families import concentration_ellipse

for name in wle.dataset_names():
    wle.load_dataset(name)
x = wle.load_dataset("newcomb").column("deviation")
wle.bootstrap_root_search(wle.get_family("normal"), x, wle.ResidualConfig(),
                          wle.GammaKernel(1.01), wle.SolverConfig())
concentration_ellipse([0.0, 0.0, 1.0, 2.0, 0.5])
norm = wle.get_family("normal")
cs = ContaminationSpec(base=ModelDistribution(norm, (0.0, 1.0)), eps=0.2,
                       contaminant=ModelDistribution(norm, (5.0, 1.0)))
assert len(mixture_root_scan(cs, wle.GammaKernel(1.05),
                             [-1.0, 1.0, 2.5, 4.0, 6.0])) == 3
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_src_imports_only_scipy_special(module):
    scipy = {name for name in _imported(_tree(module))
             if name.split(".")[0] == "scipy"}
    assert all(name.startswith("scipy.special") for name in scipy), scipy


def test_run_time_loads_no_heavy_scipy_subpackage():
    # the estimator needs only scipy.special at run time; the heavier
    # subpackages are test oracles and would triple the cold start
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _COLD_RUN], check=True,
                         capture_output=True, text=True, env=env).stdout
    loaded = set(out.split())
    assert "scipy.special" in loaded
    heavy = {"scipy.stats", "scipy.optimize", "scipy.integrate",
             "scipy.linalg"}
    assert not loaded & heavy


def _field_names():
    return {f.name for config in (SolverConfig, ResidualConfig,
                                  SimulationPlan, *KERNELS.values())
            for f in fields(config)}


def test_cli_flags_restate_no_field_default():
    # a flag named after a config field, or built from a name, is None
    # when not given, so the field default is its only home
    names = _field_names()
    for node in ast.walk(_tree("cli.py")):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        flag = node.args[0]
        named = (not isinstance(flag, ast.Constant)
                 or flag.value.lstrip("-").replace("-", "_") in names)
        if named:
            assert "default" not in {k.arg for k in node.keywords}, \
                node.lineno


def _readers(attr):
    """(module, innermost function) of every read of `.attr`, or of the
    bare name `attr`, in src."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (attr in (getattr(node, "attr", None), getattr(node, "id", None))
                and isinstance(getattr(node, "ctx", None), ast.Load)):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in SRC.glob("*.py"):
        visit(_tree(path.name), path.name, None)
    return found


def test_one_function_reads_the_minimum_subsample():
    # the subsample size max(bootstrap_m, min_subsample) and its check on
    # n have one home
    assert _readers("min_subsample") == {("solver.py", "subsample_size")}


def test_one_rule_says_a_theta_is_near_a_root():
    # clustering and the loop's stop at a fixed root read the near-root
    # rule, ROOT_TOL relative to the candidate's 1 + max|theta|, from one
    # helper
    assert _readers("ROOT_TOL") == {("solver.py", "_near_roots")}


def test_run_simulation_keeps_no_per_estimator_list():
    # a study's estimates and root counts are arrays filled in place;
    # every report column and failure count is a reduction of them
    run = next(node for node in ast.walk(_tree("simulate.py"))
               if isinstance(node, ast.FunctionDef)
               and node.name == "run_simulation")
    appends = [node.lineno for node in ast.walk(run)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "append"]
    assert appends == []


def _methods(module, name):
    """The `name` function of each class in `module`, by class name."""
    return {cls.name: fn for cls in ast.walk(_tree(module))
            if isinstance(cls, ast.ClassDef) for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == name}


def _calls(node, name):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == name for n in ast.walk(node))


def test_settings_have_one_gate():
    # each config and kernel checks its numeric fields through the one
    # settings rule, and the integer test lives only there
    for module, classes in (("solver.py", ["SolverConfig"]),
                            ("simulate.py", ["SimulationPlan"]),
                            ("weights.py", [k.__name__
                                            for k in KERNELS.values()])):
        posts = _methods(module, "__post_init__")
        for cls in classes:
            assert _calls(posts[cls], "check_settings"), cls
    found = set()

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "integer" in _names(node.args[1])):
            found.add((module, where))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in SRC.glob("*.py"):
        visit(_tree(path.name), path.name, None)
    assert found == {("solver.py", "check_settings")}


@pytest.mark.parametrize("module", ["families.py", "diagnostics.py"])
def test_a_checked_parameter_is_not_reshaped(module):
    # `check_params` returns theta as a float vector, so no family method
    # or diagnostic flattens a parameter again
    for node in ast.walk(_tree(module)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            names = {n.id for part in (node.func.value, *node.args)
                     for n in ast.walk(part) if isinstance(n, ast.Name)}
            assert not any(n.startswith("theta") for n in names), node.lineno


_CONVERTERS = {"asarray", "array", "asanyarray", "atleast_1d", "atleast_2d",
               "_asarray1d"}


def _is_input(node):
    return isinstance(node, ast.Name) and (node.id in ("x", "xy")
                                           or node.id.startswith("theta"))


def test_family_methods_read_the_gated_arrays_as_they_are():
    # `check_data` and `check_params` return x and theta as float arrays,
    # so no other function in families.py converts or reshapes x, xy or a
    # theta again
    tree = _tree("families.py")
    assert "_asarray1d" not in {n.name for n in ast.walk(tree)
                                if isinstance(n, ast.FunctionDef)}
    for fn in ast.walk(tree):
        if (not isinstance(fn, ast.FunctionDef)
                or fn.name in ("check_data", "check_params")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute):
                name = func.attr
                if name == "reshape":  # x.reshape(...) or np.reshape(x, ...)
                    args = [func.value, *args]
            else:
                name = getattr(func, "id", None)
            if name in _CONVERTERS or name == "reshape":
                assert not any(map(_is_input, args)), (fn.name, node.lineno)


def test_only_tau_for_sample_reads_the_sample_point_values():
    # the residual receives the sample-point values as arrays: no family
    # method calls back into the empirical functions
    assert _readers("at_sample") == {("residuals.py", "tau_for_sample")}


def test_residuals_takes_the_sample_as_it_is():
    # the empirical functions read the sample in the shape `check_data`
    # returns, so residuals.py reshapes no sample
    for node in ast.walk(_tree("residuals.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            names = {n.id for part in (node.func.value, *node.args)
                     for n in ast.walk(part) if isinstance(n, ast.Name)}
            assert not names & {"x", "xy", "data"}, node.lineno
