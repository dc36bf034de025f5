"""Per-layer tracing of the wle package from outside it.

Wrappers are installed at run time on the names callers look up: module
attributes such as ``wle.solver.tau_for_sample`` (imported by name into
the solver) and methods on the classes that define them, such as
``wle.families.Normal.cdf_batch``. Each wrapper opens a span; a span's
self time is its duration minus the durations of the spans it directly
contains, so the self times of all spans add up to the traced time.
``Tracer.remove`` puts every original object back.
"""

import functools
from collections import defaultdict
from time import perf_counter

def _rows(a):
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a) if hasattr(a, "__len__") else 1
    return shape[0] if len(shape) else 1


def _size(a):
    size = getattr(a, "size", None)
    if size is None:
        return len(a) if hasattr(a, "__len__") else 1
    return int(size)


class Tracer:
    """Span stack, per-key self time and counters of one traced phase."""

    def __init__(self):
        self.stack = []                   # frames: [key, child_seconds, flags]
        self.self_s = defaultdict(float)  # span key -> summed self time
        self.count = defaultdict(int)
        self._patched = []                # (owner, attribute, original)
        self.missing = set()              # names not found to wrap

    # -- span machinery --------------------------------------------------

    def _wrap(self, fn, key, fold=(), on_call=None, on_return=None):
        stack, self_s = self.stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] in fold:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args)
            frame = [key, 0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def _patch(self, owner, attr, key, **hooks):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, key, **hooks))

    def wrap_integrand(self, f):
        """Span for a quadrature integrand: its work belongs to the caller."""
        count = self.count

        def counted(x):
            count["quadrature.integrand_evals"] += _rows(x)
            return f(x)

        return self._wrap(counted, "diagnostics.integrand")

    # -- installation ----------------------------------------------------

    def install(self, wle):
        """Wrap the public entry points of every traced layer."""
        c = self.count

        def add(name, measure=None):
            def hook(tracer, args):
                c[name] += 1 if measure is None else measure(args)
            return hook

        def search_done(tracer, rs):
            c["solver.starts"] += rs.n_restarts
            c["solver.failed_starts"] += rs.n_failed
            c["solver.skipped_subsamples"] += rs.n_skipped_subsamples
            c["solver.distinct_roots"] += len(rs.roots)

        def batch_call(tracer, args):
            for frame in reversed(tracer.stack):
                if frame[0] == "solver.search":
                    frame[2] = "batched"
                    break

        def solve_call(tracer, args):
            for frame in reversed(tracer.stack):
                if frame[0] == "solver.search":
                    if frame[2] == "batched":
                        c["solver.retries"] += 1
                    break

        search = self._wrap(wle.solver.bootstrap_root_search, "solver.search",
                            on_call=add("solver.searches"),
                            on_return=search_done)
        for module in (wle.solver, wle.simulate):
            self._patched.append((module, "bootstrap_root_search",
                                  module.bootstrap_root_search))
            module.bootstrap_root_search = search
        s = wle.solver
        self._patch(s, "solve_from", "solver.solve_from", on_call=solve_call)
        self._patch(s, "_solve_batch", "solver.batch", on_call=batch_call)
        self._patch(s, "build_root_set", "solver.cluster",
                    fold=("solver.cluster",))
        self._patch(s, "cluster_roots", "solver.cluster",
                    fold=("solver.cluster",))
        self._patch(s, "tau_for_sample", "residuals.tau",
                    on_call=add("residuals.tau_calls"))
        self._patch(wle.simulate, "run_simulation", "simulate.run")

        emp = wle.residuals.EmpiricalFunctions
        self._patch(emp, "__init__", "residuals.empirical",
                    on_call=add("residuals.empirical_builds"))
        for attr in ("cdf", "survival", "quadrants"):
            self._patch(emp, attr, "residuals.empirical")

        classes = {k for fam in wle.families.FAMILIES.values()
                   for k in type(fam).__mro__ if k is not object}
        fit_rows = add("families.fit_rows", lambda a: _rows(a[-1]))
        for cls in classes:
            self._patch_optional(cls, "mle", "families.mle",
                                 on_call=add("families.mle_calls"))
            self._patch_optional(cls, "weighted_fit", "families.fit",
                                 fold=("families.mle",),
                                 on_call=add("families.fit_rows"))
            self._patch_optional(cls, "weighted_fit_batch", "families.fit",
                                 on_call=fit_rows)
            for attr in ("cdf_survival", "quadrant_probabilities"):
                self._patch_optional(
                    cls, attr, "families.cdf", fold=("families.cdf",),
                    on_call=add("families.cdf_elements",
                                lambda a: _rows(a[-1])))
            self._patch_optional(
                cls, "cdf_batch", "families.cdf",
                on_call=add("families.cdf_elements",
                            lambda a: _rows(a[-2]) * _size(a[-1])))
            self._patch_optional(cls, "score", "families.score",
                                 on_call=add("families.score_calls"))
        self._patch(wle.families, "bvn_cdf", "bvn.cdf",
                    on_call=add("bvn.elements", lambda a: _size(a[0])))

        wf = wle.weights.WeightFunction
        for attr in ("weight", "weight_derivative"):
            self._patch(wf, attr, "weights.eval",
                        on_call=add("weights.elements",
                                    lambda a: _size(a[-1])))

        quad = wle.quadrature.Quadrature
        original = quad.integrate
        tracer = self

        def integrate(q, f, a, b, points=()):
            return original(q, tracer.wrap_integrand(f), a, b, points)

        self._patched.append((quad, "integrate", original))
        quad.integrate = self._wrap(integrate, "quadrature.integrate")

        d = wle.diagnostics
        self._patch(d, "population_weighted_score", "diagnostics.psi",
                    on_call=add("diagnostics.psi_evals"))
        for attr in ("mixture_root_scan", "fisher_consistency_check",
                     "influence_report", "influence_first_order",
                     "influence_second_order"):
            self._patch(d, attr, "diagnostics.entry")

    def _patch_optional(self, cls, attr, key, **hooks):
        if attr in cls.__dict__:
            self._patch(cls, attr, key, **hooks)

    def remove(self):
        """Restore every wrapped name."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items()
                   if k.split(".", 1)[0] == layer)

    def metrics(self, passes, wall_s):
        """Per-layer metrics, each averaged over the traced passes."""
        c, s = self.count, self.self_s
        per = 1.0 / passes
        starts = c["solver.starts"]

        def share(num, den):
            return num / den if den else 0.0

        weights_s = s["weights.eval"] * per
        weights_n = c["weights.elements"] * per
        out = {
            "simulate.self_s": (self.layer_self_s("simulate") * per, "s"),
            "solver.self_s": (self.layer_self_s("solver") * per, "s"),
            "solver.searches": (c["solver.searches"] * per, "count"),
            "solver.starts": (starts * per, "count"),
            "solver.retries": (c["solver.retries"] * per, "count"),
            "solver.retry_share": (share(c["solver.retries"], starts),
                                   "share"),
            "solver.failed_start_share": (
                share(c["solver.failed_starts"], starts), "share"),
            "solver.skipped_subsamples": (
                c["solver.skipped_subsamples"] * per, "count"),
            "solver.distinct_per_start": (
                share(c["solver.distinct_roots"], starts), "share"),
            "solver.cluster_s": (s["solver.cluster"] * per, "s"),
            "families.mle_calls": (c["families.mle_calls"] * per, "count"),
            "families.mle_s": (s["families.mle"] * per, "s"),
            "families.fit_rows": (c["families.fit_rows"] * per, "count"),
            "families.fit_s": (s["families.fit"] * per, "s"),
            "families.cdf_elements": (c["families.cdf_elements"] * per,
                                      "count"),
            "families.cdf_s": (s["families.cdf"] * per, "s"),
            "families.score_calls": (c["families.score_calls"] * per,
                                     "count"),
            "families.score_s": (s["families.score"] * per, "s"),
            "residuals.tau_calls": (c["residuals.tau_calls"] * per, "count"),
            "residuals.tau_s": (s["residuals.tau"] * per, "s"),
            "residuals.empirical_builds": (
                c["residuals.empirical_builds"] * per, "count"),
            "residuals.empirical_s": (s["residuals.empirical"] * per, "s"),
            "weights.elements": (weights_n, "count"),
            "weights.s": (weights_s, "s"),
            "weights.ns_per_element": (share(weights_s * 1e9, weights_n),
                                       "ns"),
            "bvn.elements": (c["bvn.elements"] * per, "count"),
            "bvn.s": (s["bvn.cdf"] * per, "s"),
            "quadrature.integrand_evals": (
                c["quadrature.integrand_evals"] * per, "count"),
            "quadrature.s": (self.layer_self_s("quadrature") * per, "s"),
            "diagnostics.psi_evals": (c["diagnostics.psi_evals"] * per,
                                      "count"),
            "diagnostics.self_s": (self.layer_self_s("diagnostics") * per,
                                   "s"),
            "trace.wall_s": (wall_s * per, "s"),
        }
        return out
