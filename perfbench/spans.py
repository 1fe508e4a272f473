"""Span and counter recorder for the traced run.

The recorder wraps package functions from outside the package: every
module attribute bound to a measured function is replaced by a wrapper
that records a span (name, start, end, parent) or bumps a counter.  The
package imports functions by name (``suites``, ``evolution`` and ``cli``
each bind ``simulate_fbm``; ``criteria`` binds ``gauss_2f1``), so each
binding in every loaded ``volterrasim`` module is replaced, not only the
defining one.  A target that no longer exists is listed as absent.
"""

import importlib
import os
import sys
import time

PACKAGE = "volterrasim"
MODULES = ("rng", "processes", "kernels", "integration", "evolution",
           "diagnostics", "hypergeom", "criteria", "suites", "cli")

# (layer name, module, attribute); each call records a span and a call count
SPANS = (
    ("processes.fbm_covariance_matrix", "processes", "fbm_covariance_matrix"),
    ("processes.simulate_fbm", "processes", "simulate_fbm"),
    ("processes.simulate_rosenblatt", "processes", "simulate_rosenblatt"),
    ("processes.Ensemble.to_csv", "processes", "Ensemble.to_csv"),
    ("processes.rosenblatt_cumulant", "processes", "rosenblatt_cumulant"),
    ("rng.normal_matrix", "rng", "normal_matrix"),
    ("diagnostics.energy_two_sample", "diagnostics", "energy_two_sample"),
    ("diagnostics.energy_statistic", "diagnostics", "energy_statistic"),
    ("integration.d_norm_sq", "integration", "d_norm_sq"),
    ("integration.definite_integral", "integration", "definite_integral"),
    ("evolution.solve_mild", "evolution", "solve_mild"),
    ("evolution.sample_x_infinity", "evolution", "sample_x_infinity"),
    ("evolution.covariance_g", "evolution", "covariance_g"),
    ("kernels.phi_quadrature", "kernels", "phi_quadrature"),
    ("kernels.cov_R_quadrature", "kernels", "cov_R_quadrature"),
    ("criteria.j_quadrature", "criteria", "j_quadrature"),
    ("criteria.j_closed_form", "criteria", "j_closed_form"),
    ("suites.kernel", "suites", "suite_kernel"),
    ("suites.isometry", "suites", "suite_isometry"),
    ("suites.law_symmetry", "suites", "suite_law_symmetry"),
    ("suites.stationarity", "suites", "suite_stationarity"),
    ("suites.limit", "suites", "suite_limit"),
    ("suites.criteria", "suites", "suite_criteria"),
)

# (counter name, module, attribute); counted without a span, because these
# run millions of times in the quadrature layers
COUNTERS = (
    ("rng.path_rng.calls", "rng", "path_rng"),
    ("hypergeom.gauss_2f1.calls", "hypergeom", "gauss_2f1"),
    ("quad.calls", "scipy.integrate", "quad"),
    ("kernels.deriv.evals", "kernels", "FbmKernel._deriv"),
)


def _layer_metrics():
    """name -> unit of every metric the tracer measures in a pass."""
    out = {name + ".s": "s" for name, _, _ in SPANS}
    out.update((name + ".self_s", "s") for name in (
        "processes.simulate_fbm", "processes.simulate_rosenblatt",
        "evolution.solve_mild", "evolution.sample_x_infinity"))
    out.update((name + ".calls", "count") for name in (
        "diagnostics.energy_two_sample", "kernels.phi_quadrature"))
    out.update((name, "count") for name, _, _ in COUNTERS)
    out["processes.csv.bytes"] = "bytes"
    return out


LAYER_METRICS = _layer_metrics()


def _module(name):
    full = name if name.startswith("scipy") else f"{PACKAGE}.{name}"
    try:
        return importlib.import_module(full)
    except ImportError:
        return None


def _resolve(module, attr):
    """(owner, leaf name, object) for "func" or "Class.method", else None."""
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, leaf):
        return None
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """In-memory spans and counters; written out once the pass ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self.absent = []
        self._stack = []

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None]
            spans.append(record)
            stack.append(len(spans) - 1)
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if name == "processes.Ensemble.to_csv":
                path = args[1] if len(args) > 1 else kwargs["path"]
                counts["processes.csv.bytes"] = (
                    counts.get("processes.csv.bytes", 0)
                    + os.path.getsize(path))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        by_size = name == "kernels.deriv.evals"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] = counts.get(name, 0) + (
                getattr(result, "size", 1) if by_size else 1)
            return result

        return wrapper

    def install(self):
        """Wrap every target; must run before the pass calls into them."""
        for mod in MODULES:
            if _module(mod) is None:
                self.absent.append(f"{PACKAGE}.{mod}")
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == PACKAGE
                                        or n.startswith(PACKAGE + "."))]
        targets = [(n, m, a, self._span_wrapper) for n, m, a in SPANS]
        targets += [(n, m, a, self._count_wrapper) for n, m, a in COUNTERS]
        for name, mod, attr, make in targets:
            module = _module(mod)
            found = module and _resolve(module, attr)
            if not found:
                self.absent.append(f"{mod}.{attr}")
                continue
            owner, leaf, original = found
            wrapped = make(name, original)
            setattr(owner, leaf, wrapped)
            if "." in attr:
                continue  # a method: the class is the single binding
            for other in loaded:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    def layer_metrics(self):
        """Every metric of LAYER_METRICS; absent layers read 0."""
        inclusive, child = {}, [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            if parent is not None:
                child[parent] += end - start
        own = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start - covered)
        out = {}
        for metric in LAYER_METRICS:
            if metric.endswith(".self_s"):
                out[metric] = own.get(metric[:-len(".self_s")], 0.0)
            elif metric.endswith(".s"):
                out[metric] = inclusive.get(metric[:-len(".s")], 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out
