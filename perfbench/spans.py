"""In-memory span tracer that wraps treeshrink's layers from outside.

Each entry of ``LAYERS`` names a function by the module attribute it is
looked up under at call time, so replacing that attribute intercepts every
call without editing the package.  A wrapped call records one span (name,
start, end, parent span) and, where the layer has exact work counts, adds
them to per-layer counters.  The per-layer metrics are derived from the
spans afterwards: calls, total seconds and, for layers with wrapped
children, self seconds.

A layer whose attribute no longer exists is reported as absent; its metrics
read zero and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _barycenter_counts(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    r = problem.R
    return {"vars": r + r * sum(problem.support_sizes())}


def _transport_counts(args, kwargs, result):
    # wasserstein_lp answers one-line marginals in closed form; only the
    # others reach linprog.
    q, q_other = _arg(args, kwargs, 0, "q"), _arg(args, kwargs, 1, "q_other")
    return {"lp_calls": int(len(q) > 1 and len(q_other) > 1)}


def _solver_counts(args, kwargs, result):
    return {"iters": result.iterations, "unconverged": int(not result.converged)}


# (metric prefix, module, attribute path, work counter).  A layer looked up
# under several names is wrapped at each of them and counted once per call.
LAYERS = (
    ("reduce.reduce_tree", "treeshrink", "reduce_tree", None),
    ("reduce.init_plan", "treeshrink.reduce", "init_plan", None),
    ("reduce.evaluate_plan", "treeshrink.reduce", "evaluate_plan", None),
    ("reduce.probability_step", "treeshrink.reduce", "probability_step", None),
    ("reduce.quantizer_step", "treeshrink.reduce", "quantizer_step", None),
    ("reduce.extract_probabilities", "treeshrink.reduce", "extract_probabilities", None),
    ("ot_core.barycenter_lp", "treeshrink.reduce", "barycenter_lp", _barycenter_counts),
    ("mam.mam_solve", "treeshrink.reduce", "mam_solve", _solver_counts),
    ("ibp.ibp_solve", "treeshrink.reduce", "ibp_solve", _solver_counts),
    ("tree.path_cost_table", "treeshrink.reduce", "path_cost_table", None),
    ("nested.nested_distance", "treeshrink", "nested_distance", None),
    ("ot_core.wasserstein_lp", "treeshrink.nested", "wasserstein_lp", _transport_counts),
    ("tree.path_cost_table", "treeshrink.nested", "path_cost_table", None),
    ("init_filtration.ffs_init", "treeshrink.init_filtration", "ffs_init", None),
    ("init_filtration.random_init", "treeshrink.init_filtration", "random_init", None),
    ("tree.ScenarioTree.load", "treeshrink.tree", "ScenarioTree.load", None),
)

# Work counters each layer reports besides calls and seconds.
COUNTS = {
    "ot_core.barycenter_lp": ("vars",),
    "ot_core.wasserstein_lp": ("lp_calls",),
    "mam.mam_solve": ("iters", "unconverged"),
    "ibp.ibp_solve": ("iters", "unconverged"),
}

# Layers whose wrapped children are subtracted to give a self time.
SELF_TIME = ("reduce.reduce_tree", "reduce.probability_step",
             "nested.nested_distance")


def layer_metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    names = {}
    for prefix, _, _, _ in LAYERS:
        names[f"{prefix}.calls"] = "count"
        names[f"{prefix}.s"] = "s"
        if prefix in SELF_TIME:
            names[f"{prefix}.self_s"] = "s"
        for count in COUNTS.get(prefix, ()):
            names[f"{prefix}.{count}"] = "count"
    return names


class Tracer:
    """Spans of the calls made while installed, plus work counters.

    Spans are ``[name, start, end, parent index]`` lists; the benchmark is
    single-threaded, so the open spans form one stack.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []
        self._restore = []

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, prefix, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(prefix):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    if f"{prefix} counts" not in tracer.absent:
                        tracer.absent.append(f"{prefix} counts")
                    counts = {}
                for key, value in counts.items():
                    name = f"{prefix}.{key}"
                    tracer.counts[name] = tracer.counts.get(name, 0) + value
            return result

        return wrapper

    def install(self):
        """Replace every present layer attribute by a recording wrapper."""
        self.absent = []
        for prefix, module_name, path, counter in LAYERS:
            *owner_path, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(prefix, getattr(owner, attr), counter)
            # A class attribute is stored as a staticmethod around the bound
            # original, so class-level calls keep their signature.
            setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
            self._restore.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self):
        """Per-layer values of the spans and counters recorded since reset."""
        out = dict.fromkeys(layer_metric_names(), 0)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for (name, start, end, parent), children in zip(self.spans, child_s):
            if f"{name}.calls" not in out:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            if name in SELF_TIME:
                out[f"{name}.self_s"] += end - start - children
        for name, value in self.counts.items():
            out[name] += value
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None]

    def __enter__(self):
        stack = self.tracer._stack
        self.record[3] = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False
