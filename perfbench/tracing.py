"""Per-layer tracing for the arborium benchmark, from outside the program.

The layers are the modules of ``arborium``.  ``Tracer.install`` wraps every
public module-level function of each layer, plus a few class methods, at
every binding site: the defining module, each module that imported the name
with ``from``, the package namespace and dicts of functions such as
``cli.VERIFIERS``.  It then checks that no unwrapped reference is left.

Calls are not logged one by one: each wrapper adds its call count and self
time (its duration minus the time of wrapped calls made inside it) to a
per-function total, so the trace stays bounded in memory however hot the
kernel is.  Counters such as the number of term pairs multiplied are
gathered by the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("arbor", "algebra", "invariants", "oracle", "verify", "crosscheck", "cli")

# Class methods wrapped as well as the module functions.
METHODS = {
    "algebra": {"MultiPoly": ("__mul__", "__rmul__", "subs", "exact_div")},
    "arbor": {"Arbor": ("subtree_labels",)},
    "verify": {"Report": ("add", "to_dict", "render_text")},
}

_MUL = ("MultiPoly.__mul__", "MultiPoly.__rmul__")
_RHS = ("zeta_rhs", "m_triangle_rhs", "ehrhart_rhs", "laplace_rhs")

# Per-layer metrics: (name, unit, kind, source, what it should move).
#   kind "self":    summed self time of the listed functions of the layer
#   kind "calls":   summed call count of the listed functions
#   kind "layer":   self time of every wrapped function of the layer
#   kind "counter": a count gathered by a wrapper or by the harness
# Every "_s" metric is a self time per pass.  The "moves" column is the
# layer-to-metric map: which end-to-end metric on which workload a change
# to that layer should move.
PER_LAYER = [
    ("algebra.self_s", "s", "layer", "algebra", "series wall_s"),
    ("algebra.mul_calls", "count", "calls", ("algebra", _MUL), "series wall_s"),
    ("algebra.mul_term_pairs", "count", "counter", None, "series wall_s"),
    ("algebra.mul_s", "s", "self", ("algebra", _MUL), "series wall_s; barely corpus"),
    ("algebra.subs_s", "s", "self", ("algebra", ("MultiPoly.subs",)), "series wall_s"),
    ("algebra.exact_div_s", "s", "self", ("algebra", ("MultiPoly.exact_div",)),
     "series wall_s"),
    ("algebra.series_expand_s", "s", "self",
     ("algebra", ("series_expand_rational", "series_pow_symbolic")), "series wall_s"),
    ("algebra.lagrange_s", "s", "self", ("algebra", ("lagrange_interpolate",)), "corpus wall_s"),
    ("algebra.lagrange_calls", "count", "calls", ("algebra", ("lagrange_interpolate",)),
     "corpus wall_s"),
    ("algebra.laurent_s", "s", "self", ("algebra", ("laplace_laurent",)), "corpus wall_s"),
    ("invariants.self_s", "s", "layer", "invariants", "series, corpus wall_s"),
    *[(f"invariants.{f}_{suffix}", unit, kind, ("invariants", (f,)), "series wall_s")
      for f in ("zeta_poly", "k_poly", "m_triangle", "laplace", "volume")
      for suffix, unit, kind in (("s", "s", "self"), ("calls", "count", "calls"))],
    ("invariants.ehrhart_s", "s", "self", ("invariants", ("ehrhart",)),
     "corpus wall_s, op_p90_ms"),
    ("oracle.self_s", "s", "layer", "oracle", "corpus wall_s"),
    ("oracle.count_points_s", "s", "self", ("oracle", ("count_points",)), "corpus wall_s"),
    ("oracle.count_points_calls", "count", "calls", ("oracle", ("count_points",)),
     "corpus wall_s"),
    ("oracle.points_counted", "count", "counter", None, "corpus wall_s"),
    ("oracle.build_poset_s", "s", "self", ("oracle", ("build_poset",)), "corpus wall_s"),
    ("oracle.poset_elements", "count", "counter", None, "corpus wall_s"),
    ("oracle.enumerate_points_s", "s", "self", ("oracle", ("enumerate_points",)),
     "corpus wall_s"),
    ("oracle.multichain_s", "s", "self", ("oracle", ("multichain_weight_counts",)),
     "corpus wall_s"),
    ("oracle.zeta_oracle_s", "s", "self", ("oracle", ("zeta_oracle",)), "corpus wall_s"),
    ("oracle.mobius_s", "s", "self", ("oracle", ("mobius_oracle",)), "corpus wall_s"),
    ("oracle.mobius_entries", "count", "counter", None, "corpus wall_s"),
    ("oracle.m_triangle_oracle_s", "s", "self", ("oracle", ("m_triangle_oracle",)),
     "corpus wall_s"),
    ("oracle.k_oracle_s", "s", "self", ("oracle", ("k_oracle",)), "corpus wall_s"),
    ("arbor.self_s", "s", "layer", "arbor", "corpus wall_s"),
    ("arbor.parse_s", "s", "self", ("arbor", ("parse_arbor",)), "corpus wall_s"),
    ("arbor.serialize_s", "s", "self", ("arbor", ("serialize_arbor",)), "corpus wall_s"),
    ("arbor.subtree_labels_calls", "count", "calls", ("arbor", ("Arbor.subtree_labels",)),
     "series, corpus wall_s"),
    ("verify.self_s", "s", "layer", "verify", "series wall_s"),
    ("verify.rhs_s", "s", "self", ("verify", _RHS), "series wall_s"),
    ("verify.report_add_s", "s", "self", ("verify", ("Report.add",)), "series wall_s"),
    ("verify.report_add_calls", "count", "calls", ("verify", ("Report.add",)), "series wall_s"),
    ("crosscheck.self_s", "s", "layer", "crosscheck", "corpus wall_s"),
    ("crosscheck.checks", "count", "counter", None, "corpus wall_s"),
    ("crosscheck.spot_path_arbors", "count", "counter", None, "corpus wall_s"),
    ("cli.self_s", "s", "layer", "cli", "series, corpus wall_s"),
    ("cli.output_bytes", "bytes", "counter", None, "series, corpus wall_s"),
    ("trace.overhead", "ratio", "counter", None, "none: traced over untraced wall_s"),
]

class CoverageError(RuntimeError):
    """A binding of a layer function was left unwrapped."""


def _nterms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


class Tracer:
    """Installs and removes the wrappers, and holds the per-pass totals."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"arborium.{layer}") for layer in LAYERS}
        self.stats: dict = {}      # (layer, qualname) -> [calls, self seconds]
        self.counters: dict = {}   # metric name -> count
        self._stack: list = []     # child seconds of each open wrapped call
        self._undo: list = []      # (setter, target, key, original)
        self._originals: dict = {}  # id(original) -> (original, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observer(self, qualname):
        if qualname in _MUL:
            def observe(args, result):
                if result is not NotImplemented:
                    self._count("algebra.mul_term_pairs", _nterms(args[0]) * _nterms(args[1]))
            return observe
        if qualname == "count_points":
            return lambda args, result: self._count("oracle.points_counted", result)
        if qualname == "build_poset":
            return lambda args, result: self._count("oracle.poset_elements", result.size)
        if qualname == "mobius_oracle":
            return lambda args, result: self._count("oracle.mobius_entries", len(result))
        if qualname == "cross_check":
            def observe(args, result):
                self._count("crosscheck.checks", len(result))
                spot = any(o.name.startswith("zeta spot") for o in result)
                self._count("crosscheck.spot_path_arbors", int(spot))
            return observe
        return None

    def _wrap(self, layer, qualname, fn):
        totals = self.stats.setdefault((layer, qualname), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed - child
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _namespaces(self):
        """Every dict that can hold a reference to a layer function."""
        for name, module in list(sys.modules.items()):
            if name != "arborium" and not name.startswith("arborium."):
                continue
            space = vars(module)
            yield space
            for key, value in space.items():
                if isinstance(value, dict) and not key.startswith("__"):
                    yield value

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self._originals[id(fn)] = (fn, self._wrap(layer, name, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for name in methods:
                    original = cls.__dict__[name]
                    wrapper = self._wrap(layer, f"{cls_name}.{name}", original)
                    self._undo.append((setattr, cls, name, original))
                    setattr(cls, name, wrapper)
        for space in self._namespaces():
            for key, value in list(space.items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._undo.append((dict.__setitem__, space, key, value))
                    space[key] = entry[1]
        self.check_coverage()

    def check_coverage(self):
        """Raise CoverageError if any namespace still holds an unwrapped function."""
        for space in self._namespaces():
            for key, value in space.items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    raise CoverageError(f"unwrapped binding {key!r} -> {value.__qualname__}")
        for layer in LAYERS:
            if not any(key[0] == layer for key in self.stats):
                raise CoverageError(f"layer {layer} has no wrapped function")

    def uninstall(self):
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)
        self._originals.clear()

    # -- totals ----------------------------------------------------------------

    def reset(self):
        for totals in self.stats.values():
            totals[0] = 0
            totals[1] = 0.0
        self.counters.clear()
        if self._stack:
            raise RuntimeError("reset inside a traced call")

    def metric(self, kind, source, name):
        if kind == "layer":
            return sum(t[1] for (layer, _), t in self.stats.items() if layer == source)
        if kind in ("self", "calls"):
            layer, names = source
            index = 1 if kind == "self" else 0
            missing = [n for n in names if (layer, n) not in self.stats]
            if missing:
                raise CoverageError(f"{name}: no wrapped function {missing}")
            return sum(self.stats[(layer, n)][index] for n in names)
        return self.counters.get(name, 0)

    def snapshot(self) -> dict:
        """Per-layer values of the pass just traced (harness metrics excluded)."""
        return {name: self.metric(kind, source, name)
                for name, _, kind, source, _ in PER_LAYER
                if name not in ("cli.output_bytes", "trace.overhead")}
