"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function and method of every
`poissonlie` module, and rebinds each wrapper in every module namespace that
imported the original (``poisson`` does ``from .group import adjoint_matrix``).
Each call records one span: parent span, name, start, end and one value slot
used by the counters below.  Spans stay in memory in flat arrays and are
written out once at the end; self time is computed from them afterwards."""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from dataclasses import is_dataclass

import numpy as np

from workloads import KNOB_TARGETS

#: per-layer metrics: (metric prefix, span name or prefix ending in ".", kinds).
#: `calls` counts spans, `self_s` sums self time, `s` sums inclusive time,
#: the `*_ratio` kinds average the value slot and `pairs` sums it.
LAYERS = [
    ("group.exp_b", "group.exp_b", ("calls", "self_s")),
    ("group.adjoint_matrix", "group.adjoint_matrix", ("calls", "self_s", "cached_ratio")),
    ("group.adE", "group.adE", ("calls", "self_s")),
    ("group.sample_e_element", "group.sample_e_element", ("calls", "self_s")),
    ("group.e_mul", "group.e_mul", ("self_s",)),
    ("matched.coadjoint_on_b0", "matched.MatchedPair.coadjoint_on_b0", ("calls", "self_s")),
    ("matched.action_on_c", "matched.MatchedPair.action_on_c", ("calls", "self_s")),
    ("matched.invariance_residual", "matched.MatchedPair.invariance_residual", ("self_s",)),
    ("matched.from_json", "matched.MatchedPair.from_json", ("self_s",)),
    ("poisson.eta0", "poisson.eta0", ("calls", "self_s")),
    ("poisson.eta_b", "poisson.eta_b", ("self_s",)),
    ("poisson.verify_cocycle", "poisson.verify_cocycle", ("self_s",)),
    ("lie.MatrixBasisSolver.solve_many", "lie.MatrixBasisSolver.solve_many", ("calls", "self_s")),
    ("lie.trace_pairing", "lie.trace_pairing", ("calls", "self_s")),
    ("lie.bracket_coords", "lie.LieAlgebra.bracket_coords", ("calls", "self_s")),
    ("lie.from_realization", "lie.from_realization", ("self_s",)),
    ("bialgebra.build_e", "bialgebra.build_e", ("calls", "self_s")),
    ("bialgebra.delta_direct", "bialgebra.delta_direct", ("self_s",)),
    ("bialgebra.delta_from_eta", "bialgebra.delta_from_eta", ("self_s",)),
    ("bialgebra.r_matrix", "bialgebra.r_matrix", ("self_s",)),
    ("bialgebra.check_r_uniqueness", "bialgebra.check_r_uniqueness", ("self_s",)),
    ("manin.twist_element", "manin.twist_element", ("self_s",)),
    ("manin.schouten_square", "manin.schouten_square", ("self_s",)),
    ("manin.gerstenhaber_d", "manin.gerstenhaber_d", ("self_s",)),
    ("manin.check_manin", "manin.check_manin", ("self_s",)),
    ("manin.cobracket_on_gstar", "manin.cobracket_on_gstar", ("self_s",)),
    ("manin.cprime_residual", "manin.cprime_residual", ("self_s",)),
    ("manin.deform_bracket", "manin.deform_bracket", ("self_s",)),
    ("quantize.verify_semiclassical", "quantize.verify_semiclassical", ("pairs",)),
    ("quantize.CrossedAlgebra.mul", "quantize.CrossedAlgebra.mul", ("calls", "self_s")),
    ("quantize.mono_pairs", "quantize.CrossedAlgebra.mono_pairs", ("calls", "hit_ratio")),
    ("quantize.poisson_sym", "quantize.poisson_sym", ("self_s",)),
    ("quantize.Coproduct", "quantize.Coproduct.", ("self_s",)),
    ("trig.fit_trig", "trig.fit_trig", ("calls", "self_s")),
    ("linalg.finite_diff", "linalg.finite_diff", ("calls", "self_s")),
    ("catalog.get_entry", "catalog.get_entry", ("self_s",)),
    ("checks.conventions_report", "checks.conventions_report", ("s",)),
    ("cli.run", "cli.run", ("self_s",)),
    ("cli.text_summary", "cli.text_summary", ("self_s",)),
]

LAYERS += [(f"checks.{c}", f"checks.run_check[{c}]", ("s",)) for c in KNOB_TARGETS.values()]


def _adjoint_cached(args, kwargs):
    return 1.0 if args[1]._ad is not None else 0.0


def _mono_pairs_hit(args, kwargs):
    return 1.0 if (args[1], args[2]) in args[0]._pair_cache else 0.0


def _pairs_checked(result):
    return float(result["pairs"])


def _check_span(args, kwargs):
    return f"checks.run_check[{args[0] if args else kwargs['name']}]"


#: span name -> (value before the call, value from the result, span renamer)
HOOKS = {
    "group.adjoint_matrix": (_adjoint_cached, None, None),
    "quantize.CrossedAlgebra.mono_pairs": (_mono_pairs_hit, None, None),
    "quantize.verify_semiclassical": (None, _pairs_checked, None),
    "checks.run_check": (None, None, _check_span),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._id(name))
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, span: str, fn):
        before, after, rename = HOOKS.get(span, (None, None, None))
        nid = self._id(span)
        parent, names, value, start, end = (self.parent, self.name, self.value,
                                            self.start, self.end)
        stack, ident, clock = self._stack, self._id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = nid if rename is None else ident(rename(args, kwargs))
            val = 0.0 if before is None else before(args, kwargs)
            i = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            value.append(val)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                value[i] = after(out)
            return out

        return traced

    def install(self):
        """Wrap the public functions and methods of every poissonlie module."""
        pkg = importlib.import_module("poissonlie")
        modules = [importlib.import_module(f"poissonlie.{info.name}")
                   for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for ns in [pkg] + modules:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])

    def _wrap_methods(self, short: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not is_dataclass(cls)):
                continue
            span = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(span, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self.wrap(span, obj.__func__)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {"parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "value": np.frombuffer(self.value).copy()}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans lo..hi-1, which must be a closed subtree."""
    arr = {k: v[lo:hi] for k, v in tracer.arrays().items()}
    n, count = hi - lo, len(tracer.names)
    dur = arr["end"] - arr["start"]
    inside = arr["parent"] >= lo
    children = np.bincount(arr["parent"][inside] - lo, weights=dur[inside], minlength=n)
    own = dur - children
    by = {"calls": np.bincount(arr["name"], minlength=count).astype(float),
          "self_s": np.bincount(arr["name"], weights=own, minlength=count),
          "s": np.bincount(arr["name"], weights=dur, minlength=count),
          "value": np.bincount(arr["name"], weights=arr["value"], minlength=count)}

    def total(selector: str, key: str) -> float:
        ids = [i for i, name in enumerate(tracer.names)
               if name == selector or (selector.endswith(".") and name.startswith(selector))]
        return float(sum(by[key][i] for i in ids))

    out = {}
    for prefix, selector, kinds in LAYERS:
        calls = total(selector, "calls")
        for kind in kinds:
            if kind in ("cached_ratio", "hit_ratio"):
                val = total(selector, "value") / calls if calls else 0.0
            elif kind == "pairs":
                val = total(selector, "value")
            else:
                val = total(selector, kind)
            out[f"{prefix}.{kind}"] = val
    return out
