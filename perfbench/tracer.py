"""Per-layer spans and call counts for one desarrange process, from outside.

The tracer wraps the public functions of each layer module (and the ring
operations of the series classes) in place, so the program itself carries no
tracing code.  Each wrapped call is a span: its layer is the module that
defines the function, and a layer's self time is the time of its spans minus
the time of the spans they cause.  Time spent in an unwrapped helper counts
toward the nearest wrapped caller.

Three details matter for the numbers to be right:

- most modules bind layer functions by name (``from .perms import
  enumerate_class``), so a wrapper replaces the original in every module
  namespace and registry that holds it, not only in the defining module;
- ``enumerate_class`` is a generator: each resumption is a span, and the
  items it yields are counted (``perms.enumerated``), not only its calls;
- ``TruncSeries.__rmul__`` and ``__radd__`` are aliases of ``__mul__`` and
  ``__add__`` and are rebound to the same wrapper.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("perms", "patterns", "oracle", "rungraph", "series", "formulas", "verify", "cli")

# Per-element primitives called once per permutation, triple or coefficient.
# A wrapper costs more than their own work, so their time counts toward the
# caller's span instead.
LEAVES = {
    "perms": {"triple_pattern", "first_ascent", "is_desarrangement", "is_derangement",
              "des", "asc", "pk", "val", "dasc", "ddes", "rval", "fix", "pix",
              "descent_composition", "standardize", "complement", "check_permutation",
              "perm_to_str", "perm_from_str"},
    "patterns": {"pattern_name", "patterns_label"},
}

# Methods traced on classes; every other class method counts toward its caller.
METHODS = {
    "series": {
        "TruncSeries": ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
                        "__truediv__", "__rtruediv__", "inverse", "sqrt", "shift_down"),
        "SeriesMatrix": ("__mul__", "inverse"),
        "Poly": ("__call__",),
    },
}
ALIASES = {"__radd__": "__add__", "__rmul__": "__mul__"}


class Tracer:
    """Wraps the layer functions of an imported desarrange package."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, seconds, active depth, items]
        self._self_s = {layer: [0.0] for layer in LAYERS}  # one cell per layer
        self._stack = [0.0]                # per open span: time covered by its children

    def _span(self, key: str, layer: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0, 0])
        stack, self_s, clock = self._stack, self._self_s[layer], time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stat[1] += dt
                        self_s[0] += dt - stack.pop()
                        stack[-1] += dt
                    stat[3] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[2] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[2] -= 1
                if not stat[2]:  # a recursive call counts once toward the span total
                    stat[1] += dt
                self_s[0] += dt - stack.pop()
                stack[-1] += dt
        return wrapper

    def install(self):
        """Replace every traced function in every layer module and registry."""
        modules = {layer: importlib.import_module(f"desarrange.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        checks = modules["verify"].CHECKS
        for name, fn in checks.items():
            wrappers[id(fn)] = self._span(f"verify.check.{name}", "verify", fn)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                # inspect.unwrap sees through functools.lru_cache
                if (inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in LEAVES.get(layer, ())
                        and id(obj) not in wrappers):
                    wrappers[id(obj)] = self._span(f"{layer}.{name}", layer, obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", layer,
                                                  vars(cls)[meth]))
                for alias, target in ALIASES.items():
                    if alias in vars(cls) and target in methods:
                        setattr(cls, alias, vars(cls)[target])
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        for name, fn in checks.items():
            checks[name] = wrappers[id(fn)]

    def summary(self) -> dict:
        """Self time per layer, and calls, span seconds and yielded items per span."""
        return {
            "self_s": {layer: cell[0] for layer, cell in self._self_s.items()},
            "spans": {key: {"calls": calls, "s": seconds, "items": items}
                      for key, (calls, seconds, _, items) in self.stats.items()},
        }
