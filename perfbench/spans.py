"""Per-layer spans around kantgap's public functions, installed from outside.

The layers are the modules of ``LAYERS``.  Every module-level function a
layer defines is wrapped (plus the engine entry ``flow._run_ssp``), except
the scalar helpers of ``UNWRAPPED``, which run millions of times; their time
lands in the caller's self time.  ``modes`` is not wrapped at all.  A wrapper
is installed on every binding of its function: the defining module, every
``kantgap`` module that imported the name, and the package namespace, since
modules use ``from .flow import _run_ssp``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by ``write``.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter
from typing import Dict, List

LAYERS = ("cli", "problem_io", "primal", "dual", "flow", "kellerer", "simplex", "core")
UNWRAPPED = {"core": {"is_inf", "is_neg_inf", "ext_min", "ext_add"}}
PRIVATE_WRAPPED = {"flow": {"_run_ssp"}}

ENGINE = "flow._run_ssp"
CHARGEABLE = "dual.chargeable_cells"
LP = "simplex.solve_lp"
LOADERS = ("problem_io.load_problem_file", "problem_io.load_cellset_file")

COUNTERS = ("finite_cells", "segments", "lp_rows", "bytes_in")
PACKAGE = "kantgap"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.missing: List[str] = []
        self._bindings = []  # (namespace, attribute, original, wrapper)
        self._find_bindings()

    # -- installation -------------------------------------------------------

    def _find_bindings(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing.append(layer)
                continue
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr in UNWRAPPED.get(layer, ()):
                    continue
                if attr.startswith("_") and attr not in PRIVATE_WRAPPED.get(layer, ()):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}", layer))
        for name in (ENGINE, CHARGEABLE, LP) + LOADERS:
            if name not in self.names:
                self.missing.append(name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value, hit[1]))

    def install(self) -> None:
        for mod, attr, _orig, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _wrapper in self._bindings:
            setattr(mod, attr, orig)

    def _wrap(self, fn, name: str, layer: str):
        sid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        before, after = self._hooks(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(span_name)
            span_name.append(sid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _hooks(self, name: str):
        """Counters computed from arguments and results, outside the span."""
        counters = self.counters
        if name == ENGINE:
            INF = importlib.import_module(f"{PACKAGE}.core").INF

            def before(args, kwargs):
                c = args[0] if args else kwargs["c"]
                counters["finite_cells"] += sum(
                    1 for row in c.rows for v in row if v is not INF
                )

            def after(run):
                counters["segments"] += len(getattr(run, "segments", ()))

            return before, after
        if name == LP:

            def before(args, kwargs):
                constraints = args[2] if len(args) > 2 else kwargs["constraints"]
                counters["lp_rows"] += len(constraints)

            return before, None
        if name in LOADERS:

            def before(args, kwargs):
                path = args[0] if args else kwargs["path"]
                counters["bytes_in"] += os.path.getsize(path)

            return before, None
        return None, None

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Current span count, to select spans recorded after this point."""
        return len(self.span_name)

    def summary(self, first: int, last: int, scales) -> Dict[str, Dict[str, float]]:
        """Per-layer self time and calls, and per-name inclusive time and
        calls, over spans [first, last); span k's duration is multiplied by
        ``scales[k]``."""
        child = [0.0] * (last - first)
        durations = [0.0] * (last - first)
        for k in range(last - first):
            idx = first + k
            durations[k] = (self.span_end[idx] - self.span_start[idx]) * scales[idx]
            parent = self.span_parent[idx]
            if parent >= first:
                child[parent - first] += durations[k]
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        names: Dict[str, Dict[str, float]] = {}
        for k in range(last - first):
            sid = self.span_name[first + k]
            entry = layers[self.name_layer[sid]]
            entry["self_s"] += durations[k] - child[k]
            entry["calls"] += 1
            per_name = names.setdefault(self.names[sid], {"s": 0.0, "calls": 0})
            per_name["s"] += durations[k]
            per_name["calls"] += 1
        return {"layers": layers, "names": names}

    def write(self, path: str) -> None:
        """One span per line: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for k in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[k]]}\t{self.span_start[k]:.9f}\t"
                         f"{self.span_end[k]:.9f}\t{self.span_parent[k]}\n")
