"""Spans and counters around the calls from one coldstack module into another.

The tracer patches, from outside the program, every function one
coldstack module imports from another, the functions of a module that
another imports whole (``from . import qec``), and the optimizer's
boundary solve, stage-field kernel, point evaluation and level search.
A name a later version no longer has is skipped, so its layer reads 0.

A layer's self time is its calls' wall time minus the time of the calls
they make into other layers.  A call into the layer already running is
part of that call.  Spans are kept in memory and written out at the end;
the hot kernels (noise, qec, conduction lookups) are only summed, since
one round makes millions of those calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYER_OF_MODULE = {
    "coldstack.noise": "noise",
    "coldstack.qec": "qec",
    "coldstack.thermal": "thermal",
    "coldstack.workloads": "workloads",
    "coldstack.optimize": "optimize",
    "coldstack.config": "config",
    "coldstack.driver": "driver",
    "coldstack.results": "results",
}
SUMMED_ONLY = {"noise", "qec", "thermal.conduction"}
#: Imported names given a layer of their own; any may be missing.
SPECIAL_LAYERS = {"_conduction_integral": "thermal.conduction"}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.op = None
        self._stack = [[None, 0.0, None]]  # [layer, child seconds, span id]
        self._undo = []

    # -- recording -------------------------------------------------------

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        parent = self._stack[-1]
        if parent[0] == layer:
            return fn(*args, **kwargs)
        span_id = None if layer in SUMMED_ONLY else len(self.spans)
        if span_id is not None:
            self.spans.append(None)  # reserve the id; filled on exit
        frame = [layer, 0.0, span_id if span_id is not None else parent[2]]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            parent[1] += end - start
            own = end - start - frame[1]
            self.self_s[layer] += own
            self.calls[layer] += 1
            if span_id is not None:
                self.spans[span_id] = {"id": span_id, "parent": parent[2],
                                       "op": self.op, "layer": layer, "name": name,
                                       "start": start, "end": end, "self": own}

    def _timed(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)
        return traced

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _boundary(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def boundary(metric_of_log_a, *args, **kwargs):
            def metric(log_a):
                out = metric_of_log_a(log_a)
                counts["optimize.boundary_evals"] += 1
                counts["optimize.boundary_elems"] += getattr(out, "size", 1)
                return out
            a = fn(metric, *args, **kwargs)
            counts["optimize.boundary_solves"] += 1
            counts["optimize.grid_points"] += getattr(a, "size", 1)
            return a
        return self._timed(boundary, "optimize.boundary", fn.__name__)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name in LAYER_OF_MODULE}
        whole = set()
        for mod_name, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.ismodule(obj) and obj.__name__ in modules:
                    whole.add(obj.__name__)
                    continue
                owner = getattr(obj, "__module__", None)
                if owner in modules and owner != mod_name and _is_function(obj):
                    layer = SPECIAL_LAYERS.get(name, LAYER_OF_MODULE[owner])
                    self._patch(mod, name, self._timed(obj, layer, name))
        for mod_name in whole:
            mod = modules[mod_name]
            for name, obj in list(vars(mod).items()):
                if _is_function(obj) and obj.__module__ == mod_name:
                    self._patch(mod, name, self._timed(obj, LAYER_OF_MODULE[mod_name], name))
        opt = modules.get("coldstack.optimize")
        if opt is None:
            return
        if _is_function(getattr(opt, "_boundary_attenuation", None)):
            self._patch(opt, "_boundary_attenuation", self._boundary(opt._boundary_attenuation))
        if _is_function(getattr(opt, "evaluate_ft_point", None)):
            self._patch(opt, "evaluate_ft_point",
                        self._timed(opt.evaluate_ft_point, "optimize.ft_point",
                                    "evaluate_ft_point"))
        problem = getattr(opt, "_FtProblem", None)
        if _is_function(getattr(problem, "stage_fields", None)):
            self._patch(problem, "stage_fields",
                        self._timed(problem.stage_fields, "optimize.stage_fields",
                                    "stage_fields"))
        if _is_function(getattr(problem, "best_for_k", None)):
            self._patch(problem, "best_for_k",
                        self._counted(problem.best_for_k, "optimize.levels_searched"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _is_function(obj) -> bool:
    """A plain function or a functools wrapper of one, not a class."""
    return inspect.isfunction(obj) or (
        callable(obj) and not inspect.isclass(obj) and hasattr(obj, "__wrapped__"))
