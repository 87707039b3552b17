"""Per-layer tracing of ``iseq``: one span per call into a public function.

A layer is a module of the ``iseq`` package.  Its public functions (names
without a leading underscore, defined in that module) are found by
introspection, so adding or deleting one needs no change here.  Modules
import each other's functions by name (``from .threads import minimize``),
so the wrapper replaces the binding in every ``iseq`` module namespace that
holds the function, or internal calls would go unseen.

Each span has a name, start, end and parent.  The metrics aggregate every
span as it closes (a layer's self time is its span time minus the time of
its child spans); the first :data:`SPAN_LIMIT` spans of a pass are also
kept in memory, for the trace file.  Counters are taken where work enters a
layer from outside it.
"""

from __future__ import annotations

import functools
import inspect
import pkgutil
import sys
import time

from workloads import own_leaves

SPAN_LIMIT = 50_000
_ROOT = ("<bench>", "<bench>")


def layer_modules(pkg) -> dict:
    """Layer name -> module, for every submodule of the package."""
    return {
        info.name: sys.modules[f"{pkg.__name__}.{info.name}"]
        for info in pkgutil.iter_modules(pkg.__path__)
        if f"{pkg.__name__}.{info.name}" in sys.modules
    }


def public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


def _node_count(value) -> int:
    if type(value).__name__ == "RegularThread":
        return len(value.nodes)
    if isinstance(value, (list, tuple)) and value and type(value[0]).__name__ in ("Stop", "Dead", "Branch"):
        return len(value)
    return 0


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.layers = layer_modules(pkg)
        self.functions = [
            (layer, name, fn)
            for layer, module in self.layers.items()
            for name, fn in public_functions(module).items()
        ]
        self._bindings: list = []
        self.reset()

    # -- per-pass state ---------------------------------------------------

    def reset(self) -> None:
        self.self_s = {layer: 0.0 for layer in self.layers}
        self.calls = {layer: 0 for layer in self.layers}
        self.counts = {
            "syntax.chars_in": 0,
            "canonical.positions_out": 0,
            "threads.states_in": 0,
            "threads.states_out": 0,
            "interaction.use_states_out": 0,
            "compute.compile_out_instrs": 0,
            "compute.restrict_out_instrs": 0,
            "compute.search_verified": 0,
        }
        self.search_self_s = 0.0
        self.spans: list = []  # (name, start, end, parent span index)
        self.span_total = 0
        self._stack = [[_ROOT, 0.0, -1]]  # [(layer, name), child seconds, span index]
        self._in_search = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(layer, name, fn) for layer, name, fn in self.functions}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == self.pkg.__name__ or modname.startswith(self.pkg.__name__ + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        label = f"{layer}.{name}"
        is_search = key == ("compute", "search_shortest")
        verifies = key == ("compute", "computes_check")
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            index = -1
            if len(tracer.spans) < SPAN_LIMIT:
                index = len(tracer.spans)
                tracer.spans.append([label, 0.0, 0.0, parent[2]])
            frame = [key, 0.0, index]
            stack.append(frame)
            if is_search:
                tracer._in_search += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_search:
                    tracer._in_search -= 1
                duration = end - start
                parent[1] += duration
                own = duration - frame[1]
                tracer.self_s[layer] += own
                tracer.calls[layer] += 1
                tracer.span_total += 1
                if tracer._in_search and layer == "compute" or is_search:
                    tracer.search_self_s += own
                if index >= 0:
                    tracer.spans[index][1:3] = [start, end]
            if parent[0][0] != layer:
                tracer._count(layer, name, args, result)
            if verifies and parent[0] == ("compute", "search_shortest"):
                tracer.counts["compute.search_verified"] += 1
            return result

        return wrapper

    def _count(self, layer: str, name: str, args, result) -> None:
        counts = self.counts
        if layer == "syntax":
            counts["syntax.chars_in"] += sum(len(a) for a in args if isinstance(a, str))
        elif layer == "canonical" and type(result).__name__ == "CanonicalSeq":
            counts["canonical.positions_out"] += result.positions()
        elif layer == "threads":
            counts["threads.states_in"] += sum(_node_count(a) for a in args)
            counts["threads.states_out"] += _node_count(result)
        elif layer == "interaction" and name == "use":
            counts["interaction.use_states_out"] += _node_count(result)
        elif layer == "compute" and name == "compile_table":
            counts["compute.compile_out_instrs"] += len(own_leaves(result))
        elif layer == "compute" and name == "restrict_to_core":
            counts["compute.restrict_out_instrs"] += len(own_leaves(result))
