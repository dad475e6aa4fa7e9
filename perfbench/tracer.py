"""Spans around the public functions of the library's layer modules.

The tracer measures from outside: it replaces every binding of a layer's
public function, in every public ``toricstab`` module that holds one, by a
wrapper that records a span.  Call-site bindings matter because some
modules bind a kernel by name at import (``destabilizer`` binds
``simple_pl_values``, ``integration`` binds ``lattice_weighted_sum``), so
wrapping ``toricstab.kernels`` alone would miss every call.  Private names
are never touched, and nothing is added inside the library.

A span is ``(id, parent_id, request, name, start_ns, end_ns, self_ns)``.
Self time is the span's duration minus the time its child spans cover;
the program is single-threaded, so children never overlap.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = (
    "specfile", "plexpr", "geometry", "plfunc", "integration",
    "invariants", "destabilizer", "kernels", "report",
)


def _intersect(counts, args, kwargs, result):
    counts["nonempty"] += result is not None


def _make_pl(counts, args, kwargs, result):
    counts["cells"] += len(result.cells)


def _scan(counts, args, kwargs, result):
    counts["candidates"] += result.candidates_evaluated


def _simple_pl_values(counts, args, kwargs, result):
    # Signature (vxs, vys, vden, edges, wlin, wden, cands); a zero boundary
    # numerator marks a crease that missed the body, which `scan` discards.
    counts["candidates"] += len(args[6])
    counts["useful"] += sum(1 for row in result if row[2] != 0)


def _lattice_weighted_sum(counts, args, kwargs, result):
    # Signature (dim, lows, highs, rows, table, k) -> (count, numerator).
    counts["box_cells"] += math.prod(hi - lo + 1 for lo, hi in zip(args[1], args[2]))
    counts["hits"] += result[0]


# Counters read from a call's arguments and result, by layer function.
COUNTERS = {
    "geometry.intersect": _intersect,
    "plfunc.make_pl": _make_pl,
    "destabilizer.scan": _scan,
    "kernels.simple_pl_values": _simple_pl_values,
    "kernels.lattice_weighted_sum": _lattice_weighted_sum,
}


class Tracer:
    """Install, record and remove the layer wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.broken = set()  # counters whose call no longer fits the hook
        self.request = None
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation --------------------------------------------------------

    def layer_functions(self):
        """Public functions of each layer module, keyed by the original."""
        found = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"toricstab.{short}")
            home = module.__name__
            for attr, value in vars(module).items():
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if value.__module__ == home or value.__module__.startswith(home + "."):
                    found[value] = f"{short}.{attr}"
        return found

    def install(self):
        functions = self.layer_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in functions.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not _public_library_module(module_name):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
        return self

    def remove(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0]
            parent = stack[-1][0] if stack else None
            stack.append((span_id, frame))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                spans.append((span_id, parent, self.request, name, start, end,
                              duration - frame[0]))
            if counter is not None and name not in self.broken:
                try:
                    counter(self.counts[name], args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.broken.add(name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- aggregation -----------------------------------------------------------

    def totals(self, scale=None):
        """Calls and self time summed over all requests, by layer function.

        ``scale``, indexed by request, multiplies each request's self times.
        """
        calls = defaultdict(int)
        self_ns = defaultdict(float)
        for _, _, request, name, _, _, own in self.spans:
            calls[name] += 1
            self_ns[name] += own * (scale[request] if scale else 1)
        return calls, self_ns


def _public_library_module(name):
    parts = name.split(".")
    return parts[0] == "toricstab" and not any(p.startswith("_") for p in parts)
