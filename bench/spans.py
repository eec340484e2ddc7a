"""Span recording around the public functions of the symfd modules.

The tracer replaces each public function of a layer module with a wrapper
wherever a caller looks it up: in its own module and in every other symfd
module that imported it by name (``schemes.equidistribute`` is the
``mesh.equidistribute`` function bound in the schemes namespace).  Spans nest
through a stack; on exit a span adds its duration to its parent, so self
time (duration minus the time covered by child spans) is known without
keeping per-call records.  Spans are aggregated in memory by
(parent span, span) and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("runner", "schemes", "mesh", "groups", "invariants", "frames")
_MODULES = LAYERS + ("cli",)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "child", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.child = {}      # layer -> time covered by child spans of that layer
        self.extra = 0       # a count read from return values (Newton iterations)


def _newton_iters(result):
    return result[1].newton_iters


# spans whose return value carries a count worth summing
_RESULT_COUNTS = {"schemes.kdv_step_detailed": _newton_iters}


class Summary:
    """Spans of one stretch of traced work, aggregated by name and by edge."""

    def __init__(self, stats, edges, gridstate_validations):
        self.stats = stats
        self.edges = edges
        self.gridstate_validations = gridstate_validations

    def calls(self, *names):
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def total(self, *names):
        return sum(self.stats[n].total for n in names if n in self.stats)

    def outer_total(self, *names):
        """Duration of the named spans, not counting those nested in one another."""
        return sum(e[1] for (parent, n), e in self.edges.items()
                   if n in names and parent not in names)

    def self_excluding(self, name, layers):
        """Duration of ``name`` minus its direct children in the given layers."""
        st = self.stats.get(name)
        if st is None:
            return 0.0
        return st.total - sum(st.child.get(lay, 0.0) for lay in layers)

    def extra(self, name):
        st = self.stats.get(name)
        return st.extra if st is not None else 0

    def layer_self(self, layer):
        return sum(st.self_time for n, st in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def top_level_total(self):
        return sum(e[1] for (parent, _n), e in self.edges.items() if parent is None)


def dump(summaries, path, meta):
    """Write the edges of all summaries, summed, as JSON."""
    merged = {}
    for sm in summaries:
        for key, (calls, total, own) in sm.edges.items():
            acc = merged.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
    rows = [{"parent": p, "span": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (p, n), e in sorted(merged.items(), key=lambda kv: -kv[1][1])]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "spans": rows}, fh, indent=1)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`, collect with :meth:`take`."""

    def __init__(self):
        self._stack = []
        self._stats = {}
        self._edges = {}
        self._validations = [0]
        self._patches = []
        modules = {name: importlib.import_module(f"symfd.{name}") for name in _MODULES}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for ns in modules.values():
                    for bound, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, bound, fn, wrapper))
        grid_state = modules["schemes"].GridState
        post_init = grid_state.__post_init__
        validations = self._validations

        def counted_post_init(obj):
            validations[0] += 1
            post_init(obj)

        self._patches.append((grid_state, "__post_init__", post_init, counted_post_init))

    def install(self):
        for ns, attr, _orig, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig, _wrapper in self._patches:
            setattr(ns, attr, orig)

    def take(self):
        """Return the spans recorded so far as a :class:`Summary` and start afresh."""
        sm = Summary(dict(self._stats), dict(self._edges), self._validations[0])
        self._stats.clear()
        self._edges.clear()
        self._validations[0] = 0
        return sm

    def _wrap(self, name, layer, fn):
        stack = self._stack
        clock = time.perf_counter
        stats = self._stats
        edges = self._edges
        result_count = _RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, {}]   # name, child time, child time by layer
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = _Stat()
                st.calls += 1
                st.total += dur
                own = dur - frame[1]
                st.self_time += own
                for lay, v in frame[2].items():
                    st.child[lay] = st.child.get(lay, 0.0) + v
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                    parent[2][layer] = parent[2].get(layer, 0.0) + dur
                key = (parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += own
            if result_count is not None:
                st.extra += result_count(result)
            return result

        return wrapper
