"""In-memory span tracer that wraps the package's public functions from outside.

``Tracer.install(package)`` rebinds every public function and method defined
in the package's modules to a wrapper that records one span per call: its
name, its parent span and its duration.  Spans are aggregated in memory by
name and by (parent, name) edge; a span's self time is its duration minus
the durations of its child spans.  ``uninstall`` restores the originals.
Nothing in the package changes on disk.

Spans go to the tracer's current sink, ``main`` unless a call made through
``isolate(sink, fn)`` is running; that keeps one op's spans out of the
per-layer sums of the others.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("alternating", "sets", "qp", "linalg", "polymap", "linconstr", "inclusion", "diagnostics", "cli")


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Sink:
    """Spans aggregated by name and by (parent, name) edge."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.edges: dict[tuple, int] = {}

    def calls(self, name):
        s = self.stats.get(name)
        return s.calls if s else 0

    def total_us(self, name):
        s = self.stats.get(name)
        return s.total_ns / 1e3 if s else 0.0

    def mean_us(self, name):
        s = self.stats.get(name)
        return s.total_ns / s.calls / 1e3 if s and s.calls else 0.0

    def self_us(self, layer, exclude=()):
        """Summed self time of the spans of one layer."""
        head = layer + "."
        return sum(s.self_ns for n, s in self.stats.items() if n.startswith(head) and n not in exclude) / 1e3

    def child_calls(self, parent, name):
        return self.edges.get((parent, name), 0)

    def to_json(self):
        return {
            "spans": {
                n: {"calls": s.calls, "total_us": s.total_ns / 1e3, "self_us": s.self_ns / 1e3}
                for n, s in sorted(self.stats.items()) if s.calls
            },
            "edges": [
                {"parent": p, "name": n, "calls": c} for (p, n), c in sorted(self.edges.items(), key=str)
            ],
        }


class Tracer:
    def __init__(self):
        self.sinks: dict[str, Sink] = {"main": Sink()}
        self.main = self.sinks["main"]
        self._sink = self.main
        self._stack: list = []  # [name, child_ns] per open span
        self._undo: list = []

    def wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                sink = self._sink
                stats = sink.stats.get(name)
                if stats is None:
                    stats = sink.stats[name] = SpanStats()
                stats.calls += 1
                stats.total_ns += dt
                stats.self_ns += dt - frame[1]
                key = (parent, name)
                sink.edges[key] = sink.edges.get(key, 0) + 1

        return span

    def isolate(self, sink_name, fn):
        """fn, with the spans of each call recorded in a sink of its own."""
        sink = self.sinks.setdefault(sink_name, Sink())

        @functools.wraps(fn)
        def run(*args, **kwargs):
            outer, self._sink = self._sink, sink
            try:
                return fn(*args, **kwargs)
            finally:
                self._sink = outer

        return run

    def install(self, package):
        """Wrap the public functions and methods of every layer module."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, obj, hit[1])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, raw, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, raw, self.wrap(name, raw))

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def to_json(self):
        return {name: sink.to_json() for name, sink in self.sinks.items()}
