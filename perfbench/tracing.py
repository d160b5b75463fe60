"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install` replaces public functions of graphonham's modules with
timing wrappers in the namespace their callers look them up in (for
example `graphonham.harness.sample_graph` and `graphonham.hamilton.fvcn_value`)
and methods on their classes.  Each call is a span; a span's self time is its
duration minus the time of the spans it caused.  Spans are folded into
totals as they end, so memory stays flat however long the run is.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict

from graphonham import fracmatch, hamilton, harness, sampler

# (span name, namespace, attribute).  A function imported into several
# modules is wrapped in each, under one span name.
FUNCTIONS = (
    ("harness.run_experiment", harness, "run_experiment"),
    ("harness.run_trial", harness, "run_trial"),
    ("harness.aggregate", harness, "aggregate"),
    ("graphon.analyze", harness, "analyze"),
    ("sampler.sample_graph", harness, "sample_graph"),
    ("sampler.degree_concentration", harness, "degree_concentration_report"),
    ("fracmatch.is_connected", harness, "is_connected"),
    ("fracmatch.is_connected", hamilton, "is_connected"),
    ("fracmatch.fvcn_value", harness, "fvcn_value"),
    ("fracmatch.fvcn_value", hamilton, "fvcn_value"),
    ("fracmatch.fvcn_value", fracmatch, "fvcn_value"),
    ("fracmatch.fvcn_half", fracmatch, "fvcn_half"),
    ("fracmatch.graph_peninsula", hamilton, "graph_peninsula"),
    ("hamilton.classify", harness, "classify"),
    ("hamilton.cheap_obstructions", hamilton, "cheap_obstructions"),
    ("hamilton.posa_heuristic", hamilton, "posa_heuristic"),
    ("hamilton.validate_cycle", hamilton, "validate_cycle"),
)
METHODS = (
    ("sampler.to_finite_graph", sampler.SampledGraph, "to_finite_graph"),
    ("sampler.degrees", sampler.SampledGraph, "degrees"),
    ("fracmatch.build", fracmatch.FiniteGraph, "build"),
    ("fracmatch.adjacency", fracmatch.FiniteGraph, "adjacency"),
    ("fracmatch.validate", fracmatch.HalfCover, "validate"),
    ("fracmatch.validate", fracmatch.GraphPeninsula, "validate"),
)

# The deciding route of a `hamiltonian` property, from the verdict alone
# except for `heuristic`, which needs the rotation heuristic's result.
ROUTES = ("disconnected", "min_degree", "narrow", "heuristic", "exact_yes", "exact_no", "unknown")
_OBSTRUCTION_ROUTES = {
    hamilton.OBSTRUCTION_DISCONNECTED: "disconnected",
    hamilton.OBSTRUCTION_MIN_DEGREE: "min_degree",
    hamilton.OBSTRUCTION_NARROW: "narrow",
    hamilton.OBSTRUCTION_EXHAUSTED: "exact_no",
}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.routes = Counter()
        self.posa_found = 0
        self.edges = 0
        self.peak_alloc = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        hooks = {
            "hamilton.classify": self._on_classify,
            "hamilton.posa_heuristic": self._on_posa,
            "sampler.sample_graph": self._on_sample,
        }
        for name, ns, attr in FUNCTIONS:
            wrapped = self._wrap(name, getattr(ns, attr), hooks.get(name))
            if name == "sampler.sample_graph":
                wrapped = self._tracking_allocations(wrapped)
            self._replace(ns, attr, wrapped)
        for name, cls, attr in METHODS:
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, old = self._undo.pop()
            setattr(ns, attr, old)

    def _replace(self, ns, attr, new) -> None:
        self._undo.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, new)

    def _wrap(self, name, fn, on_result=None):
        stack = self._stack

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            before = self.posa_found
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(result, self.posa_found > before)
            return result

        return span

    def _tracking_allocations(self, fn):
        """Peak traced allocation of the first call of `fn`, the same in every
        call for a fixed n.  Tracing later calls would only slow them.  Start
        and stop fall outside the span, in the caller's self time."""

        def tracked(*args, **kwargs):
            if self.peak_alloc:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_alloc = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return tracked

    def _on_classify(self, verdict, posa_found: bool) -> None:
        if verdict.status == hamilton.STATUS_HAMILTONIAN:
            route = "heuristic" if posa_found else "exact_yes"
        elif verdict.status == hamilton.STATUS_UNKNOWN:
            route = "unknown"
        else:
            route = _OBSTRUCTION_ROUTES[verdict.obstruction]
        self.routes[route] += 1

    def _on_posa(self, cycle, _posa_found: bool) -> None:
        if cycle is not None:
            self.posa_found += 1

    def _on_sample(self, graph, _posa_found: bool) -> None:
        self.edges += len(graph.edges)

    def summary(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "routes": {r: self.routes[r] for r in ROUTES},
            "posa_found": self.posa_found,
            "edges": self.edges,
            "peak_alloc_bytes": self.peak_alloc,
        }
