"""Outside-in tracing of the highgirth layers, from the benchmark's own code.

A ``Tracer`` keeps spans (name, start, end, parent, task id) and counters
in memory.  ``Tracer.install`` wraps each layer's public function in every
``highgirth`` module namespace that holds it, and each traced method or
property on its class, so calls made through the CLI land in a span; it
restores the originals on exit.  A layer name that does not exist in the
code under test is skipped and reports 0 calls.

Self time of a span is its duration minus the durations of its direct
children; spans never overlap except by nesting, since the CLI runs one
task at a time on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import weakref
from dataclasses import dataclass

#: Layer spans, as "<module>.<function>" or "<module>.<Class>.<attribute>".
SPAN_NAMES = (
    "graphs.build_base_graph",
    "graphs.EdgeSubset.to_graph",
    "model.sample_subgraph",
    "model.enumerate_cycle_events",
    "model.enumerate_independent_set_events",
    "model.EventSystem.from_events",
    "model.EventSystem.neighbors",
    "model.EventSystem.to_json",
    "solvers.girth",
    "solvers.independence_number",
    "lll.verify_sys1_finite",
    "lll.check_bollobas_lll",
    "lll.recipe_multipliers",
    "search.moser_tardos_search",
    "search.deletion_method",
    "search.certify",
    "dimacs.dump_json",
    "cli.main",
)

PACKAGE = "highgirth"

#: Properties whose first read per instance computes and later reads are
#: cached, each with the counter that sums the lengths of what they return.
CACHED_PROPERTIES = {"model.EventSystem.neighbors": "model.neighbor_terms"}

SEARCH_SPANS = ("search.moser_tardos_search", "search.deletion_method")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    task: int


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.task = -1
        self._stack: list[int] = []
        self._last_sample_edges: int | None = None

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.clock(), 0.0, parent, self.task)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, number of calls)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for i, s in enumerate(self.spans):
            total, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (total + (s.end - s.start) - child_time[i], calls + 1)
        return out

    # -- results seen at span boundaries -------------------------------------

    def observe(self, name: str, result) -> None:
        if name == "model.EventSystem.from_events":
            self.add("model.events", len(result))
        elif name == "model.sample_subgraph":
            self._last_sample_edges = result.num_edges
        elif name == "solvers.independence_number":
            self.add("solvers.alpha_solves")
            self.add("solvers.alpha_exact", bool(result.exact))
        elif name in SEARCH_SPANS:
            self.add("search.searches")
            chi = getattr(result, "chi_lower", None)
            if chi is not None:
                self.add("search.certified")
                self.maximum("search.chi_lower_max", chi)
                if name == "search.deletion_method" and self._last_sample_edges is not None:
                    kept = int(result.edge_mask_hex, 16).bit_count()
                    self.add("search.edges_deleted", self._last_sample_edges - kept)
        if name == "search.deletion_method":
            self._last_sample_edges = None

    def observe_failure(self, name: str) -> None:
        if name in SEARCH_SPANS:
            self.add("search.searches")
        if name == "search.deletion_method":
            self._last_sample_edges = None

    # -- installing wrappers ------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap every span in SPAN_NAMES for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name in SPAN_NAMES:
                undo.extend(self._wrap(name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap(self, name: str) -> list[tuple[object, str, object]]:
        module_name, *path = name.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return []
        if len(path) == 1:
            original = getattr(module, path[0], None)
            if not callable(original):
                return []
            wrapped = self._wrap_function(name, original)
            undo = []
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            return undo
        cls = getattr(module, path[0], None)
        if not isinstance(cls, type):
            return []
        owner = next((k for k in cls.__mro__ if path[1] in vars(k)), None)
        if owner is None:
            return []
        original = vars(owner)[path[1]]
        if isinstance(original, property):
            if name in CACHED_PROPERTIES:
                fget = self._wrap_cached(name, CACHED_PROPERTIES[name], original.fget)
            else:
                fget = self._wrap_function(name, original.fget)
            wrapped = property(fget, original.fset, original.fdel, original.__doc__)
        elif isinstance(original, classmethod):
            wrapped = classmethod(self._wrap_function(name, original.__func__))
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(self._wrap_function(name, original.__func__))
        elif callable(original):
            wrapped = self._wrap_function(name, original)
        else:
            return []
        setattr(owner, path[1], wrapped)
        return [(owner, path[1], original)]

    def _wrap_function(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.observe_failure(name)
                    raise
            # a refactored result type costs the counter, never the call
            with contextlib.suppress(AttributeError, TypeError, ValueError):
                tracer.observe(name, result)
            return result

        return wrapper

    def _wrap_cached(self, name: str, size_counter: str, fget):
        """Span only the first read per instance; count the cached reads."""
        tracer = self
        seen: dict[int, weakref.ref] = {}

        @functools.wraps(fget)
        def getter(obj):
            ref = seen.get(id(obj))
            if ref is not None and ref() is obj:
                tracer.add(f"{name}.cached_reads")
                return fget(obj)
            seen[id(obj)] = weakref.ref(obj)
            with tracer.span(name):
                result = fget(obj)
            with contextlib.suppress(TypeError):
                tracer.add(size_counter, sum(map(len, result)))
            return result

        return getter


def overhead_frac(traced_wall: float, untraced_wall: float) -> float:
    """Extra wall time of the traced round, as a share of the untraced one."""
    return traced_wall / untraced_wall - 1


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics: ``<span>.self_s`` and ``<span>.calls`` for
    every name in SPAN_NAMES (0 when never called), then the counters."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        self_s, calls = times.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    c = tracer.counters
    out["model.events"] = c.get("model.events", 0)
    out["model.neighbor_terms"] = c.get("model.neighbor_terms", 0)
    out["model.EventSystem.neighbors.cached_reads"] = c.get(
        "model.EventSystem.neighbors.cached_reads", 0
    )
    solves = c.get("solvers.alpha_solves", 0)
    out["solvers.alpha_exact_frac"] = c.get("solvers.alpha_exact", 0) / solves if solves else 0.0
    searches = c.get("search.searches", 0)
    out["search.certified_frac"] = c.get("search.certified", 0) / searches if searches else 0.0
    out["search.edges_deleted"] = c.get("search.edges_deleted", 0)
    out["search.chi_lower_max"] = c.get("search.chi_lower_max", 0)
    return out
