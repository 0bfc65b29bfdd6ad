"""Spans, entry-point wrappers and GC accounting for the traced run.

Nothing here edits the program under test: :meth:`Tracer.install` swaps
each layer's public entry point for a wrapper that opens a span around
the original, and :meth:`Tracer.uninstall` puts the originals back.  A
span is ``(name, start, end, parent, op)``; spans are kept in memory and
written out by :meth:`Tracer.dump` when the run ends.  A layer's self
time is its spans' time minus the part covered by their child spans.

Counts (tokens lexed, solver closes, obligations...) are recorded at the
same boundaries, per operation.  GC pauses come from ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int]]

#: entry points whose calls are counted but not timed
COUNT_ONLY = frozenset({"regions.solver_close"})


def _layer_entry_points() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, result counter) for every wrapped
    entry point.  Module attributes are wrapped where the caller looks
    them up (``repro.api.pipeline`` imports ``parse_program`` by name).
    Names in :data:`COUNT_ONLY` record calls without a span:
    ``RegionSolver.close`` runs too often to time."""
    from repro.api import pipeline
    from repro.core import infer as core_infer
    from repro.core.depgraph import DependencyGraph
    from repro.core.infer import AnnotatedProgram, RegionInference
    from repro.frontend import parser
    from repro.regions.solver import RegionSolver
    from repro.serve import router
    from repro.typing.normal import NormalTypeChecker

    def tokens(tracer: "Tracer", result: Any) -> None:
        tracer.count("frontend.tokens", len(result))

    def obligations(tracer: "Tracer", result: Any) -> None:
        tracer.count("checking.obligations", result.obligations)

    def target_lines(tracer: "Tracer", result: Any) -> None:
        tracer.count("lang.target_lines", result.count("\n") + 1)

    return [
        (parser, "tokenize", "frontend.lex", tokens),
        (pipeline, "parse_program", "frontend.parse", None),
        (NormalTypeChecker, "check", "typing.check", None),
        (AnnotatedProgram, "from_table", "core.annotate", None),
        (RegionInference, "infer", "core.infer", None),
        (pipeline, "reinfer_program", "core.reinfer", None),
        (DependencyGraph, "__init__", "core.depgraph.build", None),
        (DependencyGraph, "node_fingerprints", "core.depgraph.fingerprint", None),
        (DependencyGraph, "sccs", "core.depgraph.scc", None),
        (core_infer, "solve_recursive_abstractions", "regions.fixpoint", None),
        (RegionSolver, "close", "regions.solver_close", None),
        (pipeline, "check_target", "checking.verify", obligations),
        # the daemon renders every answer, cache hits included
        (router, "pretty_target", "lang.pretty", target_lines),
    ]


class Tracer:
    """Records spans and counts for the operations of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, Optional[int]], float] = defaultdict(float)
        self.op: Optional[int] = None
        # span nesting is per thread: the server traces concurrent handlers
        self._local = threading.local()
        # re-entrant: a signal handler may reset while its thread counts
        self._lock = threading.RLock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    # -- spans and counts ----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack().pop()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def reset(self) -> None:
        """Drop every span and count so far; call with no span open."""
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[(name, self.op)] += n

    # -- wrappers ------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, on_result in _layer_entry_points():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, name, on_result))
            else:
                wrapped = self._wrap(raw, name, on_result)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, fn: Callable, name: str, on_result: Optional[Callable]) -> Callable:
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counter(*args: Any, **kwargs: Any) -> Any:
                tracer.count(name + "_calls")
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.count("gc.pause_ms", (time.perf_counter() - self._gc_start) * 1000.0)
        if info.get("generation") == 2:
            self.count("gc.gen2_collections")

    # -- reading it back -----------------------------------------------------
    def self_ms(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Total self time per span name, over spans of ``ops`` (all
        spans when ``None``)."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        totals: Dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is None or op in ops:
                totals[name] += (end - start) * 1000.0 - child_ms[k]
        return totals

    def span_counts(self, ops: Optional[set] = None) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, _, _, _, op in self.spans:
            if ops is None or op in ops:
                out[name] += 1
        return out

    def count_total(self, name: str, ops: Optional[set] = None) -> float:
        return sum(
            v for (n, op), v in self.counts.items()
            if n == name and (ops is None or op in ops)
        )

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.close(self.index)


class NullTracer:
    """The untraced run's stand-in: the same calls, no recording."""

    op: Optional[int] = None

    def span(self, name: str) -> "_NullContext":
        return _NULL_CONTEXT

    def count(self, name: str, n: float = 1) -> None:
        pass


class _NullContext:
    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NULL_CONTEXT = _NullContext()


#: span name -> (per-layer metric for its self time, metric for its calls)
SPAN_METRICS = {
    "frontend.lex": ("frontend.lex_ms", None),
    "frontend.parse": ("frontend.parse_ms", None),
    "typing.check": ("typing.check_ms", None),
    "core.annotate": ("core.annotate_ms", None),
    "core.infer": ("core.infer_ms", None),
    "core.reinfer": ("core.reinfer_ms", None),
    "core.depgraph.build": (None, "core.depgraph.build_calls"),
    "core.depgraph.fingerprint": (
        "core.depgraph.fingerprint_ms", "core.depgraph.fingerprint_calls"),
    "core.depgraph.scc": ("core.depgraph.scc_ms", "core.depgraph.scc_calls"),
    "regions.fixpoint": ("regions.fixpoint_ms", "regions.fixpoint_calls"),
    "checking.verify": ("checking.verify_ms", None),
    "lang.pretty": ("lang.pretty_ms", None),
    # the operation's own span: what is left is the Session's bookkeeping
    "op": ("api.session_overhead_ms", None),
}

#: counts recorded with Tracer.count, reported per operation
COUNT_METRICS = (
    "frontend.tokens",
    "core.sccs",
    "core.fixpoint_iterations",
    "core.localized_regions",
    "core.sccs_reinferred",
    "regions.solver_close_calls",
    "checking.obligations",
    "lang.target_lines",
    "gc.gen2_collections",
    "gc.pause_ms",
)


def layer_metrics(tracer: Tracer, ops: set) -> Dict[str, float]:
    """Per-operation self times and counts over the operations ``ops``."""
    n = max(1, len(ops))
    self_ms = tracer.self_ms(ops)
    calls = tracer.span_counts(ops)
    out: Dict[str, float] = {}
    for span, (ms_metric, calls_metric) in SPAN_METRICS.items():
        if ms_metric is not None:
            out[ms_metric] = self_ms.get(span, 0.0) / n
        if calls_metric is not None:
            out[calls_metric] = calls.get(span, 0) / n
    for name in COUNT_METRICS:
        out[name] = tracer.count_total(name, ops) / n
    reused = tracer.count_total("core.sccs_reused", ops)
    reinferred = tracer.count_total("core.sccs_reinferred", ops)
    out["core.scc_reuse_ratio"] = (
        reused / (reused + reinferred) if reused + reinferred else 0.0
    )
    # the file-level cache serves every kind of operation (undos, repeats),
    # so its ratio is taken over all of them
    hits = tracer.count_total("api.cache_hits")
    misses = tracer.count_total("api.cache_misses")
    out["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def count_result(tracer: Any, result: Any, text: Optional[str] = None) -> None:
    """Record an inference result's work counts against the current op."""
    tracer.count("core.sccs", len(result.fixpoint_iterations))
    tracer.count("core.fixpoint_iterations", sum(result.fixpoint_iterations.values()))
    tracer.count("core.localized_regions", result.total_localized)
    tracer.count("core.sccs_reused", result.reused_sccs)
    tracer.count("core.sccs_reinferred", result.reinferred_sccs)
    if text is not None:
        tracer.count("lang.target_lines", text.count("\n") + 1)


def infer_traffic(stats: Any) -> Tuple[int, int]:
    """A session's file-level cache traffic so far: ``infer`` hits and
    misses.  Stage and SCC-cache counters are left out."""
    return stats.hit_count("infer"), stats.miss_count("infer")


def count_cache(tracer: Any, stats: Any, before: Tuple[int, int] = (0, 0)) -> None:
    """Record a session's file-level cache traffic since ``before``."""
    hits, misses = infer_traffic(stats)
    tracer.count("api.cache_hits", hits - before[0])
    tracer.count("api.cache_misses", misses - before[1])


#: per-layer metrics that are ratios, not per-operation amounts
RATIO_METRICS = frozenset({"core.scc_reuse_ratio", "api.cache_hit_ratio"})
