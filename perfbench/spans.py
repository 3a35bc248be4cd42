"""Benchmark-side tracing: spans around the program's public entry points.

:func:`install` wraps the entry points of each layer (``serve``,
``core``, ``engine``, ``io``, ``datalog``) from the outside, so the
traced run needs no change under ``src/``.  Each wrapper records one
span — name, start, end, parent and request id — into a
:class:`SpanRecorder`, which keeps them in memory until the run ends.

Parents and request ids travel in context variables, so they follow
asyncio tasks and the context-copying executor the traced server uses;
work a program-owned thread pool runs has no parent.  All times come
from ``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC``, so
spans from the server process and the load generator share one clock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from contextlib import contextmanager
from typing import Callable, Iterable

#: Span id of the innermost open span in the current context.
CURRENT_SPAN: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Request id of the request the current context serves.
REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request", default=None
)

class SpanRecorder:
    """Spans and counters of one process, held in memory.

    A span is a row ``(id, parent, name, start, end, request_id)``.
    """

    def __init__(self, prefix: str = ""):
        self.rows: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._prefix = prefix

    def _next_id(self) -> str:
        return f"{self._prefix}{next(self._ids)}"

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id()
        parent = CURRENT_SPAN.get()
        token = CURRENT_SPAN.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            CURRENT_SPAN.reset(token)
            self.rows.append(
                (span_id, parent, name, start, end, REQUEST_ID.get())
            )

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured by the caller (no children)."""
        self.rows.append((
            self._next_id(), CURRENT_SPAN.get(), name, start, end,
            REQUEST_ID.get(),
        ))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function undoing it."""
    from repro.core import service as core_service
    from repro.core.service import ExplanationService, ExplanationSession
    from repro.engine.chase import ChaseEngine
    from repro.engine.provenance_index import ProvenanceIndex
    from repro.serve import protocol, routes, server, workers
    from repro.serve.workers import WorkerPool

    undo: list[Callable[[], None]] = []

    def patch(owner, attribute: str, replacement) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        undo.append(lambda: setattr(owner, attribute, original))

    def wrapped(owner, attribute: str, name: str) -> None:
        patch(owner, attribute,
              recorder.wrap(name, getattr(owner, attribute)))

    # serve: the pool entry point, checkout wait, updates, parse, encode.
    wrapped(WorkerPool, "serve", "serve.pool")
    wrapped(WorkerPool, "update", "serve.update")
    original_run = WorkerPool.run

    def run(self, task, timeout_s: float = 30.0):
        asked = time.perf_counter()

        def timed(session):
            recorder.add("serve.checkout_wait", asked, time.perf_counter())
            return task(session)
        return original_run(self, timed, timeout_s=timeout_s)

    patch(WorkerPool, "run", run)
    for route, parser in list(routes.PARSERS.items()):
        routes.PARSERS[route] = recorder.wrap("serve.parse", parser)
        undo.append(functools.partial(routes.PARSERS.__setitem__,
                                      route, parser))
    wrapped(server, "encode_body", "serve.encode")
    wrapped(protocol, "parse_fact", "datalog.parse_fact")
    wrapped(workers, "loads_database", "io.snapshot_load")

    # core: explain split into first-time and repeat calls, why-not,
    # batches, compile.
    original_explain = ExplanationSession.explain
    seen: set = set()

    def explain(self, query, **options):
        key = (self.explainer.memo_scope, query)
        name = "core.explain_warm" if key in seen else "core.explain_cold"
        seen.add(key)
        with recorder.span(name):
            return original_explain(self, query, **options)

    patch(ExplanationSession, "explain", explain)
    wrapped(ExplanationSession, "why_not", "core.whynot")
    wrapped(ExplanationSession, "explain_batch", "core.batch")
    wrapped(ExplanationService, "compile", "core.compile")

    # engine: the session chase with its stats, the provenance index,
    # incremental updates.
    original_reason = core_service.reason

    def reason(*args, **kwargs):
        with recorder.span("engine.chase"):
            result = original_reason(*args, **kwargs)
        stats = result.chase_result.stats
        recorder.count("engine.chases")
        recorder.count("engine.rounds", stats.rounds)
        recorder.count("engine.records", len(result.chase_result.records))
        recorder.count("engine.facts_derived", stats.facts_derived)
        recorder.count("engine.facts_deduplicated", stats.facts_deduplicated)
        return result

    patch(core_service, "reason", reason)
    wrapped(ProvenanceIndex, "__init__", "engine.index_build")
    wrapped(ProvenanceIndex, "rebind", "engine.index_rebind")
    original_update = ChaseEngine.update

    def update(self, *args, **kwargs):
        with recorder.span("engine.update"):
            outcome = original_update(self, *args, **kwargs)
        recorder.count("engine.updates")
        recorder.count("engine.updates_full", outcome.mode == "full")
        return outcome

    patch(ChaseEngine, "update", update)

    def uninstall() -> None:
        for step in reversed(undo):
            step()
    return uninstall


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def durations(rows: list[tuple], name: str) -> list[float]:
    """Durations of the spans called ``name``."""
    return [end - start for _i, _p, n, start, end, _r in rows if n == name]


def covered(intervals: Iterable[tuple[float, float]],
            low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(rows: list[tuple]) -> dict[str, float]:
    """Per-layer self time in seconds: each span's duration minus the
    part of it its children cover, summed by the name's first segment."""
    children: dict[str, list[tuple[float, float]]] = {}
    for _id, parent, _name, start, end, _rid in rows:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    layers: dict[str, float] = {}
    for span_id, _parent, name, start, end, _rid in rows:
        own = (end - start) - covered(children.get(span_id, ()), start, end)
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def link_requests(client_rows: list[tuple],
                  server_rows: list[tuple]) -> list[tuple]:
    """Merge both processes' spans: a server span without a parent gets
    the client span of its request as parent."""
    by_rid = {rid: span_id for span_id, _p, _n, _s, _e, rid in client_rows
              if rid is not None}
    merged = list(client_rows)
    for span_id, parent, name, start, end, rid in server_rows:
        if parent is None and rid in by_rid:
            parent = by_rid[rid]
        merged.append((span_id, parent, name, start, end, rid))
    return merged


def request_breakdown(client_rows: list[tuple],
                      server_rows: list[tuple]) -> dict[str, dict]:
    """Per request id: round trip, time in ``WorkerPool.serve`` and the
    share of the round trip the server's spans cover."""
    server_by_rid: dict[str, list[tuple]] = {}
    for row in server_rows:
        if row[5] is not None:
            server_by_rid.setdefault(row[5], []).append(row)
    out: dict[str, dict] = {}
    for _id, _parent, name, start, end, rid in client_rows:
        if rid is None:
            continue
        spans = server_by_rid.get(rid, [])
        out[rid] = {
            "kind": name.split(".", 1)[1] if "." in name else name,
            "round_trip": end - start,
            "pool": sum(e - s for _i, _p, n, s, e, _r in spans
                        if n == "serve.pool"),
            "covered": covered(((s, e) for _i, _p, _n, s, e, _r in spans),
                               start, end),
        }
    return out
