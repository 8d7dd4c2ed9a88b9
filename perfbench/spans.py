"""Spans recorded around calls into each layer, and the arithmetic that
turns them into per-layer metrics.

The program under test has no tracing of its own, so
:meth:`Recorder.install` replaces each layer's public functions with
wrappers that record a span per call: name, start, end, parent, op id
and thread.  A function is patched at every place its callers look it up
(``compile_plan`` is looked up in both ``repro.dbms.service`` and
``repro.query.engine``), and :meth:`Recorder.uninstall` puts the
originals back.  Spans stay in memory until the run ends; the HTTP
server's launcher writes its spans once, at shutdown.

Parents: a span started on a thread that already has an open span is
that span's child.  A span started on a thread with no open span (an
executor or fan-out pool thread) is adopted by the innermost open span of
a layer that hands work to other threads (``ServerApp.__call__``,
``query_all``, ``aggregate_all``).  The benchmark keeps one op in flight
at a time, so that innermost hand-off span is the one that submitted the
work.

Self time is a span's duration minus the union of its children's
intervals, children on other threads included.  Time in which sibling
spans overlap on different threads is split evenly between them, so the
self times of an op's spans add up to its latency (see
:func:`self_times`).
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import itertools
import re
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator, Optional, Sequence

#: ``[id, name, start_ns, end_ns, parent_id, op, thread, function, tag]``
#: where ``name`` is the layer, ``function`` the attribute called and
#: ``tag`` an optional fact about the result (1 for a compiled event
#: whose root is ``C_ATOM``, else 0).
Span = list

#: Metric and layer names: a letter or digit, then at most 63 letters,
#: digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: The span name the workload drivers wrap around each whole op.
OP = "op"

_SERVICE_METHODS = (
    "load", "load_document", "delete", "list", "documents", "query",
    "run_batch", "query_all", "aggregate_all", "aggregate", "stats",
    "integrate", "feedback", "cache_stats",
)
_CACHE_STORE_METHODS = (
    "plan_digest", "remember_plan", "get", "put", "get_aggregate",
    "put_aggregate", "version", "invalidate_document", "clear", "stats",
)
#: The AnswerCacheStore calls that write.
CACHE_WRITES = ("put", "put_aggregate", "remember_plan", "invalidate_document")
_WIRE_ENCODERS = (
    "encode_answer", "encode_fused_answer", "encode_aggregate_distribution",
    "encode_node_stats", "encode_feedback_step", "encode_report",
)

#: (layer, "module" or "module:Class", attributes) — every lookup site
#: the server and the in-process service call through.
SERVER_TARGETS = (
    ("server.app", "repro.server.app:ServerApp", ("__call__",)),
    ("server.wire", "repro.server.wire", _WIRE_ENCODERS),
)
SERVICE_TARGETS = (
    ("dbms.service", "repro.dbms.service:DataspaceService", _SERVICE_METHODS),
    ("dbms.cache_store", "repro.dbms.cache_store:AnswerCacheStore",
     _CACHE_STORE_METHODS),
    ("dbms.store", "repro.dbms.store:DocumentStore", ("get", "digest", "put")),
    ("pxml.serialize", "repro.dbms.store", ("parse_pxml", "pxml_to_text")),
    ("query.plan", "repro.dbms.service", ("compile_plan",)),
    ("query.plan", "repro.query.engine", ("compile_plan",)),
    ("query.engine", "repro.query.engine:ProbQueryEngine", ("answer_events",)),
    ("query.aggregates", "repro.dbms.service", ("aggregate_distribution",)),
    ("query.fusion", "repro.dbms.service", ("fuse_answers",)),
    ("pxml.events_cache", "repro.pxml.events_cache:EventProbabilityCache",
     ("probability", "probabilities_of")),
    ("pxml.events_compile", "repro.pxml.events_cache",
     ("compile_event", "compiled_probability")),
    ("pxml.events", "repro.pxml.events_compile", ("event_probability",)),
    ("core.engine", "repro.core.engine:Integrator", ("integrate",)),
    ("feedback.conditioning", "repro.feedback.conditioning",
     ("condition_on_event",)),
)
#: The client side of HTTP: one span per request the benchmark sends.
CLIENT_TARGETS = (
    ("server.http", "repro.server.client:DataspaceClient",
     ("query", "search", "aggregate")),
)
#: Calls that hand work to other threads and so adopt those threads'
#: root spans.
ADOPTERS = frozenset({"__call__", "query_all", "aggregate_all"})

#: Every layer, in report order.
LAYERS = (
    "server.http", "server.app", "server.wire", "dbms.service",
    "dbms.cache_store", "dbms.store", "pxml.serialize", "query.plan",
    "query.engine", "query.aggregates", "query.fusion",
    "pxml.events_cache", "pxml.events_compile", "pxml.events",
    "core.engine", "feedback.conditioning",
)

#: The per-layer metrics of a traced run, with their units.
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [
        ("dbms.cache_store.writes", "count"),
        ("dbms.cache_store.hit_ratio", "ratio"),
        ("dbms.cache_store.retries", "count"),
        ("pxml.events_cache.entries", "count"),
        ("pxml.events_compile.atom_frac", "ratio"),
        ("pxml.events_compile.table_lookups", "count"),
        ("pxml.events_compile.table_hit_ratio", "ratio"),
        ("pxml.events.interned", "count"),
        ("trace.uncovered_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
)


class Recorder:
    """Collects spans in memory.  ``op`` is the id of the op in flight,
    stamped on every span that starts while it is set (the drivers keep
    one op in flight, so pool threads read the right value too)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[int] = []
        self._adopters_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, function: str, adopter: bool) -> Span:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            with self._adopters_lock:
                parent = self._adopters[-1] if self._adopters else None
        span = [next(self._ids), name, 0, 0, parent, self.op,
                threading.get_ident(), function, None]
        stack.append(span[0])
        if adopter:
            with self._adopters_lock:
                self._adopters.append(span[0])
        span[2] = time.monotonic_ns()
        return span

    def _close(self, span: Span, adopter: bool) -> None:
        span[3] = time.monotonic_ns()
        self._stack().pop()
        if adopter:
            with self._adopters_lock:
                self._adopters.remove(span[0])
        self.spans.append(span)

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        adopter: bool = False,
        tag: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """``function`` recording one span named ``name`` per call;
        ``tag(result)`` is stored on the span when given."""
        label = function.__name__
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span = self._open(name, label, adopter)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self._close(span, adopter)
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self._open(name, label, adopter)
            try:
                result = function(*args, **kwargs)
                if tag is not None:
                    span[8] = tag(result)
                return result
            finally:
                self._close(span, adopter)
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A ``with`` block recorded as one span (the drivers' op span)."""
        record = self._open(name, name, False)
        try:
            yield record
        finally:
            self._close(record, False)

    def install(self, targets: Iterable[tuple[str, str, Sequence[str]]]) -> None:
        """Replace every target attribute with its traced wrapper."""
        for layer, where, attributes in targets:
            owner = _resolve(where)
            for attribute in attributes:
                original = getattr(owner, attribute)
                setattr(owner, attribute, self.wrap(
                    layer, original, adopter=attribute in ADOPTERS,
                    tag=_is_atom if attribute == "compile_event" else None,
                ))
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _is_atom(compiled: object) -> int:
    from repro.pxml.events_compile import C_ATOM

    return int(getattr(compiled, "kind", None) == C_ATOM)


def _resolve(where: str) -> object:
    module_name, _, class_name = where.partition(":")
    owner: object = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


# -- arithmetic ---------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> self time in nanoseconds.

    A span's self time is its duration minus the union of its children's
    intervals (children on other threads included).  Where spans on
    different threads overlap without one being the other's ancestor
    (siblings on a fan-out pool), the overlapped time is split evenly
    between them, so the self times of one op's spans add up to the op's
    wall time instead of counting concurrent waiting twice.

    Computed by one sweep over span boundaries: at every instant the
    time goes, in equal shares, to the open spans that have no open
    child.  A span's interval is clipped to its parent's; spans whose
    parent is not in ``spans`` are roots."""
    by_id = {span[0]: span for span in spans}
    depth: dict[int, int] = {}
    interval: dict[int, tuple[int, int]] = {}
    for span in sorted(spans, key=lambda span: (span[2], span[0])):
        parent = span[4] if span[4] in interval else None
        start, end = span[2], span[3]
        if parent is not None:
            start = max(start, interval[parent][0])
            end = min(end, interval[parent][1])
        if span[4] in by_id and parent is None:
            continue  # its parent was empty after clipping
        if end <= start:
            continue
        interval[span[0]] = (start, end)
        depth[span[0]] = 0 if parent is None else depth[parent] + 1
    events = []
    for sid, (start, end) in interval.items():
        events.append((start, 1, depth[sid], sid))
        events.append((end, 0, -depth[sid], sid))
    events.sort()
    own = {sid: 0.0 for sid in by_id}
    open_children: dict[int, int] = defaultdict(int)
    opened: set[int] = set()
    leaves: set[int] = set()
    previous = None
    for time_ns, is_open, _, sid in events:
        if previous is not None and leaves and time_ns > previous:
            share = (time_ns - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = time_ns
        parent = by_id[sid][4]
        parent = parent if parent in interval else None
        if is_open:
            opened.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            opened.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in opened:
                    leaves.add(parent)
    return own


def attach_remote(local: list[Span], remote: Sequence[Span]) -> list[Span]:
    """Join spans recorded in another process (the HTTP server) to the
    local client spans they served.

    Remote ids are shifted past the local ones.  A remote root span is
    adopted by the local ``server.http`` span whose interval contains it
    (one request is in flight at a time, and both processes read the
    same system-wide monotonic clock); remote spans inherit the op of
    their root.  Remote spans outside every request are dropped."""
    offset = max((span[0] for span in local), default=0)
    requests = sorted(
        (span for span in local if span[1] == "server.http"),
        key=lambda span: span[2],
    )
    starts = [span[2] for span in requests]
    shifted = sorted(
        ([span[0] + offset, span[1], span[2], span[3],
          None if span[4] is None else span[4] + offset, None, *span[6:]]
         for span in remote),
        key=lambda span: (span[2], span[0]),
    )
    kept: dict[int, Span] = {}
    for span in shifted:
        if span[4] is None:
            index = bisect.bisect_right(starts, span[2]) - 1
            if index < 0 or requests[index][3] < span[3]:
                continue
            span[4], span[5] = requests[index][0], requests[index][5]
        else:
            parent = kept.get(span[4])
            if parent is None:
                continue
            span[5] = parent[5]
        kept[span[0]] = span
    return local + list(kept.values())


class Totals:
    """Per-layer sums over the spans of completed ops."""

    def __init__(self, spans: Sequence[Span]) -> None:
        op_ids = {span[5] for span in spans if span[1] == OP}
        own = self_times(spans)
        #: number of op spans
        self.ops = len(op_ids)
        #: summed duration of the op spans
        self.op_ns = 0
        #: op time no layer span covers: the op spans' own self time,
        #: which is their duration minus every layer's self time
        self.uncovered_ns = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.cache_writes = 0
        self.compiled = 0
        self.atoms = 0
        for span in spans:
            if span[5] not in op_ids:
                continue
            if span[1] == OP:
                self.op_ns += span[3] - span[2]
                self.uncovered_ns += own[span[0]]
                continue
            self.calls[span[1]] += 1
            self.self_ns[span[1]] += own[span[0]]
            if span[1] == "dbms.cache_store" and span[7] in CACHE_WRITES:
                self.cache_writes += 1
            if span[8] is not None:
                self.compiled += 1
                self.atoms += span[8]
