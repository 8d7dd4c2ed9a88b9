"""The dataspace JSON API: routing HTTP requests into `DataspaceService`.

:class:`ServerApp` is the handler an :class:`~repro.server.http.
HTTPServer` drives.  Endpoints (see ``docs/http_api.md`` for the wire
detail and curl examples):

========  ==========================  =========================================
method    path                        action
========  ==========================  =========================================
GET       ``/healthz``                liveness + document count
GET       ``/stats``                  merged cache counters (one code path
                                      with ``imprecise serve --cache-stats``)
GET       ``/documents``              list stored documents (name, kind)
PUT       ``/documents/{name}``       load an XML (``?kind=pxml``: PXML) body
DELETE    ``/documents/{name}``       delete a document + its cached answers
GET       ``/documents/{name}/stats`` uncertainty census of one document
POST      ``/query``                  ranked probabilistic answer
POST      ``/search``                 dataspace-wide fan-out + rank fusion
POST      ``/aggregate``              exact aggregate distribution
POST      ``/batch``                  ``/query`` once per xpath
POST      ``/integrate``              integrate two stored sources
POST      ``/feedback``               Bayesian answer feedback
========  ==========================  =========================================

Concurrency discipline — the reason this front scales the way the
ROADMAP wants:

* every service call runs in a **thread-pool executor**, so the event
  loop never blocks on SQLite, tree walks, or Shannon expansions and
  keeps accepting/pipelining requests meanwhile;
* **reads take no app-level lock**: ``/query`` and ``/batch`` go
  straight to the pool, where :class:`~repro.dbms.service.
  DataspaceService` serves persistent cache hits lock-free and
  serializes misses per name itself;
* **writes serialize per name on the event loop** (an
  :class:`asyncio.Lock` per document name): concurrent mutations of one
  document queue as cheap waiters instead of each occupying a pool
  thread just to block on the service's shard lock — the pool stays
  available for cache hits.  Writes to *different* names still run in
  parallel.

Errors come back as structured JSON, ``{"error": {"type", "message"}}``,
with 400 for malformed requests, 404 for missing documents/routes, 503
``cache_busy`` (with ``Retry-After``) when the shared cache's write lock
stays busy, 504 for an expired ``deadline_ms``, and 500 for everything
unexpected (the HTTP core adds that containment).

Production hygiene (all surfaced under the ``"http"`` key of ``GET
/stats``; see ``docs/http_api.md``):

* **per-endpoint request counters and latency histograms** — fixed
  millisecond buckets, counted on the event loop thread so no locking
  is involved;
* a **slow-query log** — a bounded ring of the most recent requests
  slower than ``slow_ms`` (endpoint, duration, status);
* **backpressure**: with ``max_pending`` set, requests beyond that many
  already in flight are shed immediately with ``503 {"error": {"type":
  "overloaded"}}`` instead of queueing without bound on the executor
  (``GET /healthz`` and ``GET /stats`` are exempt, so probes and
  diagnostics still answer under overload).
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager
from functools import partial
from typing import Callable, Optional

from ..dbms.service import DataspaceService
from ..deadline import Deadline
from ..errors import (
    CacheBusyError,
    DeadlineExceededError,
    ImpreciseError,
    MissingDocumentError,
    WireFormatError,
)
from ..experiments import standard_rules
from ..pxml.serialize import parse_pxml
from ..query.fusion import DEFAULT_RRF_K
from .http import HTTPRequest, HTTPResponse, json_response
from . import wire

__all__ = ["HTTPMetrics", "LATENCY_BUCKETS_MS", "ServerApp", "route_label"]


def route_label(method: str, path: str) -> str:
    """The metrics label of a request: the route with client-chosen
    document names collapsed to ``{name}`` so cardinality stays bounded
    no matter what names clients invent.  Shared by :class:`ServerApp`
    and the multiproc router (:mod:`repro.server.multiproc`)."""
    path = path.rstrip("/") or "/"
    parts = path.strip("/").split("/")
    if len(parts) == 2 and parts[0] == "documents":
        path = "/documents/{name}"
    elif len(parts) == 3 and parts[0] == "documents" and parts[2] == "stats":
        path = "/documents/{name}/stats"
    return f"{method} {path}"

#: Upper edges (milliseconds) of the latency histogram buckets; the
#: last bucket is unbounded.  Fixed so scrapes from different workers
#: can be summed bucket-by-bucket by the multiproc router.
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000)

#: How many slow requests the slow-query ring retains.
SLOW_LOG_SIZE = 32


class HTTPMetrics:
    """Per-endpoint request counters, latency histograms, and a
    slow-query ring.

    Only ever touched from the event loop thread (the handler runs
    there), so plain dict/int updates need no locking.  ``snapshot()``
    returns the JSON-ready ``"http"`` section of ``GET /stats``.
    """

    def __init__(self, slow_ms: int = 500):
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        self.slow_ms = slow_ms
        #: endpoint label -> {"count", "errors", "latency_ms": [bucket counts]}
        self._endpoints: dict = {}
        self._slow: deque = deque(maxlen=SLOW_LOG_SIZE)
        self.shed = 0

    def observe(self, label: str, duration_seconds: float, status: int) -> None:
        entry = self._endpoints.get(label)
        if entry is None:
            entry = self._endpoints[label] = {
                "count": 0,
                "errors": 0,
                "latency_ms": [0] * (len(LATENCY_BUCKETS_MS) + 1),
            }
        entry["count"] += 1
        if status >= 500:
            entry["errors"] += 1
        ms = int(duration_seconds * 1000)
        for index, edge in enumerate(LATENCY_BUCKETS_MS):
            if ms <= edge:
                entry["latency_ms"][index] += 1
                break
        else:
            entry["latency_ms"][-1] += 1
        if self.slow_ms and ms >= self.slow_ms:
            self._slow.append(
                {"endpoint": label, "duration_ms": ms, "status": status}
            )

    def snapshot(self, *, in_flight: int = 0) -> dict:
        return {
            "endpoints": {
                label: {
                    "count": entry["count"],
                    "errors": entry["errors"],
                    "latency_ms": list(entry["latency_ms"]),
                }
                for label, entry in sorted(self._endpoints.items())
            },
            "latency_bucket_edges_ms": list(LATENCY_BUCKETS_MS),
            "in_flight": in_flight,
            "shed": self.shed,
            "slow_ms": self.slow_ms,
            "slow": list(self._slow),
        }


class _HTTPError(Exception):
    """An error with a deliberate HTTP status (app-internal)."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(message)
        self.status = status
        self.error_type = error_type


def _error_response(status: int, error_type: str, message: str) -> HTTPResponse:
    return json_response(
        {"error": {"type": error_type, "message": message}}, status=status
    )


def _field(body: dict, name: str, kind: type = str) -> object:
    """A required, typed field of a JSON request body (400 on absence
    or wrong type)."""
    if not isinstance(body, dict) or name not in body:
        raise _HTTPError(400, "bad_request", f"missing field {name!r}")
    value = body[name]
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise _HTTPError(
            400,
            "bad_request",
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}",
        )
    return value


class ServerApp:
    """The async request handler over one :class:`DataspaceService`.

    ``max_workers`` sizes the executor the service calls run on; the
    default mirrors :class:`concurrent.futures.ThreadPoolExecutor`'s
    I/O-oriented sizing.  :meth:`close` releases the pool (the service
    itself is owned by the caller).
    """

    def __init__(
        self,
        service: DataspaceService,
        *,
        max_workers: Optional[int] = None,
        max_pending: Optional[int] = None,
        slow_ms: int = 500,
    ):
        self.service = service
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        #: backpressure bound: requests beyond this many in flight are
        #: shed with 503 instead of queueing on the executor; ``None``
        #: preserves the unbounded (queue-everything) behavior.
        self.max_pending = max_pending
        self.metrics = HTTPMetrics(slow_ms=slow_ms)
        self._in_flight = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers or min(32, (os.cpu_count() or 1) + 4),
            thread_name_prefix="dataspace-worker",
        )
        #: name -> [asyncio.Lock, holder/waiter count]; only touched from
        #: the event loop thread, so the dict itself needs no locking.
        #: Entries are dropped once uncontended — client-chosen names
        #: must not grow server memory without bound.
        self._write_locks: dict = {}

    # -- plumbing -----------------------------------------------------------

    async def _call(self, fn: Callable, *args, **kwargs):
        """Run one blocking service call on the pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, partial(fn, *args, **kwargs))

    @asynccontextmanager
    async def _write_lock(self, name: str):
        entry = self._write_locks.get(name)
        if entry is None:
            entry = self._write_locks[name] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                yield
        finally:
            entry[1] -= 1
            if entry[1] == 0 and self._write_locks.get(name) is entry:
                del self._write_locks[name]

    async def __call__(self, request: HTTPRequest) -> HTTPResponse:
        label = route_label(request.method, request.path)
        if (
            self.max_pending is not None
            and self._in_flight >= self.max_pending
            and label not in ("GET /healthz", "GET /stats")
        ):
            # Shed instead of queueing without bound: the caller gets a
            # clean retryable signal while probes and diagnostics
            # (exempt above) keep answering under overload.
            self.metrics.shed += 1
            response = _error_response(
                503,
                "overloaded",
                f"{self._in_flight} requests already in flight"
                f" (max_pending {self.max_pending}); retry later",
            )
            # Overload clears on the scale of in-flight service calls;
            # one second is the honest coarse hint, and it gives
            # Retry-After-honoring clients (DataspaceClient retry_503)
            # a pause bound they can trust.
            response.headers["retry-after"] = "1"
            return response
        self._in_flight += 1
        start = time.monotonic()
        try:
            response = await self._handle(request)
        except Exception:
            # The HTTP core turns this into a contained 500; count it
            # here so "errors" still reflects it.
            self.metrics.observe(label, time.monotonic() - start, 500)
            raise
        finally:
            self._in_flight -= 1
        self.metrics.observe(label, time.monotonic() - start, response.status)
        return response

    async def _handle(self, request: HTTPRequest) -> HTTPResponse:
        try:
            return await self._dispatch(request)
        except _HTTPError as error:
            return _error_response(error.status, error.error_type, str(error))
        except MissingDocumentError as error:
            # The caller named something that is not there: 404.  Every
            # other library error — invalid names, bad XPath/XML, bad
            # wire payloads — is a bad or unservable request: 400.
            return _error_response(404, type(error).__name__, str(error))
        # impreciselint: disable=no-swallow -- status mapping: expiry is the request's budget, not the request; 504, and a retry with a larger budget is safe
        except DeadlineExceededError as error:
            return _error_response(504, "deadline_exceeded", str(error))
        # impreciselint: disable=no-swallow -- status mapping: write-lock contention is transient, not the request's fault; 503 + Retry-After, and an idempotent replay re-applies the mutation
        except CacheBusyError as error:
            response = _error_response(503, "cache_busy", str(error))
            response.headers["retry-after"] = "1"
            return response
        # impreciselint: disable=no-swallow -- status mapping: the typed 504/503 branches above come first, so what reaches here is a bad or unservable request; 400
        except (WireFormatError, ValueError, ImpreciseError) as error:
            return _error_response(400, type(error).__name__, str(error))

    async def _dispatch(self, request: HTTPRequest) -> HTTPResponse:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return await self._healthz()
        if path == "/stats" and method == "GET":
            return await self._stats()
        if path == "/documents" and method == "GET":
            return await self._documents()
        if path == "/query" and method == "POST":
            return await self._query(request)
        if path == "/search" and method == "POST":
            return await self._search(request)
        if path == "/aggregate" and method == "POST":
            return await self._aggregate(request)
        if path == "/batch" and method == "POST":
            return await self._batch(request)
        if path == "/integrate" and method == "POST":
            return await self._integrate(request)
        if path == "/feedback" and method == "POST":
            return await self._feedback(request)
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] == "documents":
            if method == "PUT":
                return await self._load(request, parts[1])
            if method == "DELETE":
                return await self._delete(parts[1])
            raise _HTTPError(405, "method_not_allowed", f"{method} {path}")
        if len(parts) == 3 and parts[0] == "documents" and parts[2] == "stats":
            if method == "GET":
                return await self._document_stats(parts[1])
            raise _HTTPError(405, "method_not_allowed", f"{method} {path}")
        raise _HTTPError(404, "not_found", f"no route for {method} {path}")

    @staticmethod
    def _deadline_of(body: dict) -> Optional[Deadline]:
        """The request's ``deadline_ms`` budget as a live
        :class:`Deadline` (started *here*, when the handler picks the
        request up), or ``None`` when the caller set no budget."""
        raw = body.get("deadline_ms")
        if raw is None:
            return None
        try:
            return Deadline.from_ms(raw)
        except ValueError as error:
            raise _HTTPError(400, "bad_request", str(error)) from None

    @staticmethod
    def _body(request: HTTPRequest) -> dict:
        try:
            body = request.json()
        except (ValueError, UnicodeDecodeError) as error:
            raise _HTTPError(400, "bad_request", f"invalid JSON body: {error}") from None
        if not isinstance(body, dict):
            raise _HTTPError(400, "bad_request", "request body must be a JSON object")
        return body

    # -- read endpoints -----------------------------------------------------

    async def _healthz(self) -> HTTPResponse:
        count = len(await self._call(self.service.list))
        return json_response({"status": "ok", "documents": count})

    async def _stats(self) -> HTTPResponse:
        stats = dict(await self._call(self.service.cache_stats))
        # The "http" section is assembled on the event loop thread —
        # the only thread that mutates the metrics — so the snapshot
        # is consistent without locks.
        stats["http"] = self.metrics.snapshot(in_flight=self._in_flight)
        return json_response(stats)

    async def _documents(self) -> HTTPResponse:
        return json_response({"documents": await self._call(self.service.documents)})

    async def _document_stats(self, name: str) -> HTTPResponse:
        stats = await self._call(self.service.stats, name)
        return json_response(
            {"document": name, "stats": wire.encode_node_stats(stats)}
        )

    async def _query(self, request: HTTPRequest) -> HTTPResponse:
        body = self._body(request)
        name = _field(body, "document")
        xpath = _field(body, "xpath")
        deadline = self._deadline_of(body)
        answer = await self._call(
            self.service.query, name, xpath, deadline=deadline
        )
        return json_response(
            {
                "document": name,
                "xpath": xpath,
                "answer": {"items": wire.encode_answer(answer)},
            }
        )

    async def _search(self, request: HTTPRequest) -> HTTPResponse:
        """Dataspace-wide fan-out: one query over many documents, fused
        into one ranked result (``query_all``).  Reads take no app-level
        lock; the service prices the documents one after another on
        this request's executor thread, so concurrent requests, not the
        documents of one request, are what run in parallel.
        ``allow_partial`` without ``deadline_ms`` is the service's
        ``QueryError``, a 400."""
        body = self._body(request)
        xpath = _field(body, "xpath")
        documents = body.get("documents")
        if documents is not None:
            if not isinstance(documents, list) or not all(
                isinstance(name, str) for name in documents
            ):
                raise _HTTPError(
                    400, "bad_request", "'documents' must be a list of strings"
                )
        glob = body.get("glob")
        if glob is not None and not isinstance(glob, str):
            raise _HTTPError(400, "bad_request", "'glob' must be a string")
        if documents is not None and glob is not None:
            raise _HTTPError(
                400, "bad_request", "pass either 'documents' or 'glob', not both"
            )
        strategy = body.get("strategy", "prob")
        if not isinstance(strategy, str):
            raise _HTTPError(400, "bad_request", "'strategy' must be a string")
        k = body.get("k", DEFAULT_RRF_K)
        if isinstance(k, bool) or not isinstance(k, (int, str)):
            raise _HTTPError(
                400, "bad_request", "'k' must be an integer or 'num/den' string"
            )
        raw_weights = body.get("weights")
        weights = None
        if raw_weights is not None:
            if not isinstance(raw_weights, dict):
                raise _HTTPError(400, "bad_request", "'weights' must be an object")
            weights = {}
            for name, value in raw_weights.items():
                if not isinstance(name, str):
                    raise _HTTPError(
                        400, "bad_request", "'weights' keys must be strings"
                    )
                if isinstance(value, int) and not isinstance(value, bool):
                    weights[name] = value
                elif isinstance(value, str):
                    weights[name] = wire.decode_fraction(value)
                else:
                    raise _HTTPError(
                        400,
                        "bad_request",
                        "'weights' values must be integers or 'num/den' strings",
                    )
        deadline = self._deadline_of(body)
        allow_partial = body.get("allow_partial", False)
        if not isinstance(allow_partial, bool):
            raise _HTTPError(
                400, "bad_request", "'allow_partial' must be a boolean"
            )
        fused = await self._call(
            self.service.query_all,
            xpath,
            names=documents,
            glob=glob,
            strategy=strategy,
            weights=weights,
            rrf_k=k,
            deadline=deadline,
            allow_partial=allow_partial,
        )
        return json_response(
            {"xpath": xpath, "result": wire.encode_fused_answer(fused)}
        )

    async def _aggregate(self, request: HTTPRequest) -> HTTPResponse:
        body = self._body(request)
        name = _field(body, "document")
        kind = _field(body, "kind")
        target = _field(body, "target")
        text = body.get("text")
        if text is not None and not isinstance(text, str):
            raise _HTTPError(400, "bad_request", "'text' must be a string")
        deadline = self._deadline_of(body)
        distribution = await self._call(
            self.service.aggregate, name, kind, target, text=text,
            deadline=deadline,
        )
        return json_response(
            {
                "document": name,
                "kind": kind,
                "target": target,
                "distribution": wire.encode_aggregate_distribution(distribution),
            }
        )

    async def _batch(self, request: HTTPRequest) -> HTTPResponse:
        body = self._body(request)
        name = _field(body, "document")
        xpaths = _field(body, "xpaths", list)
        if not all(isinstance(xpath, str) for xpath in xpaths):
            raise _HTTPError(400, "bad_request", "'xpaths' must be strings")
        deadline = self._deadline_of(body)
        answers = await self._call(
            self.service.run_batch, name, xpaths, deadline=deadline
        )
        return json_response(
            {
                "document": name,
                "answers": [
                    {"xpath": xpath, "items": wire.encode_answer(answer)}
                    for xpath, answer in zip(xpaths, answers)
                ],
            }
        )

    # -- write endpoints ----------------------------------------------------

    async def _load(self, request: HTTPRequest, name: str) -> HTTPResponse:
        kind = request.query.get("kind", "xml")
        if kind not in ("xml", "pxml"):
            raise _HTTPError(400, "bad_request", f"unknown document kind {kind!r}")
        try:
            text = request.body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise _HTTPError(400, "bad_request", f"body is not UTF-8: {error}") from None
        async with self._write_lock(name):
            if kind == "pxml":
                document = await self._call(parse_pxml, text)
                await self._call(self.service.load_document, name, document)
            else:
                await self._call(self.service.load, name, text)
        return json_response({"stored": name, "kind": kind}, status=201)

    async def _delete(self, name: str) -> HTTPResponse:
        async with self._write_lock(name):
            await self._call(self.service.delete, name)
        return json_response({"deleted": name})

    async def _integrate(self, request: HTTPRequest) -> HTTPResponse:
        body = self._body(request)
        name_a = _field(body, "a")
        name_b = _field(body, "b")
        output = _field(body, "output")
        rule_names = [
            rule for rule in str(body.get("rules", "")).split(",") if rule
        ]
        async with self._write_lock(output):
            report = await self._call(
                self.service.integrate,
                name_a,
                name_b,
                output,
                rules=standard_rules(*rule_names),
            )
        return json_response({"output": output, "report": wire.encode_report(report)})

    async def _feedback(self, request: HTTPRequest) -> HTTPResponse:
        body = self._body(request)
        name = _field(body, "document")
        xpath = _field(body, "xpath")
        value = _field(body, "value")
        correct = body.get("correct", True)
        if not isinstance(correct, bool):
            raise _HTTPError(400, "bad_request", "'correct' must be a boolean")
        async with self._write_lock(name):
            step = await self._call(
                self.service.feedback, name, xpath, value, correct=correct
            )
        return json_response(
            {"document": name, "step": wire.encode_feedback_step(step)}
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool (the service stays with its owner)."""
        self._pool.shutdown(wait=False)
