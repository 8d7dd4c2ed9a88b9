"""Pre-fork multi-worker serving tier: N processes, one dataspace.

``imprecise serve --http HOST:PORT --workers N`` turns the single-process
front into a small production tier:

* **N worker subprocesses**, each a full ``imprecise serve --http`` on an
  ephemeral loopback port, all sharing one store directory and (when
  configured) one ``--cache-dir`` — safe because
  :class:`~repro.dbms.cache_store.AnswerCacheStore` takes its writes in
  ``BEGIN IMMEDIATE`` transactions with bounded busy retries and
  :class:`~repro.dbms.service.DataspaceService` re-reads documents a
  sibling process invalidated (the cross-process version fence);
* a **parent acceptor/router** (:class:`RouterApp` on the same asyncio
  :class:`~repro.server.http.HTTPServer` core) that proxies each request
  to a worker over pooled keep-alive connections;
* **consistent-hash document→worker sharding**
  (:class:`ConsistentHashRing`): every request that names a document
  (``/query``, ``/batch``, ``/aggregate``, ``/feedback``,
  ``/documents/{name}``…, and ``/integrate`` by its *output*) lands on
  the same worker every time, so each worker's in-memory layers —
  materialized documents, compiled engines, event-probability caches —
  stay hot for *its* shard instead of every worker re-deriving every
  document.  Requests without document affinity (``/search``,
  ``/documents``, ``/healthz``) round-robin;
* **graceful drain**: SIGTERM stops the router's accept loop, lets
  in-flight proxied requests finish, then SIGTERMs the children (each of
  which runs its own graceful shutdown).

``GET /stats`` on the router returns ``{"router": …, "ring": …,
"supervisor": …, "workers": [each worker's full /stats dict]}`` — the
router's own per-endpoint counters/latency histograms plus every
worker's, so one scrape sees the whole tier (``docs/http_api.md``).

**The tier is self-healing.**  A :class:`WorkerSupervisor` daemon thread
watches the children: a dead child is ejected from routing at once (its
:class:`CircuitBreaker` is forced open) and respawned with bounded
exponential backoff; consecutive proxy failures to a live-but-wedged
child trip the same breaker.  While a breaker is open the worker's shard
reroutes deterministically to the healthy members, and the supervisor
probes the child's ``/healthz`` until a pass re-admits it.  A crashed
worker therefore costs a brief blip for its shard, never permanent 502s
and never the router's life.

Sharding is an *affinity* optimization, never a correctness requirement:
any worker can serve any document (shared store, shared cache, version
fence), which is what makes worker membership changes across restarts
safe — a document whose shard moved is simply re-priced or served from
the shared persistent cache by its new owner.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..errors import ImpreciseError
from .app import HTTPMetrics, route_label
from .http import (
    BackgroundServer,
    HTTPRequest,
    HTTPResponse,
    HTTPServer,
    json_response,
)

__all__ = [
    "CircuitBreaker",
    "ConsistentHashRing",
    "MultiProcServer",
    "RouterApp",
    "WorkerProcess",
    "WorkerSupervisor",
    "run_multiproc",
]

#: Virtual points per ring member: enough that a 4–8 worker ring is
#: statistically even (±a few percent), few enough that building the
#: ring is microseconds.
RING_REPLICAS = 64

#: Idle proxied connections the router retains per worker.
POOL_MAX_IDLE = 8

#: Consecutive proxy failures that eject a worker from routing (its
#: circuit breaker opens) until a ``/healthz`` probe re-admits it.
BREAKER_THRESHOLD = 3

#: Endpoints that read a document name out of the JSON body, and the
#: field that carries it.  ``/integrate`` routes by its *output* — that
#: is the document it writes and invalidates, so the write lands on the
#: worker that will serve the follow-up queries.
_BODY_AFFINITY = {
    "/query": "document",
    "/batch": "document",
    "/aggregate": "document",
    "/feedback": "document",
    "/integrate": "output",
}


class ConsistentHashRing:
    """Consistent hashing of string keys onto a fixed member set.

    Each member contributes ``replicas`` SHA-256 points on a ring; a key
    maps to the member owning the first point at or after the key's own
    hash.  Properties the router depends on (pinned by tests):

    * deterministic — same members, same key, same owner, on every
      platform and in every process (``hashlib.sha256``, not the
      per-process-salted builtin ``hash``);
    * stable under *key* churn — adding or deleting documents never
      moves any other document's owner (membership did not change);
    * minimal movement under *membership* churn — going from N to N+1
      members re-homes roughly ``1/(N+1)`` of the keys, not all of them.
    """

    def __init__(self, members: Sequence[str], *, replicas: int = RING_REPLICAS):
        members = list(members)
        if not members:
            raise ValueError("ring needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ring members: {members!r}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.members = tuple(members)
        self.replicas = replicas
        points = []
        for member in members:
            for replica in range(replicas):
                blob = hashlib.sha256(
                    f"{member}#{replica}".encode("utf-8")
                ).digest()
                points.append((int.from_bytes(blob[:8], "big"), member))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def member_for(self, key: str) -> str:
        """The member that owns ``key``."""
        point = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )
        index = bisect.bisect_right(self._keys, point) % len(self._points)
        return self._points[index][1]

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(members={list(self.members)!r},"
            f" replicas={self.replicas})"
        )


class CircuitBreaker:  # impreciselint: guarded-by=_lock
    """Per-worker routing eligibility, shared between two threads.

    The router's event loop records proxy outcomes
    (:meth:`record_failure` / :meth:`record_success`); the supervisor
    thread ejects dead children (:meth:`force_open`) and re-admits them
    after a passing health probe (:meth:`readmit`).  ``open`` means the
    worker receives no routed traffic — its shard reroutes to healthy
    members — until re-admission.  All transitions are counted, and
    :meth:`state` is what ``GET /stats`` exposes per worker.
    """

    def __init__(self, *, threshold: int = BREAKER_THRESHOLD):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._open = False
        self._failures = 0
        self.trips = 0
        self.readmissions = 0

    @property
    def available(self) -> bool:
        """Whether the worker is currently eligible for routing."""
        with self._lock:
            return not self._open

    def record_success(self) -> None:
        """A proxied request completed; the failure streak resets."""
        with self._lock:
            self._failures = 0

    def record_failure(self) -> None:
        """A proxied request failed at the transport level; ``threshold``
        consecutive failures trip the breaker open."""
        with self._lock:
            self._failures += 1
            if not self._open and self._failures >= self.threshold:
                self._open = True
                self.trips += 1

    def force_open(self) -> None:
        """Eject immediately — the supervisor saw the process die, no
        point burning ``threshold`` requests to learn it."""
        with self._lock:
            if not self._open:
                self._open = True
                self.trips += 1

    def readmit(self) -> None:
        """Close the breaker after a passing health probe."""
        with self._lock:
            if self._open:
                self._open = False
                self.readmissions += 1
            self._failures = 0

    def state(self) -> dict:
        """The breaker as ``/stats`` reports it."""
        with self._lock:
            return {
                "state": "open" if self._open else "closed",
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "trips": self.trips,
                "readmissions": self.readmissions,
            }


class _UpstreamConnection:
    """One keep-alive proxied connection to a worker (router-internal)."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.reused = False  # True once it has served a proxied request

    async def read_response(self) -> tuple:
        """``(status, headers, body)`` of one worker response.  Workers
        always frame with ``Content-Length`` (the HTTP core sets it on
        every response), so no chunked decoding is needed."""
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        status = int(parts[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        return status, headers, body

    def close(self) -> None:
        self.writer.close()


class _Upstream:
    """A worker as the router sees it: an address, a circuit breaker,
    and a small pool of idle keep-alive connections.  The pool is only
    touched from the router's event loop thread, so it needs no locking;
    the breaker carries its own lock, and the supervisor updates
    ``host``/``port`` after a respawn (plain attribute swaps, with the
    stale pool closed on the event loop via
    :meth:`~repro.server.http.BackgroundServer.call_soon`)."""

    def __init__(
        self,
        key: str,
        host: str,
        port: int,
        *,
        max_idle: int = POOL_MAX_IDLE,
        breaker_threshold: int = BREAKER_THRESHOLD,
    ):
        self.key = key
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self.breaker = CircuitBreaker(threshold=breaker_threshold)
        self._idle: list = []
        self.connects = 0  # diagnostics: fresh TCP connections dialed

    async def acquire(self) -> _UpstreamConnection:
        while self._idle:
            conn = self._idle.pop()
            if conn.writer.is_closing():
                conn.close()
                continue
            return conn
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self.connects += 1
        return _UpstreamConnection(reader, writer)

    def release(self, conn: _UpstreamConnection) -> None:
        conn.reused = True
        if len(self._idle) < self.max_idle and not conn.writer.is_closing():
            self._idle.append(conn)
        else:
            conn.close()

    def close_idle(self) -> None:
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class RouterApp:
    """The parent acceptor's async handler: shard, proxy, observe.

    Plugs into :class:`~repro.server.http.HTTPServer` exactly like
    :class:`~repro.server.app.ServerApp` does; instead of calling a
    service it forwards the raw request to a worker and relays the
    response.  A dead pooled connection (worker restarted its keep-alive)
    is retried once on a fresh connection when that cannot double-apply
    a write — the same idempotency rule as
    :class:`~repro.server.client.DataspaceClient` — otherwise the caller
    gets a ``502 bad_gateway``.
    """

    def __init__(self, upstreams: Sequence[_Upstream], *, slow_ms: int = 500):
        if not upstreams:
            raise ValueError("router needs at least one upstream worker")
        self.upstreams = list(upstreams)
        self.ring = ConsistentHashRing([u.key for u in self.upstreams])
        self._by_key = {u.key: u for u in self.upstreams}
        self.metrics = HTTPMetrics(slow_ms=slow_ms)
        self._in_flight = 0
        self._round_robin = 0
        #: Cached reroute rings, one per healthy-member subset — tiny
        #: (subsets of a handful of workers) and rebuilt only on a
        #: membership-health change.
        self._reroute_rings: dict = {}
        #: Set by :class:`MultiProcServer` when supervision is on; the
        #: snapshot lands in the ``supervisor`` section of ``/stats``.
        self.supervisor_stats: Optional[Callable[[], dict]] = None

    # -- routing ------------------------------------------------------------

    def _affinity(self, request: HTTPRequest) -> Optional[str]:
        """The document name this request has affinity to, or ``None``
        for round-robin (no name, or a body the worker will 400 anyway)."""
        path = request.path.rstrip("/") or "/"
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "documents":
            return parts[1]
        field = _BODY_AFFINITY.get(path)
        if field is not None and request.method == "POST":
            try:
                body = request.json()
            except (ValueError, UnicodeDecodeError):
                return None
            if isinstance(body, dict):
                name = body.get(field)
                if isinstance(name, str):
                    return name
        return None

    def worker_for(self, request: HTTPRequest) -> _Upstream:
        available = [u for u in self.upstreams if u.breaker.available]
        name = self._affinity(request)
        if name is not None:
            owner = self._by_key[self.ring.member_for(name)]
            if owner.breaker.available or not available:
                return owner
            # The shard's owner is ejected: reroute via a ring over the
            # currently healthy members, so every request for the same
            # document lands on the same stand-in (its in-memory layers
            # warm up for the orphaned shard instead of scattering)
            # until the owner is re-admitted.
            keys = tuple(u.key for u in available)
            ring = self._reroute_rings.get(keys)
            if ring is None:
                ring = ConsistentHashRing(keys)
                self._reroute_rings[keys] = ring
            return self._by_key[ring.member_for(name)]
        if not available:
            # Every breaker open: fail forward to the ejected workers —
            # a 502 with a cause beats refusing to even try.
            available = self.upstreams
        upstream = available[self._round_robin % len(available)]
        self._round_robin += 1
        return upstream

    def upstream_for(self, key: str) -> _Upstream:
        """The upstream registered under ``key`` (supervisor hook)."""
        return self._by_key[key]

    # -- handling -----------------------------------------------------------

    async def __call__(self, request: HTTPRequest) -> HTTPResponse:
        label = route_label(request.method, request.path)
        self._in_flight += 1
        start = time.monotonic()
        try:
            if request.method == "GET" and (
                request.path.rstrip("/") or "/"
            ) == "/stats":
                response = await self._stats()
            else:
                response = await self._forward(self.worker_for(request), request)
        finally:
            self._in_flight -= 1
        self.metrics.observe(label, time.monotonic() - start, response.status)
        return response

    async def _forward(
        self, upstream: _Upstream, request: HTTPRequest
    ) -> HTTPResponse:
        body = request.body
        headers = {
            "host": f"{upstream.host}:{upstream.port}",
            "content-length": str(len(body)),
        }
        content_type = request.headers.get("content-type")
        if content_type:
            headers["content-type"] = content_type
        head = f"{request.method} {request.target} HTTP/1.1\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        payload = head.encode("latin-1") + b"\r\n" + body
        idempotent = request.method in ("GET", "PUT", "DELETE")
        error: Optional[BaseException] = None
        for attempt in (1, 2):
            try:
                conn = await upstream.acquire()
            except OSError as failure:
                # Connect refused/reset: the worker is gone — that is a
                # gateway failure, not an internal router error.
                error = failure
                break
            reused = conn.reused
            sent = False
            try:
                conn.writer.write(payload)
                await conn.writer.drain()
                sent = True
                status, response_headers, response_body = (
                    await conn.read_response()
                )
            except (ConnectionError, OSError, EOFError, ValueError,
                    asyncio.IncompleteReadError) as failure:
                conn.close()
                error = failure
                # Retry only a *pooled* connection that may simply have
                # gone stale, and only when a replay cannot double-apply
                # a non-idempotent write (same rule as DataspaceClient).
                if attempt == 1 and reused and (not sent or idempotent):
                    continue
                break
            upstream.release(conn)
            upstream.breaker.record_success()
            response = HTTPResponse(status=status, body=response_body)
            worker_type = response_headers.get("content-type")
            if worker_type:
                response.content_type = worker_type
            return response
        upstream.breaker.record_failure()
        return json_response(
            {
                "error": {
                    "type": "bad_gateway",
                    "message": f"worker {upstream.key} unreachable: {error}",
                }
            },
            status=502,
        )

    async def _stats(self) -> HTTPResponse:
        """One scrape for the whole tier: router metrics + ring layout +
        every worker's own ``GET /stats`` document."""
        probe = HTTPRequest(
            method="GET", target="/stats", path="/stats", query={}, headers={}
        )
        responses = await asyncio.gather(
            *(self._forward(upstream, probe) for upstream in self.upstreams)
        )
        workers = []
        for upstream, response in zip(self.upstreams, responses):
            try:
                payload = json.loads(response.body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {"error": {"type": "bad_gateway",
                                     "message": "unreadable worker stats"}}
            if not isinstance(payload, dict):
                payload = {"stats": payload}
            workers.append(
                {
                    "worker": upstream.key,
                    "address": f"{upstream.host}:{upstream.port}",
                    "pool_connects": upstream.connects,
                    "breaker": upstream.breaker.state(),
                    "stats": payload,
                }
            )
        payload = {
            "router": self.metrics.snapshot(in_flight=self._in_flight - 1),
            "ring": {
                "workers": list(self.ring.members),
                "replicas": self.ring.replicas,
                "available": [
                    u.key for u in self.upstreams if u.breaker.available
                ],
            },
            "workers": workers,
        }
        if self.supervisor_stats is not None:
            payload["supervisor"] = self.supervisor_stats()
        return json_response(payload)

    def close_idle(self) -> None:
        for upstream in self.upstreams:
            upstream.close_idle()


class WorkerProcess:
    """One ``imprecise serve --http`` child on an ephemeral port.

    The port is parsed from the child's stable ``serving on
    http://HOST:PORT`` startup line; stdout/stderr are drained by
    daemon threads into bounded rings so a chatty child can never fill
    a pipe buffer and wedge, and the last lines are available for
    diagnostics when a child dies."""

    def __init__(
        self,
        index: int,
        argv: Sequence[str],
        *,
        env: Optional[dict] = None,
        startup_timeout: float = 30.0,
    ):
        self.index = index
        self.key = f"worker-{index}"
        self.proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._output: deque = deque(maxlen=50)
        banner: dict = {}

        def _read_banner() -> None:
            banner["line"] = self.proc.stdout.readline()

        reader = threading.Thread(target=_read_banner, daemon=True)
        reader.start()
        reader.join(startup_timeout)
        line = (banner.get("line") or "").strip()
        if not line.startswith("serving on http://"):
            self.proc.kill()
            try:
                _, stderr = self.proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                stderr = ""
            raise ImpreciseError(
                f"{self.key} failed to start (got {line!r}):"
                f" {(stderr or '').strip()[-500:]}"
            )
        address = line[len("serving on http://"):]
        host, _, port_text = address.rpartition(":")
        self.host = host.strip("[]")
        self.port = int(port_text)
        for stream in (self.proc.stdout, self.proc.stderr):
            threading.Thread(
                target=self._drain, args=(stream,), daemon=True
            ).start()

    def _drain(self, stream) -> None:
        try:
            for line in stream:
                self._output.append(line.rstrip("\n"))
        except ValueError:
            pass  # stream closed under us during shutdown

    def output_tail(self) -> list:
        """The child's most recent output lines (diagnostics)."""
        return list(self._output)

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        """SIGTERM (the child drains gracefully), escalating to SIGKILL
        past ``timeout``; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait(5)

    def __repr__(self) -> str:
        return f"WorkerProcess({self.key}, {self.host}:{self.port})"


class WorkerSupervisor:  # impreciselint: guarded-by=_lock
    """Daemon thread that keeps the tier's children alive and routed.

    Two duties, one loop:

    * **respawn** — a child whose process exited is ejected from routing
      at once (breaker forced open) and replaced with a fresh process,
      under bounded exponential backoff per slot so a crash-looping
      child cannot busy-spin the tier (the backoff resets when the slot
      passes a health probe);
    * **re-admission** — every ``probe_interval`` seconds each ejected
      worker whose process is alive gets a blocking ``GET /healthz``
      (plain :mod:`http.client`, this is not the router's event loop);
      a 200 closes its breaker and traffic returns.

    The counters (``restarts``/``restart_failures``/``probes``/
    ``readmissions``) feed the ``supervisor`` section of the router's
    ``GET /stats``.
    """

    def __init__(
        self,
        tier: "MultiProcServer",
        *,
        poll_interval: float = 0.1,
        probe_interval: float = 0.25,
        backoff_initial: float = 0.2,
        backoff_max: float = 5.0,
        probe_timeout: float = 2.0,
    ):
        self.tier = tier
        self.poll_interval = poll_interval
        self.probe_interval = probe_interval
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.probe_timeout = probe_timeout
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts = 0
        self.restart_failures = 0
        self.probes = 0
        self.readmissions = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the supervision thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            thread = threading.Thread(
                target=self._run, name="worker-supervisor", daemon=True
            )
            self._thread = thread
        thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop supervising — must run *before* the tier reaps its
        children, or a planned shutdown looks like a crash to respawn."""
        self._stop.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout)

    def stats_snapshot(self) -> dict:
        """The ``supervisor`` section of the router's ``/stats``."""
        with self._lock:
            return {
                "restarts": self.restarts,
                "restart_failures": self.restart_failures,
                "probes": self.probes,
                "readmissions": self.readmissions,
                "probe_interval_s": self.probe_interval,
                "backoff_max_s": self.backoff_max,
            }

    # -- the loop -----------------------------------------------------------

    def _run(self) -> None:
        # Backoff state lives on the loop's own stack: slot -> current
        # delay, and slot -> the monotonic instant gating its next spawn.
        delays: dict = {}
        retry_at: dict = {}
        next_probe = 0.0
        while not self._stop.is_set():
            if self._stop.wait(self.poll_interval):
                return
            now = time.monotonic()
            for slot, worker in enumerate(list(self.tier.workers)):
                if worker.proc.poll() is None:
                    continue
                router = self.tier.router
                if router is not None:
                    router.upstream_for(worker.key).breaker.force_open()
                if now < retry_at.get(slot, 0.0):
                    continue
                delay = delays.get(slot, self.backoff_initial)
                retry_at[slot] = now + delay
                delays[slot] = min(delay * 2.0, self.backoff_max)
                tail = "\n".join(worker.output_tail()[-5:])
                self._log(
                    f"{worker.key} exited"
                    f" (status {worker.proc.returncode}); respawning:\n{tail}"
                )
                try:
                    self.tier.respawn_worker(slot)
                # impreciselint: disable=no-swallow -- a failed respawn is counted in restart_failures and retried with backoff on a later round
                except (ImpreciseError, OSError) as error:
                    with self._lock:
                        self.restart_failures += 1
                    self._log(f"{worker.key} respawn failed: {error}")
                    continue
                with self._lock:
                    self.restarts += 1
            if now >= next_probe:
                next_probe = now + self.probe_interval
                self._probe_round(delays)

    def _probe_round(self, delays: dict) -> None:
        for slot, worker in enumerate(list(self.tier.workers)):
            router = self.tier.router
            if router is None or worker.proc.poll() is not None:
                continue  # a dead child belongs to the respawn path
            upstream = router.upstream_for(worker.key)
            if upstream.breaker.available:
                continue
            with self._lock:
                self.probes += 1
            if self._healthy(upstream.host, upstream.port):
                upstream.breaker.readmit()
                delays.pop(slot, None)  # stable again: backoff resets
                with self._lock:
                    self.readmissions += 1
                self._log(f"{worker.key} passed /healthz; re-admitted")

    def _healthy(self, host: str, port: int) -> bool:
        try:
            conn = http.client.HTTPConnection(
                host, port, timeout=self.probe_timeout
            )
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                return response.status == 200
            finally:
                conn.close()
        except (OSError, http.client.HTTPException):
            return False

    def _log(self, message: str) -> None:
        print(f"supervisor: {message}", file=sys.stderr, flush=True)


def _worker_argv(
    store_dir,
    *,
    cache_dir=None,
    worker_args: Sequence[str] = (),
) -> list:
    argv = [sys.executable, "-m", "repro", "serve", str(store_dir),
            "--http", "127.0.0.1:0"]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    argv += list(worker_args)
    return argv


def _worker_env() -> dict:
    """The spawn environment: inherit, but make sure the children can
    import this very package even when it is only on ``sys.path`` via
    ``PYTHONPATH=src`` (tests) rather than installed."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class MultiProcServer:
    """The whole tier as one object: spawn N workers, run the router.

    The embedding shape tests and benchmarks use::

        tier = MultiProcServer(store_dir, workers=4, cache_dir=cache_dir)
        host, port = tier.start()
        ...                             # drive it with DataspaceClient
        tier.stop()

    ``stop()`` halts supervision first (so a planned shutdown is not
    mistaken for a crash to respawn), drains the router (in-flight
    proxied requests finish, new connections are refused), then SIGTERMs
    the children and waits for their own graceful exits.
    Context-manager friendly.

    ``supervise=False`` runs the PR-8 static tier — no respawns, no
    breakers opening from the supervisor side (proxy failures can still
    trip them) — which some tests use to observe raw 502 behavior.
    """

    def __init__(
        self,
        store_dir,
        *,
        workers: int = 4,
        cache_dir=None,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_args: Sequence[str] = (),
        slow_ms: int = 500,
        startup_timeout: float = 30.0,
        supervise: bool = True,
        breaker_threshold: int = BREAKER_THRESHOLD,
        probe_interval: float = 0.25,
        backoff_initial: float = 0.2,
        backoff_max: float = 5.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store_dir = store_dir
        self.cache_dir = cache_dir
        self.n_workers = workers
        self.host = host
        self.port = port
        self.worker_args = tuple(worker_args)
        self.slow_ms = slow_ms
        self.startup_timeout = startup_timeout
        self.supervise = supervise
        self.breaker_threshold = breaker_threshold
        self.probe_interval = probe_interval
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max
        self.workers: list = []
        self.router: Optional[RouterApp] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        self._background: Optional[BackgroundServer] = None

    def start(self) -> tuple:
        """Spawn the children, start the router; returns the router's
        bound ``(host, port)``."""
        argv = _worker_argv(
            self.store_dir,
            cache_dir=self.cache_dir,
            worker_args=self.worker_args,
        )
        env = _worker_env()
        try:
            for index in range(self.n_workers):
                self.workers.append(
                    WorkerProcess(
                        index, argv, env=env,
                        startup_timeout=self.startup_timeout,
                    )
                )
        except BaseException:
            self._stop_workers()
            raise
        self.router = RouterApp(
            [
                _Upstream(
                    w.key, w.host, w.port,
                    breaker_threshold=self.breaker_threshold,
                )
                for w in self.workers
            ],
            slow_ms=self.slow_ms,
        )
        self._background = BackgroundServer(self.router, self.host, self.port)
        try:
            bound = self._background.start()
        except BaseException:
            self._stop_workers()
            raise
        self.host, self.port = bound
        if self.supervise:
            self.supervisor = WorkerSupervisor(
                self,
                probe_interval=self.probe_interval,
                backoff_initial=self.backoff_initial,
                backoff_max=self.backoff_max,
            )
            self.router.supervisor_stats = self.supervisor.stats_snapshot
            self.supervisor.start()
        return bound

    def respawn_worker(self, slot: int) -> WorkerProcess:
        """Replace the dead child in ``slot`` with a fresh process and
        repoint its upstream (same ring key, new address; the stale
        connection pool is closed on the router's event loop).  The
        supervisor calls this; raises :class:`ImpreciseError` when the
        spawn itself fails."""
        old = self.workers[slot]
        old.stop(timeout=5.0)  # reap the zombie (already exited)
        argv = _worker_argv(
            self.store_dir,
            cache_dir=self.cache_dir,
            worker_args=self.worker_args,
        )
        worker = WorkerProcess(
            old.index, argv, env=_worker_env(),
            startup_timeout=self.startup_timeout,
        )
        self.workers[slot] = worker
        if self.router is not None:
            upstream = self.router.upstream_for(worker.key)
            upstream.host = worker.host
            upstream.port = worker.port
            if self._background is not None:
                self._background.call_soon(upstream.close_idle)
        return worker

    def _stop_workers(self) -> None:
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop()

    def stop(self, grace: float = 5.0) -> None:
        """Halt supervision, drain the router, then stop the children.
        Idempotent."""
        if self.supervisor is not None:
            supervisor, self.supervisor = self.supervisor, None
            supervisor.stop()
        if self._background is not None:
            background, self._background = self._background, None
            background.stop(grace=grace)
        self._stop_workers()

    def __enter__(self) -> "MultiProcServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_multiproc(
    store_dir,
    host: str,
    port: int,
    workers: int,
    *,
    cache_dir=None,
    worker_args: Sequence[str] = (),
    slow_ms: int = 500,
) -> int:
    """The blocking CLI entry (``imprecise serve --http --workers N``):
    run the tier until SIGINT/SIGTERM, then drain router and children.

    Prints the same stable ``serving on http://HOST:PORT`` first line as
    the single-process front (clients parsing it cannot tell the tiers
    apart), followed by one ``workers: N`` line."""
    tier = MultiProcServer(
        store_dir,
        workers=workers,
        cache_dir=cache_dir,
        host=host,
        port=port,
        worker_args=worker_args,
        slow_ms=slow_ms,
    )
    stop = threading.Event()

    def _signalled(signum, frame) -> None:
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _signalled)
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform
    try:
        bound_host, bound_port = tier.start()
        display = f"[{bound_host}]" if ":" in bound_host else bound_host
        print(f"serving on http://{display}:{bound_port}", flush=True)
        print(f"workers: {workers}", flush=True)
        # Crashed children are the supervisor's problem now: it ejects
        # them from routing, respawns them with backoff, and re-admits
        # them after a passing /healthz — the router never exits for a
        # child's death.
        while not stop.is_set():
            stop.wait(0.5)
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        tier.stop()
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
