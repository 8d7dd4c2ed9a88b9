"""Blocking HTTP client for the dataspace front (stdlib ``http.client``).

The counterpart of :mod:`repro.server.app` used by tests, benchmarks and
scripts: one persistent keep-alive connection per
:class:`DataspaceClient`, JSON in, exact Fractions out —
:meth:`~DataspaceClient.query` returns the same
:class:`~repro.query.ranking.RankedAnswer` (same Fractions, same order)
an in-process :class:`~repro.dbms.service.DataspaceService` call would.

Not a connection pool: one instance drives one connection serially, so
share nothing and give each thread its own client (they are cheap).  A
server restart surfaces as a transparent single reconnect; structured
server errors raise :class:`ServerError` carrying the HTTP status and
the server-side error type, except two that get typed treatment:

- **504** (``deadline_exceeded``) raises
  :class:`~repro.errors.DeadlineExceededError` so callers handle a
  blown ``deadline_ms`` budget the same way in-process callers do.
- **503** (overload shedding, or ``cache_busy`` write-lock contention)
  is replayed up to ``retry_503`` times — opt-in, idempotent requests
  only — sleeping the server's ``Retry-After`` hint (capped at
  :data:`RETRY_AFTER_CAP` seconds).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException
from typing import Iterator, Optional, Sequence, Tuple

from fractions import Fraction

from ..errors import DeadlineExceededError, ImpreciseError, WireFormatError
from ..query.fusion import FusedAnswer
from ..query.ranking import RankedAnswer
from .wire import (
    decode_aggregate_distribution,
    decode_answer,
    decode_fraction,
    decode_fused_answer,
    encode_fraction,
)

__all__ = [
    "DataspaceClient",
    "DataspaceClientPool",
    "RETRY_AFTER_CAP",
    "ServerError",
]

#: Ceiling on how long a single ``Retry-After`` hint can stall a
#: retried request — a misconfigured (or adversarial) server must not
#: be able to park the client for minutes.
RETRY_AFTER_CAP = 5.0

# Methods safe to replay after the request already went out: the
# server may have processed a lost-response request, so only requests
# whose double application is a no-op qualify (matches the reconnect
# rule in ``_exchange`` and the 503 retry gate).
_IDEMPOTENT = frozenset({"GET", "PUT", "DELETE"})


class ServerError(ImpreciseError):
    """A structured error response from the dataspace server."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(f"[{status} {error_type}] {message}")
        self.status = status
        self.error_type = error_type


class DataspaceClient:
    """Talk to an ``imprecise serve --http`` server.

    >>> client = DataspaceClient("127.0.0.1", 8080)   # doctest: +SKIP
    >>> client.query("ab", "//person/tel").as_table() # doctest: +SKIP

    Context-manager friendly; :meth:`close` drops the connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        retry_503: int = 0,
    ):
        if retry_503 < 0:
            raise ValueError(f"retry_503 must be >= 0, got {retry_503}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_503 = retry_503
        self._conn: Optional[HTTPConnection] = None

    # -- transport ----------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: dict,
    ) -> Tuple[int, Optional[str], str]:
        """One request/response round trip with a single transparent
        reconnect; returns ``(status, retry_after_header, text)``."""
        for attempt in (1, 2):
            conn = self._connection()
            sent = False
            try:
                conn.request(method, path, body=body, headers=headers)
                sent = True
                response = conn.getresponse()
                text = response.read().decode("utf-8")
                return response.status, response.getheader("Retry-After"), text
            except (ConnectionError, HTTPException, OSError):
                # A dead keep-alive connection (server restarted, idle
                # timeout): reconnect once — but only when re-sending
                # cannot double-apply a write.  A failure during send
                # means the server processed nothing; after the request
                # went out, only idempotent methods are safe to replay
                # (POST /feedback applied twice is a different posterior).
                self.close()
                if attempt == 2 or (sent and method not in _IDEMPOTENT):
                    raise
        raise AssertionError("unreachable: both exchange attempts returned")

    @staticmethod
    def _retry_delay(retry_after: Optional[str]) -> float:
        """Seconds to sleep before replaying a shed request: the
        server's ``Retry-After`` hint, clamped to
        ``[0, RETRY_AFTER_CAP]`` (0.1s when absent or malformed)."""
        if retry_after is None:
            return 0.1
        try:
            delay = float(retry_after)
        except ValueError:
            return 0.1
        return max(0.0, min(delay, RETRY_AFTER_CAP))

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        raw_body: Optional[bytes] = None,
    ) -> dict:
        body = raw_body
        headers = {}
        if payload is not None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            headers["Content-Type"] = "application/json; charset=utf-8"
        retries = self.retry_503 if method in _IDEMPOTENT else 0
        while True:
            status, retry_after, text = self._exchange(
                method, path, body, headers
            )
            if status == 503 and retries > 0:
                retries -= 1
                time.sleep(self._retry_delay(retry_after))
                continue
            break
        try:
            document = json.loads(text) if text else {}
        except ValueError as error:
            raise WireFormatError(
                f"non-JSON response from server ({status}): {error}"
            ) from None
        if status >= 400:
            error = document.get("error", {}) if isinstance(document, dict) else {}
            message = error.get("message", text.strip())
            if status == 504:
                # The server's deadline budget blew mid-request; give
                # remote callers the same typed signal in-process
                # callers get from the service layer.
                raise DeadlineExceededError(message)
            raise ServerError(status, error.get("type", "unknown"), message)
        if not isinstance(document, dict):
            raise WireFormatError("response body must be a JSON object")
        return document

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "DataspaceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> dict:
        """Liveness: ``{"status": "ok", "documents": N}``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """The server's merged cache counters (same dict
        :meth:`DataspaceService.cache_stats` returns in-process)."""
        return self._request("GET", "/stats")

    def documents(self) -> list:
        """``[{"name": ..., "kind": ...}, ...]`` of stored documents."""
        return self._request("GET", "/documents")["documents"]

    def load(self, name: str, text: str, *, kind: str = "xml") -> dict:
        """Store a document from its serialized text (``kind='pxml'``
        for probabilistic XML)."""
        return self._request(
            "PUT",
            f"/documents/{name}" + ("?kind=pxml" if kind == "pxml" else ""),
            raw_body=text.encode("utf-8"),
        )

    def delete(self, name: str) -> dict:
        """Delete a stored document and its cached answers."""
        return self._request("DELETE", f"/documents/{name}")

    def document_stats(self, name: str) -> dict:
        """Uncertainty census of one document (integer counters)."""
        return self._request("GET", f"/documents/{name}/stats")["stats"]

    def query(
        self, name: str, xpath: str, *, deadline_ms: Optional[int] = None
    ) -> RankedAnswer:
        """Ranked probabilistic answer — exact Fractions, decoded.

        ``deadline_ms`` bounds the server-side evaluation; a blown
        budget raises :class:`~repro.errors.DeadlineExceededError`.
        """
        payload: dict = {"document": name, "xpath": xpath}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        document = self._request("POST", "/query", payload)
        return decode_answer(document["answer"]["items"])

    def aggregate(
        self,
        name: str,
        kind: str,
        target: str,
        *,
        text: Optional[str] = None,
        deadline_ms: Optional[int] = None,
    ) -> dict:
        """Exact aggregate distribution (``count``/``sum``/``min``/
        ``max``/``exists`` over ``//target``), decoded back to
        ``{value: Fraction}`` — bit-identical to the in-process
        :meth:`DataspaceService.aggregate` result."""
        payload = {"document": name, "kind": kind, "target": target}
        if text is not None:
            payload["text"] = text
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        document = self._request("POST", "/aggregate", payload)
        return decode_aggregate_distribution(document["distribution"])

    def search(
        self,
        xpath: str,
        *,
        documents: Optional[Sequence[str]] = None,
        glob: Optional[str] = None,
        strategy: str = "prob",
        k: Optional[object] = None,
        weights: Optional[dict] = None,
        deadline_ms: Optional[int] = None,
        allow_partial: bool = False,
    ) -> FusedAnswer:
        """Dataspace-wide fan-out with rank fusion (``POST /search``) —
        the whole store by default, or ``documents=`` / ``glob=``.
        Returns the same :class:`~repro.query.fusion.FusedAnswer` (same
        Fractions, same order, same per-document provenance) an
        in-process :meth:`DataspaceService.query_all` call would.

        ``k`` is the ``rrf`` dampening constant (int or exact rational);
        ``weights`` maps document names to relative prior weights (int,
        ``Fraction``, or ``"num/den"`` string).

        ``deadline_ms`` bounds the whole fan-out; with
        ``allow_partial=True`` a blown budget returns whatever finished
        (the answer's ``partial``/``omitted`` fields say what was cut),
        otherwise it raises
        :class:`~repro.errors.DeadlineExceededError`.
        """
        payload: dict = {"xpath": xpath, "strategy": strategy}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if allow_partial:
            payload["allow_partial"] = True
        if documents is not None:
            payload["documents"] = list(documents)
        if glob is not None:
            payload["glob"] = glob
        if k is not None:
            payload["k"] = k if isinstance(k, int) else encode_fraction(Fraction(k))
        if weights is not None:
            payload["weights"] = {
                name: value
                if isinstance(value, int)
                else encode_fraction(Fraction(value))
                for name, value in weights.items()
            }
        document = self._request("POST", "/search", payload)
        return decode_fused_answer(document["result"])

    def batch(
        self,
        name: str,
        xpaths: Sequence[str],
        *,
        deadline_ms: Optional[int] = None,
    ) -> list:
        """A workload over one document (``/query`` once per xpath);
        answers align with ``xpaths``."""
        payload: dict = {"document": name, "xpaths": list(xpaths)}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        document = self._request("POST", "/batch", payload)
        return [decode_answer(entry["items"]) for entry in document["answers"]]

    def integrate(
        self, name_a: str, name_b: str, output: str, *, rules: str = ""
    ) -> dict:
        """Integrate two stored sources (``rules``: comma list of
        standard rule names); returns the integration report dict."""
        document = self._request(
            "POST",
            "/integrate",
            {"a": name_a, "b": name_b, "output": output, "rules": rules},
        )
        return document["report"]

    def feedback(
        self, name: str, xpath: str, value: str, *, correct: bool = True
    ) -> dict:
        """Apply answer feedback; the step dict's ``prior`` is decoded
        back to an exact :class:`~fractions.Fraction`."""
        document = self._request(
            "POST",
            "/feedback",
            {"document": name, "xpath": xpath, "value": value, "correct": correct},
        )
        step = document["step"]
        step["prior"] = decode_fraction(step["prior"])
        return step

    def __repr__(self) -> str:
        return f"DataspaceClient({self.host!r}, {self.port})"


class DataspaceClientPool:
    """A thread-safe pool of keep-alive :class:`DataspaceClient`\\ s.

    One :class:`DataspaceClient` drives one connection serially; this
    pool lets N threads share warm connections to one server without
    each paying a TCP handshake per request::

        pool = DataspaceClientPool("127.0.0.1", 8080)
        with pool.client() as client:
            answer = client.query("ab", "//person/tel")

    ``max_idle`` bounds how many idle connections are retained (a
    checkout beyond the bound creates a fresh client; returning it
    beyond the bound closes it).  :meth:`close` drains the idle set;
    clients checked out at that moment close on return.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
        max_idle: int = 8,
    ):
        if max_idle < 1:
            raise ValueError(f"max_idle must be >= 1, got {max_idle}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_idle = max_idle
        self._mu = threading.Lock()
        self._idle: list[DataspaceClient] = []
        self._closed = False
        self.created = 0  # diagnostics: fresh clients ever built

    @contextmanager
    def client(self) -> Iterator[DataspaceClient]:
        """Check a client out for the duration of the ``with`` block.

        A client whose request raised a transport-level error is closed
        instead of returned, so a dead keep-alive connection is never
        handed to the next thread (:class:`ServerError` and
        :class:`~repro.errors.DeadlineExceededError` are healthy HTTP
        exchanges and keep the connection pooled).
        """
        with self._mu:
            if self._closed:
                raise ImpreciseError("DataspaceClientPool is closed")
            client = self._idle.pop() if self._idle else None
        if client is None:
            client = DataspaceClient(self.host, self.port, timeout=self.timeout)
            with self._mu:
                self.created += 1
        try:
            yield client
        except (DeadlineExceededError, ServerError, WireFormatError):
            self._release(client)
            raise
        except Exception:
            client.close()
            raise
        else:
            self._release(client)

    def _release(self, client: DataspaceClient) -> None:
        with self._mu:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(client)
                return
        client.close()

    def close(self) -> None:
        """Close every idle connection; idempotent."""
        with self._mu:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    def __enter__(self) -> "DataspaceClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._mu:
            idle = len(self._idle)
        return (
            f"DataspaceClientPool({self.host!r}, {self.port},"
            f" idle={idle}, created={self.created})"
        )
