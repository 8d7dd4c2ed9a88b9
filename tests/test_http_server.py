"""Tests for the asyncio HTTP dataspace front.

Three layers, increasingly end-to-end:

* endpoint semantics against an in-process :class:`BackgroundServer`
  (routing, wire decoding, structured errors, keep-alive, pipelining);
* the **concurrency soak**: N threads × M mixed query/feedback/integrate
  HTTP requests against one live server must produce Fraction-identical
  answers to a serial in-process replay of the same schedules, inside a
  hard timeout (no deadlock) — matrix reduced in CI via ``SOAK_THREADS``
  / ``SOAK_REQUESTS``;
* the acceptance end-to-end: two **sequential server processes**
  (``imprecise serve --http``) sharing a ``--cache-dir`` serve
  Fraction-identical answers, the second from persistent-cache hits,
  asserted entirely over HTTP.
"""

import http.server
import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from repro.data.addressbook import addressbook_documents
from repro.dbms.cache_store import AnswerCacheStore
from repro.dbms.service import DataspaceService, format_cache_stats
from repro.server.app import ServerApp
from repro.server.client import DataspaceClient, ServerError
from repro.server.http import BackgroundServer
from repro.xmlkit.serializer import serialize

from .conftest import choice_chain_pxml, leaf_choice_pxml, nested_pxml, nested_xml

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Soak matrix — CI reduces it, a deep local run can crank it up.
SOAK_THREADS = int(os.environ.get("SOAK_THREADS", "6"))
SOAK_REQUESTS = int(os.environ.get("SOAK_REQUESTS", "8"))
SOAK_TIMEOUT = float(os.environ.get("SOAK_TIMEOUT", "120"))

QUERIES = ["//person/tel", "//person/nm", '//person[nm="John"]/tel']


def shape(answer):
    return [(item.value, item.probability, item.occurrences) for item in answer]


@pytest.fixture
def service(tmp_path):
    with DataspaceService(
        directory=tmp_path / "store", cache_dir=tmp_path / "cache"
    ) as service:
        yield service


@pytest.fixture
def live(service):
    """(client, service, app) against a live in-process server."""
    app = ServerApp(service)
    with BackgroundServer(app) as background:
        client = DataspaceClient(background.server.host, background.server.port)
        try:
            yield client, service, app
        finally:
            client.close()
    app.close()


def load_addressbook(client):
    book_a, book_b = addressbook_documents()
    client.load("a", serialize(book_a))
    client.load("b", serialize(book_b))
    client.integrate("a", "b", "ab")


class TestEndpoints:
    def test_healthz(self, live):
        client, _, _ = live
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["documents"] == 0

    def test_load_list_delete(self, live):
        client, _, _ = live
        book_a, _ = addressbook_documents()
        assert client.load("a", serialize(book_a)) == {"stored": "a", "kind": "xml"}
        assert client.documents() == [{"name": "a", "kind": "xml"}]
        assert client.healthz()["documents"] == 1
        assert client.delete("a") == {"deleted": "a"}
        assert client.documents() == []

    def test_query_matches_in_process_exactly(self, live):
        client, service, _ = live
        load_addressbook(client)
        for query in QUERIES:
            over_http = client.query("ab", query)
            in_process = service.query("ab", query)
            assert shape(over_http) == shape(in_process)
            assert all(
                isinstance(item.probability, Fraction) for item in over_http
            )

    def test_batch_matches_serial_queries(self, live):
        client, _, _ = live
        load_addressbook(client)
        answers = client.batch("ab", QUERIES)
        assert len(answers) == len(QUERIES)
        for query, batched in zip(QUERIES, answers):
            assert shape(batched) == shape(client.query("ab", query))

    def test_integrate_reports(self, live):
        client, _, _ = live
        book_a, book_b = addressbook_documents()
        client.load("a", serialize(book_a))
        client.load("b", serialize(book_b))
        report = client.integrate("a", "b", "ab")
        assert report["world_count"] >= 1
        assert "nodes" in report["summary"]
        assert client.documents()[0] == {"name": "a", "kind": "xml"}
        assert {"name": "ab", "kind": "pxml"} in client.documents()

    def test_feedback_conditions_the_answer(self, live):
        client, _, _ = live
        load_addressbook(client)
        before = client.query("ab", "//person/tel")
        step = client.feedback("ab", "//person/tel", "1111", correct=True)
        assert step["kind"] == "confirm"
        assert isinstance(step["prior"], Fraction)
        assert step["prior"] == before.probability_of("1111")
        after = client.query("ab", "//person/tel")
        assert after.probability_of("1111") == Fraction(1)

    def test_document_stats(self, live):
        client, service, _ = live
        load_addressbook(client)
        stats = client.document_stats("ab")
        census = service.stats("ab")
        assert stats["world_count"] == census.world_count
        assert stats["total"] == census.total

    def test_pxml_round_trip_load(self, live):
        from repro.pxml.serialize import pxml_to_text

        client, service, _ = live
        load_addressbook(client)
        text = pxml_to_text(service._module.probabilistic("ab"))
        client.load("ab2", text, kind="pxml")
        assert shape(client.query("ab2", "//person/tel")) == shape(
            client.query("ab", "//person/tel")
        )

    def test_deep_documents_are_stored_and_answer(self, live):
        client, _, _ = live
        stored = client.load("deep", nested_pxml(400), kind="pxml")
        assert stored == {"stored": "deep", "kind": "pxml"}
        assert client.query("deep", "//a").values() == []
        assert client.aggregate("deep", "count", "a") == {400: Fraction(1)}
        stored = client.load("tall", nested_xml(1200))
        assert stored == {"stored": "tall", "kind": "xml"}
        assert client.query("tall", "//a").values() == []
        assert client.aggregate("tall", "count", "a") == {1200: Fraction(1)}
        stored = client.load("deeper", nested_pxml(1000), kind="pxml")
        assert stored == {"stored": "deeper", "kind": "pxml"}
        assert client.query("deeper", "//a").values() == []
        assert client.aggregate("deeper", "count", "a") == {1000: Fraction(1)}
        # Feedback and the census on deep documents (both were a 500).
        client.load("leafy", leaf_choice_pxml(1000), kind="pxml")
        assert client.document_stats("leafy")["world_count"] == 2
        step = client.feedback("leafy", "//b", "x")
        assert step["prior"] == Fraction(1, 2)
        assert (step["worlds_before"], step["worlds_after"]) == (2, 1)
        assert client.document_stats("leafy")["world_count"] == 1
        assert client.query("leafy", "//b").values() == ["x"]
        client.load("chain", choice_chain_pxml(1200), kind="pxml")
        stats = client.document_stats("chain")
        assert (stats["choice_points"], stats["world_count"]) == (1200, 1201)
        step = client.feedback("chain", "//b", "x")
        assert step["prior"] == Fraction(1, 2**1200)
        assert (step["worlds_before"], step["worlds_after"]) == (1201, 1)
        assert client.document_stats("chain")["choice_points"] == 0

    def test_persistent_hits_over_http(self, live):
        client, _, _ = live
        load_addressbook(client)
        first = client.query("ab", "//person/tel")
        before = client.stats()
        second = client.query("ab", "//person/tel")
        after = client.stats()
        assert shape(first) == shape(second)
        assert after["persistent_hits"] == before["persistent_hits"] + 1

    def test_aggregate_matches_in_process_exactly(self, live):
        client, service, _ = live
        load_addressbook(client)
        for kind, target, text in [
            ("count", "person", None),
            ("sum", "tel", None),
            ("min", "tel", None),
            ("max", "tel", None),
            ("exists", "person", None),
            ("count", "nm", "John"),
        ]:
            over_http = client.aggregate("ab", kind, target, text=text)
            in_process = service.aggregate("ab", kind, target, text=text)
            assert over_http == in_process
            assert all(
                isinstance(p, Fraction) for p in over_http.values()
            )

    def test_aggregate_xpath_spelling_shares_the_cache_row(self, live):
        client, _, _ = live
        load_addressbook(client)
        client.aggregate("ab", "count", "person")
        before = client.stats()
        assert client.aggregate("ab", "count", "//person") == \
            client.aggregate("ab", "count", "person")
        after = client.stats()
        # Both spellings (and the repeat) were persistent hits on the
        # one row the first call stored.
        assert after["persistent_aggregate_stored"] == \
            before["persistent_aggregate_stored"]
        assert after["persistent_aggregate_hits"] >= \
            before["persistent_aggregate_hits"] + 2

    def test_aggregate_persistent_hits_over_http(self, live):
        client, _, _ = live
        load_addressbook(client)
        first = client.aggregate("ab", "sum", "tel")
        before = client.stats()
        second = client.aggregate("ab", "sum", "tel")
        after = client.stats()
        assert first == second
        assert after["persistent_aggregate_hits"] == \
            before["persistent_aggregate_hits"] + 1


class TestSearch:
    """POST /search: the dataspace-wide fan-out over the wire."""

    def test_fused_result_identical_to_in_process(self, live):
        client, service, _ = live
        load_addressbook(client)
        for kwargs in (
            {},
            {"strategy": "rrf"},
            {"strategy": "rrf", "k": 7},
            {"documents": ["a", "b"]},
            {"glob": "a*"},
            {"weights": {"ab": 3}},
            {"strategy": "rrf", "k": "15/2", "weights": {"a": "1/3"}},
        ):
            over_http = client.search("//person/tel", **kwargs)
            in_process = service.query_all(
                "//person/tel",
                names=kwargs.get("documents"),
                glob=kwargs.get("glob"),
                strategy=kwargs.get("strategy", "prob"),
                weights=kwargs.get("weights"),
                **(
                    {"rrf_k": kwargs["k"]} if "k" in kwargs else {}
                ),
            )
            # Dataclass equality: strategy, items (exact Fraction
            # scores), membership order, weights, provenance triples.
            assert over_http == in_process, kwargs

    def test_provenance_intact_over_the_wire(self, live):
        client, _, _ = live
        load_addressbook(client)
        fused = client.search("//person/tel")
        assert fused.documents == ("a", "ab", "b")
        assert sum(fused.weights.values()) == 1
        for item in fused.items:
            assert item.sources, item
            for source in item.sources:
                assert source.document in fused.documents
                assert source.rank >= 1
                assert isinstance(source.probability, Fraction)
                assert 0 < source.probability <= 1

    def test_unknown_strategy_is_400(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client.search("//person/tel", strategy="borda")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "QueryError"

    def test_empty_store_is_404(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client.search("//person/tel")
        assert excinfo.value.status == 404

    def test_unmatched_glob_is_404(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client.search("//person/tel", glob="zzz*")
        assert excinfo.value.status == 404

    def test_documents_and_glob_together_is_400(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client._request(
                "POST",
                "/search",
                {"xpath": "//x", "documents": ["a"], "glob": "a*"},
            )
        assert excinfo.value.status == 400

    def test_missing_xpath_is_400(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/search", {"glob": "*"})
        assert excinfo.value.status == 400
        assert "xpath" in str(excinfo.value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"xpath": "//x", "k": 2.5},
            {"xpath": "//x", "k": True},
            {"xpath": "//x", "strategy": "rrf", "k": "-1"},
            {"xpath": "//x", "weights": {"a": 0}},
            {"xpath": "//x", "weights": {"a": 1.5}},
            {"xpath": "//x", "weights": "heavy"},
            {"xpath": "//x", "documents": "a"},
            {"xpath": "//x", "strategy": 7},
        ],
    )
    def test_malformed_search_bodies_are_400(self, live, payload):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/search", payload)
        assert excinfo.value.status == 400


class TestErrors:
    def test_missing_document_is_404(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client.query("ghost", "//x")
        assert excinfo.value.status == 404

    def test_bad_xpath_is_400(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client.query("ab", "//[broken")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "XPathSyntaxError"

    def test_aggregate_unknown_kind_is_400(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client.aggregate("ab", "median", "tel")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "QueryError"

    def test_aggregate_missing_field_is_400(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/aggregate", {"document": "ab", "kind": "count"})
        assert excinfo.value.status == 400
        assert "target" in str(excinfo.value)

    def test_aggregate_missing_document_is_404(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client.aggregate("ghost", "count", "person")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/documents/a")
        assert excinfo.value.status == 405

    def test_invalid_json_body_is_400(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/query", raw_body=b"{not json")
        assert excinfo.value.status == 400

    def test_missing_field_is_400(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/query", {"document": "ab"})
        assert excinfo.value.status == 400
        assert "xpath" in str(excinfo.value)

    def test_mislayered_pxml_is_400(self, live):
        client, _, _ = live
        text = '<p:prob><p:poss prob="1"><a><b/></a></p:poss></p:prob>'
        with pytest.raises(ServerError) as excinfo:
            client.load("x", text, kind="pxml")
        assert excinfo.value.status == 400
        assert "children of <a> must be <p:prob>, got <b>" in str(excinfo.value)
        assert client.documents() == []

    @pytest.mark.parametrize(
        "reference", ["&#99999999999999999999;", "&#xD800;", "&# 65;", "&#1_000;"]
    )
    def test_bad_character_reference_is_400(self, live, reference):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client.load("x", f"<a>{reference}</a>")
        assert excinfo.value.status == 400
        assert f"invalid character reference {reference}" in str(excinfo.value)
        assert client.documents() == []

    def test_invalid_document_name_is_400(self, live):
        client, _, _ = live
        with pytest.raises(ServerError) as excinfo:
            client.load("bad/../name", "<r/>")
        assert excinfo.value.status in (400, 404)

    def test_cache_write_contention_is_503_and_a_replay_lands(self, tmp_path):
        """A sibling connection holds the shared cache's write lock, so
        the PUT's invalidation exhausts its busy budget: 503 cache_busy
        with Retry-After, not a 400.  Once the lock is released, a PUT
        through a replaying client succeeds, bumps the fence, and the
        query sees the new body."""
        cache = AnswerCacheStore(
            tmp_path / "cache", busy_timeout_ms=50, write_retries=2
        )
        service = DataspaceService(directory=tmp_path / "store", cache_store=cache)
        app = ServerApp(service)
        sibling = sqlite3.connect(str(cache.path), isolation_level=None)
        try:
            with BackgroundServer(app) as background:
                host, port = background.server.host, background.server.port
                with DataspaceClient(host, port, retry_503=2) as client:
                    client.load("a", "<r><x>old</x></r>")
                    assert client.query("a", "//x").values() == ["old"]
                    version = cache.version("a")
                    sibling.execute("BEGIN IMMEDIATE")
                    status, retry_after, text = client._exchange(
                        "PUT", "/documents/a", b"<r><x>new</x></r>", {}
                    )
                    assert status == 503
                    assert retry_after == "1"
                    assert json.loads(text)["error"]["type"] == "cache_busy"
                    sibling.execute("ROLLBACK")
                    client.load("a", "<r><x>new</x></r>")
                    assert cache.version("a") > version
                    assert client.query("a", "//x").values() == ["new"]
        finally:
            sibling.close()
            app.close()
            service.close()

    def test_error_does_not_kill_the_connection(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError):
            client.query("ghost", "//x")
        # Same client, same keep-alive connection, next request fine.
        assert shape(client.query("ab", "//person/nm"))


class TestDeadlines:
    def test_generous_deadline_is_invisible(self, live):
        client, _, _ = live
        load_addressbook(client)
        plain = shape(client.query("ab", "//person/tel"))
        bounded = shape(
            client.query("ab", "//person/tel", deadline_ms=60_000)
        )
        assert bounded == plain

    @pytest.mark.parametrize("bad", [0, -5, "soon", 1.5, True])
    def test_bad_deadline_ms_is_400(self, live, bad):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client._request(
                "POST",
                "/query",
                {"document": "ab", "xpath": "//person/tel",
                 "deadline_ms": bad},
            )
        assert excinfo.value.status == 400

    def test_allow_partial_must_be_boolean(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client._request(
                "POST",
                "/search",
                {"xpath": "//person/tel", "allow_partial": "yes"},
            )
        assert excinfo.value.status == 400

    def test_allow_partial_without_deadline_is_400(self, live):
        client, _, _ = live
        load_addressbook(client)
        with pytest.raises(ServerError) as excinfo:
            client.search("//person/tel", allow_partial=True)
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "QueryError"
        assert "requires a deadline" in str(excinfo.value)

    def test_partial_search_returns_the_omitted_tail(self, live):
        """A budget that runs out on the last document in name order
        returns the fusion of the others, naming the last as omitted."""
        client, service, _ = live
        load_addressbook(client)  # documents a, ab, b
        original = service.query

        def slow_last_document(name, plan, **kwargs):
            if name == "b":
                time.sleep(0.6)
            return original(name, plan, **kwargs)

        service.query = slow_last_document
        try:
            fused = client.search(
                "//person/tel", deadline_ms=300, allow_partial=True
            )
        finally:
            service.query = original
        assert fused.partial
        assert fused.omitted == ("b",)
        clean = client.search("//person/tel", documents=["a", "ab"])
        assert [(item.value, item.score) for item in fused.items] == [
            (item.value, item.score) for item in clean.items
        ]

    def test_blown_deadline_is_typed_504(self, live):
        from repro.errors import DeadlineExceededError

        client, service, _ = live
        load_addressbook(client)
        original = service.query

        def slow_query(name, plan, **kwargs):
            time.sleep(0.2)
            return original(name, plan, **kwargs)

        service.query = slow_query
        try:
            with pytest.raises(DeadlineExceededError):
                client.query("ab", "//person/tel", deadline_ms=50)
        finally:
            service.query = original
        # The 504 was a healthy HTTP exchange: the same keep-alive
        # connection keeps serving.
        assert shape(client.query("ab", "//person/tel"))


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Stdlib upstream answering 503 (with Retry-After) until its
    budget runs out, then 200 — exercising the client's replay gate
    without needing to race a real server into overload."""

    failures_left = 0
    attempts = []

    def _respond(self):
        type(self).attempts.append(self.command)
        if type(self).failures_left > 0:
            type(self).failures_left -= 1
            body = b'{"error": {"type": "overloaded", "message": "shed"}}'
            self.send_response(503)
            self.send_header("Retry-After", "0")
        else:
            body = b'{"status": "ok", "documents": 0}'
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_upstream():
    _FlakyHandler.failures_left = 0
    _FlakyHandler.attempts = []
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address
    finally:
        httpd.shutdown()
        thread.join()


class TestClient503Replay:
    def test_retry_503_replays_idempotent_requests(self, flaky_upstream):
        host, port = flaky_upstream
        _FlakyHandler.failures_left = 2
        with DataspaceClient(host, port, retry_503=2) as client:
            assert client.healthz()["status"] == "ok"
        assert _FlakyHandler.attempts == ["GET", "GET", "GET"]

    def test_retry_budget_exhausted_surfaces_the_503(self, flaky_upstream):
        host, port = flaky_upstream
        _FlakyHandler.failures_left = 5
        with DataspaceClient(host, port, retry_503=2) as client:
            with pytest.raises(ServerError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 503
        assert _FlakyHandler.attempts == ["GET", "GET", "GET"]

    def test_post_is_never_replayed(self, flaky_upstream):
        host, port = flaky_upstream
        _FlakyHandler.failures_left = 5
        with DataspaceClient(host, port, retry_503=3) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("a", "//x")
        assert excinfo.value.status == 503
        assert _FlakyHandler.attempts == ["POST"]

    def test_retry_disabled_by_default(self, flaky_upstream):
        host, port = flaky_upstream
        _FlakyHandler.failures_left = 1
        with DataspaceClient(host, port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 503
        assert _FlakyHandler.attempts == ["GET"]

    def test_retry_delay_honors_and_caps_the_hint(self):
        from repro.server.client import RETRY_AFTER_CAP

        delay = DataspaceClient._retry_delay
        assert delay("2") == 2.0
        assert delay("0") == 0.0
        assert delay("9999") == RETRY_AFTER_CAP
        assert delay(None) == 0.1
        assert delay("soon") == 0.1
        assert delay("-3") == 0.0

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            DataspaceClient("127.0.0.1", 1, retry_503=-1)


class TestProtocol:
    def test_pipelined_requests_answered_in_order(self, live):
        """Two requests written back-to-back before reading a byte come
        back in order on one connection — HTTP/1.1 pipelining."""
        client, _, _ = live
        load_addressbook(client)
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            request = (
                "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                "GET /documents HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            sock.sendall(request.encode())
            blob = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                blob += chunk
        text = blob.decode()
        assert text.count("HTTP/1.1 200") == 2
        assert text.index('"status"') < text.index('"documents": [')

    def test_oversized_header_rejected(self, live):
        client, _, _ = live
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nX-Big: " + b"a" * (80 * 1024))
            blob = sock.recv(65536)
        assert b"431" in blob.split(b"\r\n", 1)[0]

    def test_malformed_request_line_rejected(self, live):
        client, _, _ = live
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            blob = sock.recv(65536)
        assert b"400" in blob.split(b"\r\n", 1)[0]

    def test_silent_connection_reaped_by_idle_timeout(self, service):
        """A client that connects and sends nothing (or a header drip)
        cannot park a server task forever: the idle timeout closes it
        with a best-effort 408."""
        app = ServerApp(service)
        background = BackgroundServer(app)
        background.server.idle_timeout = 0.3
        with background:
            host, port = background.server.host, background.server.port
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finished
                sock.settimeout(10)
                blob = sock.recv(65536)
                assert b"408" in blob.split(b"\r\n", 1)[0]
                assert sock.recv(65536) == b""  # server closed the socket
        app.close()

    def test_duplicate_content_length_rejected(self, live):
        """Conflicting Content-Length headers are a request-smuggling
        vector (RFC 7230 §3.3.2): 400, never last-wins."""
        client, _, _ = live
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 10\r\nContent-Length: 0\r\n\r\n"
                b"0123456789"
            )
            blob = sock.recv(65536)
        assert b"400" in blob.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize(
        "headers,status",
        [
            (b"Transfer-Encoding: chunked\r\n", b"501"),
            (b"Transfer-Encoding: gzip\r\n", b"501"),
            (b"Transfer-Encoding: chunked\r\nTransfer-Encoding: identity\r\n",
             b"400"),
        ],
    )
    def test_transfer_encoding_rejected(self, live, headers, status):
        """Any Transfer-Encoding is refused outright — an unread encoded
        body would desync the connection (smuggling vector)."""
        client, _, _ = live
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n")
            blob = sock.recv(65536)
        assert status in blob.split(b"\r\n", 1)[0]

    def test_idle_between_requests_closes_silently(self, service):
        """No 408 lands on a connection idle *between* requests — a
        keep-alive client would misread it as its next response."""
        app = ServerApp(service)
        background = BackgroundServer(app)
        background.server.idle_timeout = 0.3
        with background:
            host, port = background.server.host, background.server.port
            client = DataspaceClient(host, port)
            assert client.healthz()["status"] == "ok"
            time.sleep(1.0)  # idle past the timeout, zero bytes sent
            # The server closed silently; the client reconnects (GET is
            # safe to replay) and the request succeeds — no stale 408.
            assert client.healthz()["status"] == "ok"
            client.close()
        app.close()

    def test_duplicate_query_params_first_wins(self, live):
        client, service, _ = live
        book_a, _ = addressbook_documents()
        from repro.pxml.build import certain_document
        from repro.pxml.serialize import pxml_to_text

        text = pxml_to_text(certain_document(book_a))
        client._request(
            "PUT", "/documents/dup?kind=pxml&kind=xml", raw_body=text.encode()
        )
        assert {"name": "dup", "kind": "pxml"} in client.documents()


class TestStatsSurfacesAgree:
    def test_http_stats_is_the_service_dict(self, live):
        """GET /stats must serve exactly DataspaceService.cache_stats()
        — the shared code path with `imprecise serve --cache-stats` —
        plus the HTTP-front-only "http" metrics section."""
        client, service, _ = live
        load_addressbook(client)
        client.query("ab", "//person/tel")
        client.query("ab", "//person/tel")
        over_http = client.stats()
        in_process = service.cache_stats()
        assert "http" in over_http  # front-only section, not in cache_stats
        assert {k: v for k, v in over_http.items() if k != "http"} == in_process

    def test_cli_rendering_parses_back_to_the_same_counters(self, live):
        """format_cache_stats (what --cache-stats and the `cache-stats`
        protocol command print) renders the same dict GET /stats serves:
        parse the lines back and compare key for key."""
        client, service, _ = live
        load_addressbook(client)
        client.query("ab", "//person/nm")
        over_http = client.stats()
        rendered = format_cache_stats(service.cache_stats())
        parsed = {}
        for line in rendered.splitlines():
            key, _, value = line.partition(": ")
            parsed[key] = int(value.replace(",", ""))
        assert parsed == {k: v for k, v in over_http.items() if k != "http"}
        for counter in ("persistent_hits", "persistent_misses",
                        "persistent_evictions"):
            assert counter in parsed


def build_soak_schedules():
    """Deterministic per-thread op schedules.  Each thread owns its
    private output documents (so mutations cannot interact across
    threads) and also queries the shared immutable ``base`` document —
    mixed reads and writes, replayable serially."""
    schedules = []
    for thread in range(SOAK_THREADS):
        ops = []
        private = f"out{thread}"
        ops.append(("integrate", "a", "b", private))
        for index in range(SOAK_REQUESTS):
            kind = index % 4
            if kind == 0:
                ops.append(("query", "base", QUERIES[index % len(QUERIES)]))
            elif kind == 1:
                ops.append(("query", private, QUERIES[index % len(QUERIES)]))
            elif kind == 2:
                ops.append(("feedback", private, "//person/tel", "1111"))
            else:
                ops.append(("batch", "base", QUERIES))
        schedules.append(ops)
    return schedules


def run_schedule_http(client, ops):
    results = []
    for op in ops:
        if op[0] == "query":
            results.append(shape(client.query(op[1], op[2])))
        elif op[0] == "batch":
            results.append([shape(a) for a in client.batch(op[1], op[2])])
        elif op[0] == "feedback":
            step = client.feedback(op[1], op[2], op[3], correct=True)
            results.append((step["kind"], step["prior"], step["worlds_after"]))
        elif op[0] == "integrate":
            report = client.integrate(op[1], op[2], op[3])
            results.append((report["total_nodes"], report["world_count"]))
    return results


def run_schedule_serial(service, ops):
    from repro.experiments import standard_rules

    results = []
    for op in ops:
        if op[0] == "query":
            results.append(shape(service.query(op[1], op[2])))
        elif op[0] == "batch":
            results.append([shape(a) for a in service.run_batch(op[1], op[2])])
        elif op[0] == "feedback":
            step = service.feedback(op[1], op[2], op[3], correct=True)
            results.append((step.kind, step.prior, step.worlds_after))
        elif op[0] == "integrate":
            report = service.integrate(
                op[1], op[2], op[3], rules=standard_rules()
            )
            results.append((report.total_nodes, report.world_count))
    return results


def populate_soak(service):
    book_a, book_b = addressbook_documents()
    service.load_document("a", book_a)
    service.load_document("b", book_b)
    from repro.experiments import standard_rules

    service.integrate("a", "b", "base", rules=standard_rules())


class TestConcurrencySoak:
    def test_soak_matches_serial_and_terminates(self, tmp_path):
        """Acceptance: N threads × M mixed requests against one live
        server are Fraction-identical to a serial in-process replay and
        finish within the timeout (deadlock guard)."""
        schedules = build_soak_schedules()

        # Serial reference over its own store (no server involved).
        with DataspaceService(
            directory=tmp_path / "serial-store", cache_dir=tmp_path / "serial-cache"
        ) as serial_service:
            populate_soak(serial_service)
            expected = [
                run_schedule_serial(serial_service, ops) for ops in schedules
            ]

        # Live server over a separate, identically-populated store.
        with DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        ) as service:
            populate_soak(service)
            app = ServerApp(service)
            with BackgroundServer(app) as background:
                host, port = background.server.host, background.server.port

                def worker(ops):
                    # One client (one connection) per thread.
                    with DataspaceClient(host, port, timeout=SOAK_TIMEOUT) as client:
                        return run_schedule_http(client, ops)

                start = time.monotonic()
                with ThreadPoolExecutor(max_workers=SOAK_THREADS) as pool:
                    futures = [pool.submit(worker, ops) for ops in schedules]
                    actual = [
                        future.result(timeout=SOAK_TIMEOUT) for future in futures
                    ]
                elapsed = time.monotonic() - start
            app.close()

        assert elapsed < SOAK_TIMEOUT
        assert actual == expected


class ServerProcess:
    """An ``imprecise serve --http`` subprocess bound to an ephemeral
    port (parsed from its startup line)."""

    def __init__(self, store: Path, cache: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(store),
                "--cache-dir", str(cache), "--http", "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline().strip()
        assert line.startswith("serving on http://"), (
            line or self.proc.stderr.read()
        )
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc.poll() is None:
            self.stop()


class TestSequentialServerProcesses:
    def test_second_process_serves_warm_fraction_identical(self, tmp_path):
        """The PR's acceptance end-to-end, entirely over HTTP: process
        one integrates and prices a workload; process two (same
        --cache-dir) serves the identical Fractions with persistent
        hits > 0 and no engine ever built."""
        store, cache = tmp_path / "store", tmp_path / "cache"
        book_a, book_b = addressbook_documents()

        aggregates = [("count", "person"), ("sum", "tel"), ("min", "tel")]

        with ServerProcess(store, cache) as first:
            client = DataspaceClient("127.0.0.1", first.port)
            client.load("a", serialize(book_a))
            client.load("b", serialize(book_b))
            client.integrate("a", "b", "ab")
            cold = {query: shape(client.query("ab", query)) for query in QUERIES}
            cold_aggregates = {
                spec: sorted(
                    client.aggregate("ab", *spec).items(),
                    key=lambda item: (item[0] is not None, item[0] or 0),
                )
                for spec in aggregates
            }
            cold_stats = client.stats()
            client.close()
            assert first.stop() == 0
        assert cold_stats["persistent_stored"] == len(QUERIES)
        assert cold_stats["persistent_aggregate_stored"] == len(aggregates)

        with ServerProcess(store, cache) as second:
            client = DataspaceClient("127.0.0.1", second.port)
            warm = {query: shape(client.query("ab", query)) for query in QUERIES}
            warm_aggregates = {
                spec: sorted(
                    client.aggregate("ab", *spec).items(),
                    key=lambda item: (item[0] is not None, item[0] or 0),
                )
                for spec in aggregates
            }
            warm_stats = client.stats()
            client.close()
            assert second.stop() == 0

        assert warm == cold  # Fraction-identical across processes
        assert warm_aggregates == cold_aggregates
        assert warm_stats["persistent_hits"] >= len(QUERIES)
        assert warm_stats["persistent_stored"] == 0
        assert warm_stats["persistent_aggregate_hits"] >= len(aggregates)
        assert warm_stats["persistent_aggregate_stored"] == 0
        assert warm_stats["engines"] == 0  # answers came straight from disk

    def test_graceful_shutdown_exits_zero(self, tmp_path):
        with ServerProcess(tmp_path / "store", tmp_path / "cache") as server:
            client = DataspaceClient("127.0.0.1", server.port)
            assert client.healthz()["status"] == "ok"
            client.close()
            assert server.stop() == 0
