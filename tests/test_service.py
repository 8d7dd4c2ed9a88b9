"""Tests for the concurrent, cache-persistent dataspace service."""

import gc
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.dbms.service import DataspaceService
from repro.dbms.store import DocumentStore
from repro.errors import FeedbackError, StoreError
from repro.pxml.events_cache import registered_count
from repro.query.engine import ProbQueryEngine
from repro.xmlkit import parse_document

RULES = [DeepEqualRule(), LeafValueRule()]
WORKLOAD = [
    "//person/tel",
    "//person/nm",
    '//person[nm="John"]/tel',
    "//person",
]


def stored_bytes(directory):
    """Every file under ``directory``, as ``{relative path: bytes}``."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def shape(answer):
    return [(item.value, item.probability, item.occurrences) for item in answer]


def shape_fused(fused):
    """Full comparable form of a FusedAnswer: strategy, membership,
    and every item with its exact score and provenance triples."""
    return (
        fused.strategy,
        fused.documents,
        tuple(sorted(fused.weights.items())),
        tuple(
            (
                item.value,
                item.score,
                tuple(
                    (source.document, source.rank, source.probability)
                    for source in item.sources
                ),
            )
            for item in fused.items
        ),
    )


@pytest.fixture
def integrated(tmp_path):
    """A persistent service with an integrated addressbook stored as 'ab'."""
    service = DataspaceService(
        directory=tmp_path / "store", cache_dir=tmp_path / "cache"
    )
    book_a, book_b = addressbook_documents()
    service.load_document("a", book_a)
    service.load_document("b", book_b)
    service.integrate("a", "b", "ab", rules=RULES, dtd=ADDRESSBOOK_DTD)
    yield service, tmp_path
    service.close()


class TestQuerying:
    def test_matches_direct_engine(self, integrated):
        service, _ = integrated
        direct = ProbQueryEngine(service._module.probabilistic("ab"))
        for query in WORKLOAD:
            assert shape(service.query("ab", query)) == shape(direct.query(query))

    def test_plain_documents_query_as_certain(self, integrated):
        service, _ = integrated
        answer = service.query("a", "//person/nm")
        assert answer.probability_of("John") == Fraction(1)

    def test_run_batch_matches_serial(self, integrated):
        service, _ = integrated
        batch = service.run_batch("ab", WORKLOAD)
        for query, answer in zip(WORKLOAD, batch):
            assert shape(answer) == shape(service.query("ab", query))

    def test_missing_document_raises(self, integrated):
        service, _ = integrated
        with pytest.raises(StoreError):
            service.query("nope", "//x")


class TestPersistence:
    def test_warm_restart_serves_identical_fractions(self, integrated):
        service, tmp_path = integrated
        cold = [shape(service.query("ab", q)) for q in WORKLOAD]
        service.close()
        with DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        ) as warm:
            warm_answers = [shape(warm.query("ab", q)) for q in WORKLOAD]
            assert warm_answers == cold
            stats = warm.cache_stats()
            assert stats["persistent_hits"] == len(WORKLOAD)
            # Served straight from disk: no engine was ever built.
            assert stats["engines"] == 0

    def test_no_cache_dir_still_works(self, tmp_path):
        with DataspaceService(directory=tmp_path / "store") as service:
            service.load("doc", "<r><x>1</x></r>")
            assert service.query("doc", "//x").values() == ["1"]
            assert "persistent_hits" not in service.cache_stats()

    def test_reload_invalidates(self, integrated):
        """Replacing a document's content must never serve the old answer."""
        service, _ = integrated
        service.load("solo", "<r><x>old</x></r>")
        assert service.query("solo", "//x").values() == ["old"]
        service.load("solo", "<r><x>new</x></r>")
        assert service.query("solo", "//x").values() == ["new"]

    def test_feedback_invalidates_and_conditions(self, integrated):
        service, _ = integrated
        before = service.query("ab", "//person/tel")
        assert before.probability_of("1111") == Fraction(3, 4)
        service.feedback("ab", "//person/tel", "1111", correct=True)
        after = service.query("ab", "//person/tel")
        assert after.probability_of("1111") == Fraction(1)

    def test_delete_removes_answers(self, integrated):
        service, _ = integrated
        service.query("ab", "//person/tel")
        service.delete("ab")
        assert "ab" not in service.store
        assert service.cache.version("ab") >= 1

    def test_reintegration_repriced(self, integrated):
        service, _ = integrated
        first = service.query("ab", "//person/tel")
        # Re-integrate over a changed source: same output name, new content.
        service.load(
            "b", "<addressbook><person><nm>John</nm><tel>9999</tel></person>"
            "</addressbook>"
        )
        service.integrate("a", "b", "ab", rules=RULES, dtd=ADDRESSBOOK_DTD)
        second = service.query("ab", "//person/tel")
        assert shape(first) != shape(second)
        assert second.probability_of("9999") > 0


class TestConcurrency:
    @pytest.mark.parametrize("threads", [4, 8])
    def test_concurrent_queries_match_serial(self, integrated, threads):
        service, _ = integrated
        serial = {query: shape(service.query("ab", query)) for query in WORKLOAD}
        service.cache.clear()  # force concurrent re-evaluation
        with service._mu:
            service._engines.clear()

        errors = []
        barrier = threading.Barrier(threads)

        def worker(_):
            try:
                barrier.wait(timeout=30)
                out = {}
                for query in WORKLOAD:
                    out[query] = shape(service.query("ab", query))
                return out
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
                raise

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(threads)))
        assert not errors
        for result in results:
            assert result == serial

    def test_concurrent_mixed_documents(self, integrated):
        service, _ = integrated
        service.load("other", "<r><x>1</x><x>2</x></r>")
        expected = {
            "ab": shape(service.query("ab", "//person/tel")),
            "other": shape(service.query("other", "//x")),
        }
        service.cache.clear()
        with service._mu:
            service._engines.clear()

        def worker(index):
            name = "ab" if index % 2 == 0 else "other"
            query = "//person/tel" if name == "ab" else "//x"
            return name, shape(service.query(name, query))

        with ThreadPoolExecutor(max_workers=6) as pool:
            for name, result in pool.map(worker, range(12)):
                assert result == expected[name]


class TestStoreLRU:
    def test_eviction_bounds_materialized_documents(self, tmp_path):
        store = DocumentStore(tmp_path, max_cached=2)
        service = DataspaceService(store=store)
        for index in range(5):
            service.load(f"doc{index}", f"<r><x>{index}</x></r>")
        assert store.cached_count() <= 2
        # Evicted documents transparently reload — and still answer.
        assert service.query("doc0", "//x").values() == ["0"]

    def test_eviction_releases_event_caches(self, tmp_path):
        store = DocumentStore(tmp_path, max_cached=1)
        before = registered_count()
        for index in range(4):
            service = DataspaceService(store=store)
            service.load(f"doc{index}", f"<r><x>{index}</x></r>")
            service.query(f"doc{index}", "//x")  # registers an event cache
            del service
        gc.collect()
        # All but the one still-materialized document's cache are gone.
        assert registered_count() <= before + 1

    def test_constructor_rejects_bad_bound(self, tmp_path):
        with pytest.raises(StoreError):
            DocumentStore(tmp_path, max_cached=0)

    def test_conflicting_constructor_arguments(self, tmp_path):
        with pytest.raises(StoreError):
            DataspaceService(store=DocumentStore(), directory=tmp_path)


class TestReviewRegressions:
    def test_external_file_digest_order_independent(self, tmp_path):
        """An externally-authored (non-canonically-serialized) file must
        digest identically whether or not it was materialized first —
        otherwise warm restarts key the persistent cache differently."""
        (tmp_path / "ext.xml").write_text(
            "<r>\n  <x>1</x>\n</r>", encoding="utf-8"
        )
        cold = DocumentStore(tmp_path).digest("ext")
        warm_store = DocumentStore(tmp_path)
        warm_store.get("ext")  # materialize first
        assert warm_store.digest("ext") == cold

    def test_kind_does_not_parse(self, tmp_path):
        store = DocumentStore(tmp_path)
        store.put("doc", __import__("repro").parse_document("<r/>"))
        fresh = DocumentStore(tmp_path)
        assert fresh.kind("doc") == "xml"
        assert fresh.cached_count() == 0

    def test_engine_map_respects_lru_bound(self, tmp_path):
        service = DataspaceService(
            directory=tmp_path / "store", max_cached_documents=2
        )
        for index in range(6):
            service.load(f"doc{index}", f"<r><x>{index}</x></r>")
            service.query(f"doc{index}", "//x")
        assert len(service._engines) <= 2
        assert service.store.cached_count() <= 2

    def test_cold_query_counts_one_miss(self, integrated):
        service, _ = integrated
        before = service.cache.misses
        service.query("ab", "//person/nm")
        assert service.cache.misses == before + 1
        before_hits = service.cache.hits
        service.query("ab", "//person/nm")
        assert service.cache.hits == before_hits + 1


class TestAggregates:
    def test_aggregate_matches_direct_computation(self, integrated):
        from repro.query.aggregates import aggregate_distribution

        service, _ = integrated
        document = service._module.probabilistic("ab")
        for kind, target, text in [
            ("count", "person", None),
            ("sum", "tel", None),
            ("min", "tel", None),
            ("max", "tel", None),
            ("exists", "person", None),
            ("count", "nm", "John"),
        ]:
            assert service.aggregate("ab", kind, target, text=text) == \
                aggregate_distribution(document, kind, target, text=text)

    def test_warm_restart_serves_aggregates_without_engine(self, integrated):
        service, tmp_path = integrated
        cold = service.aggregate("ab", "sum", "tel")
        service.close()
        with DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        ) as warm:
            assert warm.aggregate("ab", "sum", "tel") == cold
            stats = warm.cache_stats()
            assert stats["persistent_aggregate_hits"] == 1
            assert stats["engines"] == 0

    def test_spec_with_target_or_text_rejected(self, integrated):
        from repro.errors import QueryError
        from repro.query.aggregates import compile_aggregate

        service, _ = integrated
        spec = compile_aggregate("count", "nm")
        with pytest.raises(QueryError):
            service.aggregate("ab", spec, text="John")
        with pytest.raises(QueryError):
            service.aggregate("ab", spec, "nm")
        # The spec alone is fine.
        assert sum(service.aggregate("ab", spec).values()) == Fraction(1)

    def test_mutation_invalidates_aggregates(self, integrated):
        service, _ = integrated
        service.load("nums", "<r><p>1</p><p>2</p></r>")
        assert service.aggregate("nums", "sum", "p") == {3: Fraction(1)}
        service.load("nums", "<r><p>7</p></r>")
        assert service.aggregate("nums", "sum", "p") == {7: Fraction(1)}

    def test_feedback_invalidates_aggregates(self, integrated):
        from repro.query.aggregates import aggregate_distribution

        service, _ = integrated
        service.aggregate("ab", "count", "tel")
        stored_before = service.cache.aggregate_stored
        service.feedback("ab", "//person/tel", "1111", correct=True)
        after = service.aggregate("ab", "count", "tel")
        # The row was dropped with the prior document: the posterior
        # distribution was recomputed (stored again), not served stale.
        assert service.cache.aggregate_stored == stored_before + 1
        assert sum(after.values()) == Fraction(1)
        assert after == aggregate_distribution(
            service._module.probabilistic("ab"), "count", "tel"
        )


#: Mixed-op soak matrix — CI reduces it via the same env vars the HTTP
#: soak uses; a deep local run can crank it up.
SOAK_THREADS = int(os.environ.get("SOAK_THREADS", "6"))
SOAK_REQUESTS = int(os.environ.get("SOAK_REQUESTS", "8"))
SOAK_TIMEOUT = float(os.environ.get("SOAK_TIMEOUT", "120"))

SOAK_AGGREGATES = [
    ("count", "person", None),
    ("sum", "tel", None),
    ("min", "tel", None),
    ("exists", "nm", "John"),
]


def build_service_soak_schedules():
    """Deterministic per-thread schedules mixing queries, fan-outs
    (``query_all``), aggregates and feedback.  Each thread owns its
    private output document (mutations cannot interact across threads)
    and also reads the shared immutable ``base`` document; fan-outs span
    only ``{private, base}`` so the fused result is a pure function of
    the thread's own schedule position — replayable serially."""
    schedules = []
    for thread in range(SOAK_THREADS):
        ops = []
        private = f"out{thread}"
        ops.append(("integrate", "a", "b", private))
        for index in range(SOAK_REQUESTS):
            kind = index % 6
            if kind == 0:
                ops.append(("query", "base", WORKLOAD[index % len(WORKLOAD)]))
            elif kind == 1:
                agg = SOAK_AGGREGATES[index % len(SOAK_AGGREGATES)]
                ops.append(("aggregate", "base") + agg)
            elif kind == 2:
                agg = SOAK_AGGREGATES[(index + thread) % len(SOAK_AGGREGATES)]
                ops.append(("aggregate", private) + agg)
            elif kind == 3:
                ops.append(("feedback", private, "//person/tel", "1111"))
            elif kind == 4:
                ops.append(("query", private, WORKLOAD[index % len(WORKLOAD)]))
            else:
                strategy = "prob" if (index + thread) % 2 == 0 else "rrf"
                ops.append((
                    "query_all",
                    (private, "base"),
                    WORKLOAD[(index + thread) % len(WORKLOAD)],
                    strategy,
                ))
        schedules.append(ops)
    return schedules


def run_service_schedule(service, ops):
    from repro.experiments import standard_rules

    results = []
    for op in ops:
        if op[0] == "query":
            results.append(shape(service.query(op[1], op[2])))
        elif op[0] == "aggregate":
            distribution = service.aggregate(op[1], op[2], op[3], text=op[4])
            results.append(sorted(
                distribution.items(),
                key=lambda item: (item[0] is not None, item[0] or 0),
            ))
        elif op[0] == "query_all":
            fused = service.query_all(
                op[2], names=list(op[1]), strategy=op[3]
            )
            results.append(shape_fused(fused))
        elif op[0] == "feedback":
            step = service.feedback(op[1], op[2], op[3], correct=True)
            results.append((step.kind, step.prior, step.worlds_after))
        elif op[0] == "integrate":
            report = service.integrate(op[1], op[2], op[3], rules=standard_rules())
            results.append((report.total_nodes, report.world_count))
    return results


def populate_service_soak(service):
    book_a, book_b = addressbook_documents()
    service.load_document("a", book_a)
    service.load_document("b", book_b)
    from repro.experiments import standard_rules

    service.integrate("a", "b", "base", rules=standard_rules())


class TestMixedSoak:
    def test_mixed_query_aggregate_feedback_matches_serial(self, tmp_path):
        """Acceptance (ISSUE 5, extended by ISSUE 7): N threads of mixed
        query/query_all/aggregate/feedback traffic against one
        persistent service are identical — Fraction for Fraction, key
        for key, provenance triple for provenance triple — to a serial
        replay of the same schedules, inside a hard timeout (deadlock
        guard)."""
        schedules = build_service_soak_schedules()

        # Serial reference over its own store.
        with DataspaceService(
            directory=tmp_path / "serial-store",
            cache_dir=tmp_path / "serial-cache",
        ) as serial_service:
            populate_service_soak(serial_service)
            expected = [
                run_service_schedule(serial_service, ops) for ops in schedules
            ]

        # Concurrent run over a separate, identically-populated store.
        with DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        ) as service:
            populate_service_soak(service)
            start = time.monotonic()
            with ThreadPoolExecutor(max_workers=SOAK_THREADS) as pool:
                futures = [
                    pool.submit(run_service_schedule, service, ops)
                    for ops in schedules
                ]
                actual = [
                    future.result(timeout=SOAK_TIMEOUT) for future in futures
                ]
            elapsed = time.monotonic() - start

        assert elapsed < SOAK_TIMEOUT
        assert actual == expected


class TestCrossProcessFence:
    """Two service instances sharing one store directory and one cache
    file — the in-process stand-in for two `serve --http` workers.  The
    per-name cache version is the fence: a mutation through one instance
    must be observed by the other instead of served from its stale
    materialization (ISSUE 8 tentpole)."""

    def two_services(self, tmp_path):
        first = DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        )
        second = DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        )
        return first, second

    def test_sibling_mutation_is_observed(self, tmp_path):
        first, second = self.two_services(tmp_path)
        try:
            first.load("d", "<r><x>old</x></r>")
            assert first.query("d", "//x").values() == ["old"]
            # Warm the *second* instance's in-memory state on the old
            # content: materialization, digest memo, engine.
            assert second.query("d", "//x").values() == ["old"]
            # Mutate through the first instance only.
            first.load("d", "<r><x>new</x></r>")
            assert first.query("d", "//x").values() == ["new"]
            # Without the fence the second instance would re-serve "old"
            # from its stale materialized document and digest.
            assert second.query("d", "//x").values() == ["new"]
        finally:
            first.close()
            second.close()

    def test_sibling_feedback_is_observed(self, tmp_path):
        first, second = self.two_services(tmp_path)
        try:
            book_a, book_b = addressbook_documents()
            first.load_document("a", book_a)
            first.load_document("b", book_b)
            first.integrate("a", "b", "ab", rules=RULES, dtd=ADDRESSBOOK_DTD)
            warm_before = second.query("ab", "//person/tel")
            first.feedback("ab", "//person/tel", "1111")
            after_first = second.query("ab", "//person/tel")
            assert shape(after_first) == shape(first.query("ab", "//person/tel"))
            assert shape(after_first) != shape(warm_before)
        finally:
            first.close()
            second.close()

    def test_aggregates_cross_the_fence(self, tmp_path):
        first, second = self.two_services(tmp_path)
        try:
            first.load("d", "<r><p>1</p><p>2</p></r>")
            assert second.aggregate("d", "count", "p") == {2: Fraction(1)}
            first.load("d", "<r><p>1</p><p>2</p><p>3</p></r>")
            assert second.aggregate("d", "count", "p") == {3: Fraction(1)}
        finally:
            first.close()
            second.close()

    def test_feedback_sees_the_siblings_write(self, tmp_path):
        """Feedback conditions the document on disk, not a stale copy:
        a sibling replaced the integrated 'ab' with one in which 1111
        is not a possible tel, so feedback refuses and the sibling's
        file survives instead of being overwritten by a posterior of
        the old document."""
        one, two = self.two_services(tmp_path)
        try:
            book_a, book_b = addressbook_documents()
            one.load_document("a", book_a)
            one.load_document("b", book_b)
            one.integrate("a", "b", "ab", rules=RULES, dtd=ADDRESSBOOK_DTD)
            assert "1111" in one.query("ab", "//person/tel").values()
            two.load("ab", "<r><person><tel>3333</tel></person></r>")
            on_disk = stored_bytes(tmp_path / "store")
            with pytest.raises(FeedbackError, match="not a possible answer"):
                one.feedback("ab", "//person/tel", "1111")
            assert stored_bytes(tmp_path / "store") == on_disk
            assert one.query("ab", "//person/tel").values() == ["3333"]
        finally:
            one.close()
            two.close()

    def test_integration_reads_the_current_source(self, tmp_path):
        one, two = self.two_services(tmp_path)
        try:
            book_a, book_b = addressbook_documents()
            one.load_document("a", book_a)
            one.load_document("b", book_b)
            one.integrate("a", "b", "ab", rules=RULES, dtd=ADDRESSBOOK_DTD)
            new_a, _ = addressbook_documents([("John", "3333")])
            two.load_document("a", new_a)
            one.integrate("a", "b", "ab2", rules=RULES, dtd=ADDRESSBOOK_DTD)
            tels = one.query("ab2", "//person/tel").values()
            assert "3333" in tels and "1111" not in tels
        finally:
            one.close()
            two.close()

    def test_stats_count_the_siblings_write(self, tmp_path):
        one, two = self.two_services(tmp_path)
        try:
            one.load("d", "<r><x>1</x></r>")
            before = one.stats("d")
            two.load("d", "<r><x>1</x><x>2</x><x>3</x></r>")
            after = two.stats("d")
            assert after != before
            assert one.stats("d") == after
        finally:
            one.close()
            two.close()

    def test_own_mutations_do_not_refresh(self, tmp_path):
        """The fence must not tax the single-process fast path: a
        service observing only its own mutations never drops its
        materialization (refresh would force a reparse per query)."""
        service = DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        )
        try:
            service.load("d", "<r><x>1</x></r>")
            service.query("d", "//x")
            materialized = service.store.get("d")
            service.query("d", "//x")
            assert service.store.get("d") is materialized
        finally:
            service.close()

    def test_fence_noop_without_cache(self, tmp_path):
        service = DataspaceService(directory=tmp_path / "store")
        try:
            service.load("d", "<r><x>1</x></r>")
            assert service.query("d", "//x").values() == ["1"]
        finally:
            service.close()


class TestFanoutErrorContainment:
    """query_all/aggregate_all on a failing corpus: the first error (in
    pinned name order) surfaces at once and no later document is
    priced."""

    def corpus(self, tmp_path):
        service = DataspaceService(directory=tmp_path / "store")
        for name in ("a", "b", "c", "d"):
            service.load(name, f"<r><x>{name}</x></r>")
        return service

    def test_missing_document_mid_corpus(self, tmp_path):
        """A document that vanishes between membership resolution and
        pricing (deleted by a sibling) fails its query; the fan-out
        surfaces that MissingDocumentError."""
        from repro.errors import MissingDocumentError

        service = self.corpus(tmp_path)
        try:
            original = DataspaceService.query
            def flaky(self_, name, plan):
                if name == "b":
                    raise MissingDocumentError("no document named 'b'")
                return original(self_, name, plan)
            service.query = flaky.__get__(service)
            with pytest.raises(MissingDocumentError):
                service.query_all("//x")
        finally:
            service.close()

    def test_no_document_after_the_first_failure_is_priced(
        self, tmp_path, monkeypatch
    ):
        """The fan-out prices on the calling thread: once a document
        fails, no later one is priced, and no fan-out — failing or
        not — starts a thread or leaves one behind."""
        from repro.errors import MissingDocumentError

        service = self.corpus(tmp_path)
        priced = []
        started = []
        start = threading.Thread.start
        caller = threading.get_ident()

        def record_start(thread):
            if threading.get_ident() == caller:
                started.append(thread.name)
            start(thread)

        try:
            original = DataspaceService.query
            def flaky(self_, name, plan):
                priced.append(name)
                if name == "b":
                    raise MissingDocumentError("no document named 'b'")
                return original(self_, name, plan)
            service.query = flaky.__get__(service)
            monkeypatch.setattr(threading.Thread, "start", record_start)
            threads = threading.active_count()
            with pytest.raises(MissingDocumentError):
                service.query_all("//x")
            assert priced == ["a", "b"]
            assert threading.active_count() == threads
            assert service.query_all("//x", names=["c", "d"]).values() == [
                "c", "d"
            ]
            assert service.aggregate_all("count", "x") == {1: Fraction(1)}
            assert threading.active_count() == threads
            assert started == []
        finally:
            service.close()

    def test_first_error_in_name_order_wins(self, tmp_path):
        """Two failures: the surfaced error is deterministically the
        first failing *name*."""
        from repro.errors import MissingDocumentError, QueryError

        service = self.corpus(tmp_path)
        try:
            original = DataspaceService.query
            def flaky(self_, name, plan):
                if name == "b":
                    time.sleep(0.2)  # fails *later* in wall-clock time
                    raise MissingDocumentError("no document named 'b'")
                if name == "c":
                    raise QueryError("c exploded first")
                return original(self_, name, plan)
            service.query = flaky.__get__(service)
            with pytest.raises(MissingDocumentError):
                service.query_all("//x")
        finally:
            service.close()

    def test_aggregate_all_contains_errors_too(self, tmp_path):
        from repro.errors import QueryError

        service = self.corpus(tmp_path)
        try:
            original = DataspaceService.aggregate
            def flaky(self_, name, spec, target=None, *, text=None):
                if name == "c":
                    raise QueryError("boom")
                return original(self_, name, spec, target, text=text)
            service.aggregate = flaky.__get__(service)
            with pytest.raises(QueryError):
                service.aggregate_all("count", "x")
        finally:
            service.close()


class TestCloseLifecycle:
    """close() releases the persistent cache; every later call that
    needs it fails with the typed StoreError, never a raw sqlite3
    error."""

    def cached(self, tmp_path):
        service = DataspaceService(
            directory=tmp_path / "store", cache_dir=tmp_path / "cache"
        )
        service.load("d", "<r><x>1</x></r>")
        return service

    def test_close_is_idempotent(self, tmp_path):
        service = self.cached(tmp_path)
        service.query_all("//x")
        service.close()
        service.close()  # second close: no error

    def test_fanout_after_close_raises(self, tmp_path):
        service = self.cached(tmp_path)
        service.query_all("//x")
        service.close()
        with pytest.raises(StoreError, match="closed"):
            service.query_all("//x")
        with pytest.raises(StoreError, match="closed"):
            service.aggregate_all("count", "x")

    def test_close_before_any_fanout(self, tmp_path):
        service = self.cached(tmp_path)
        service.close()
        with pytest.raises(StoreError, match="closed"):
            service.query_all("//x")

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.query("d", "//x"),
            lambda s: s.aggregate("d", "count", "x"),
            lambda s: s.load("e", "<r/>"),
            lambda s: s.cache_stats(),
            lambda s: s.run_batch("d", ["//x"]),
            lambda s: s.load_document("e", parse_document("<r/>")),
            lambda s: s.delete("d"),
            lambda s: s.integrate("d", "d", "e"),
            lambda s: s.feedback("d", "//x", "1"),
        ],
        ids=[
            "query", "aggregate", "load", "cache_stats", "run_batch",
            "load_document", "delete", "integrate", "feedback",
        ],
    )
    def test_every_cached_call_after_close_is_typed(self, tmp_path, call):
        """Typed, and refused before anything is written: a mutation on
        a closed cache leaves the store's bytes as they were."""
        service = self.cached(tmp_path)
        service.query("d", "//x")
        service.close()
        on_disk = stored_bytes(tmp_path / "store")
        with pytest.raises(StoreError, match="closed"):
            call(service)
        assert stored_bytes(tmp_path / "store") == on_disk
