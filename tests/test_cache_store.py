"""Tests for the persistent answer/plan cache store."""

from fractions import Fraction

import pytest

from repro.dbms.cache_store import (
    AnswerCacheStore,
    SCHEMA_VERSION,
    document_digest,
)
from repro.errors import StoreError
from repro.pxml.build import certain_document
from repro.pxml.serialize import parse_pxml, pxml_to_text
from repro.query.plan import compile_plan
from repro.query.ranking import RankedAnswer, RankedItem
from repro.xmlkit.parser import parse_document


@pytest.fixture
def cache(tmp_path):
    return AnswerCacheStore(tmp_path / "cache")


def answer(*items):
    return RankedAnswer([RankedItem(v, p, n) for v, p, n in items])


PLAN = "a" * 64
DOC = "b" * 64


class TestRoundTrip:
    def test_exact_fractions(self, cache):
        stored = answer(
            ("x", Fraction(1, 3), 2),
            ("y", Fraction(10**30 + 1, 10**30 + 3), 1),
            ("z", Fraction(1), 1),
        )
        cache.put("doc", DOC, PLAN, stored)
        loaded = cache.get("doc", DOC, PLAN)
        assert [(i.value, i.probability, i.occurrences) for i in loaded] == [
            (i.value, i.probability, i.occurrences) for i in stored
        ]
        assert all(isinstance(i.probability, Fraction) for i in loaded)

    def test_unicode_values(self, cache):
        stored = answer(("Zemřel ★ 彼", Fraction(2, 7), 3))
        cache.put("doc", DOC, PLAN, stored)
        assert cache.get("doc", DOC, PLAN).values() == ["Zemřel ★ 彼"]

    def test_empty_answer(self, cache):
        cache.put("doc", DOC, PLAN, RankedAnswer([]))
        loaded = cache.get("doc", DOC, PLAN)
        assert loaded is not None and len(loaded) == 0

    def test_miss_returns_none(self, cache):
        assert cache.get("doc", DOC, PLAN) is None
        assert cache.misses == 1

    def test_key_is_content_and_plan(self, cache):
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        assert cache.get("doc", "c" * 64, PLAN) is None  # other content
        assert cache.get("doc", DOC, "d" * 64) is None  # other plan
        assert cache.get("other", DOC, PLAN) is None  # other name

    def test_survives_reopen(self, cache, tmp_path):
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 3), 1)))
        cache.close()
        reopened = AnswerCacheStore(tmp_path / "cache")
        loaded = reopened.get("doc", DOC, PLAN)
        assert loaded.probability_of("x") == Fraction(1, 3)
        assert reopened.hits == 1


class TestPlanMemo:
    def test_remember_and_lookup(self, cache):
        digest = compile_plan("//a/b").fingerprint_digest
        assert cache.plan_digest("//a/b") is None
        cache.remember_plan("//a/b", digest)
        assert cache.plan_digest("//a/b") == digest

    def test_put_with_expression_also_remembers(self, cache):
        cache.put("doc", DOC, PLAN, answer(), expression="//x")
        assert cache.plan_digest("//x") == PLAN


class TestInvalidation:
    def test_invalidate_drops_rows_and_bumps_version(self, cache):
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        assert cache.version("doc") == 0
        assert cache.invalidate_document("doc") == 1
        assert cache.version("doc") == 1
        assert cache.get("doc", DOC, PLAN) is None

    def test_invalidate_is_per_name(self, cache):
        cache.put("keep", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        cache.put("drop", DOC, PLAN, answer(("y", Fraction(1, 2), 1)))
        cache.invalidate_document("drop")
        assert cache.get("keep", DOC, PLAN) is not None
        assert cache.get("drop", DOC, PLAN) is None

    def test_stale_version_row_is_ignored(self, cache):
        """A row written under an older version is never served, even if
        the DELETE racing with the writer lost (simulated by inserting
        out from under the version bump)."""
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        cache.invalidate_document("doc")
        # Re-insert the row with the pre-invalidation version directly.
        with cache._lock:
            cache._conn.execute(
                "INSERT OR REPLACE INTO answers VALUES (?, ?, ?, ?, ?, 0, 0)",
                ("doc", DOC, PLAN, None, '[["x", "1/2", 1]]'),
            )
            cache._conn.commit()
        assert cache.get("doc", DOC, PLAN) is None

    def test_put_with_observed_version_is_fenced(self, cache):
        """A writer that observed version N before evaluating, and whose
        put lands after an invalidation bumped to N+1, writes a row that
        get() refuses to serve — the cross-process resurrection fence."""
        observed = cache.version("doc")
        cache.invalidate_document("doc")  # races in between
        cache.put(
            "doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)), version=observed
        )
        assert cache.get("doc", DOC, PLAN) is None

    def test_clear(self, cache):
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)), expression="//x")
        cache.clear()
        assert len(cache) == 0
        assert cache.plan_digest("//x") is None


class TestSchema:
    def test_schema_version_mismatch_recreates(self, tmp_path):
        first = AnswerCacheStore(tmp_path / "cache")
        first.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        with first._lock:
            first._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
            first._conn.commit()
        first.close()
        reopened = AnswerCacheStore(tmp_path / "cache")
        assert len(reopened) == 0  # dropped, not misread

    def test_accepts_explicit_sqlite_path(self, tmp_path):
        cache = AnswerCacheStore(tmp_path / "sub" / "my.sqlite")
        cache.put("doc", DOC, PLAN, answer())
        assert (tmp_path / "sub" / "my.sqlite").exists()

    def test_stats_shape(self, cache):
        cache.put("doc", DOC, PLAN, answer(), expression="//x")
        cache.get("doc", DOC, PLAN)
        cache.get("doc", DOC, "e" * 64)
        stats = cache.stats()
        assert stats["persistent_answers"] == 1
        assert stats["persistent_plans"] == 1
        assert stats["persistent_hits"] == 1
        assert stats["persistent_misses"] == 1
        assert stats["persistent_stored"] == 1


class TestDocumentDigest:
    def test_stable_for_equal_content(self):
        doc_a = parse_document("<r><x>1</x></r>")
        doc_b = parse_document("<r><x>1</x></r>")
        assert document_digest(doc_a) == document_digest(doc_b)

    def test_differs_for_different_content(self):
        assert document_digest(parse_document("<r><x>1</x></r>")) != (
            document_digest(parse_document("<r><x>2</x></r>"))
        )

    def test_kind_prefix_prevents_collisions(self):
        plain = parse_document("<r/>")
        prob = certain_document(plain)
        assert document_digest(plain) != document_digest(prob)

    def test_pxml_round_trip_preserves_digest(self):
        doc = certain_document(parse_document("<r><x>1</x></r>"))
        reloaded = parse_pxml(pxml_to_text(doc))
        assert document_digest(doc) == document_digest(reloaded)

    def test_rejects_non_documents(self):
        with pytest.raises(StoreError):
            document_digest("<r/>")


class TestRowEviction:
    """The ROADMAP follow-up: ``max_rows`` bounds the answer table, LRU
    by last hit, and eviction never costs correctness — an evicted
    answer is simply recomputed and re-stored on its next miss."""

    def put_n(self, cache, count, name="doc"):
        for index in range(count):
            cache.put(
                name, DOC, f"{index:064d}",
                answer((f"v{index}", Fraction(1, index + 2), 1)),
            )

    def test_bound_is_enforced(self, tmp_path):
        cache = AnswerCacheStore(tmp_path / "cache", max_rows=5)
        self.put_n(cache, 20)
        assert len(cache) == 5
        assert cache.evictions == 15
        assert cache.stats()["persistent_evictions"] == 15
        assert cache.max_rows == 5

    def test_unbounded_store_never_evicts(self, cache):
        self.put_n(cache, 20)
        assert len(cache) == 20
        assert cache.evictions == 0

    def test_eviction_is_lru_by_last_hit(self, tmp_path):
        cache = AnswerCacheStore(tmp_path / "cache", max_rows=3)
        self.put_n(cache, 3)
        # Re-hit row 0: it is now the most recently used.
        assert cache.get("doc", DOC, f"{0:064d}") is not None
        cache.put("doc", DOC, "f" * 64, answer(("new", Fraction(1, 2), 1)))
        # Row 1 (oldest last_hit) went; row 0 survived its re-hit.
        assert cache.get("doc", DOC, f"{0:064d}") is not None
        assert cache.get("doc", DOC, f"{1:064d}") is None
        assert cache.get("doc", DOC, "f" * 64) is not None

    def test_recency_stamps_persist_across_instances(self, tmp_path):
        """The LRU clock is file-global (MAX+1), so a fresh process
        continues the ordering instead of restarting it."""
        first = AnswerCacheStore(tmp_path / "cache", max_rows=3)
        self.put_n(first, 3)
        assert first.get("doc", DOC, f"{0:064d}") is not None
        first.close()
        second = AnswerCacheStore(tmp_path / "cache", max_rows=3)
        second.put("doc", DOC, "f" * 64, answer(("new", Fraction(1, 2), 1)))
        assert second.get("doc", DOC, f"{0:064d}") is not None  # survived
        assert second.get("doc", DOC, f"{1:064d}") is None      # evicted

    def test_rejects_nonpositive_bound(self, tmp_path):
        with pytest.raises(StoreError):
            AnswerCacheStore(tmp_path / "cache", max_rows=0)

    def test_evicted_answers_are_recomputed_correctly(self, tmp_path):
        """A service over a 2-row cache cycling through 4 queries keeps
        returning exact answers; evicted rows come back as misses that
        re-store, never as wrong or missing results."""
        from repro.dbms.service import DataspaceService

        workload = ["//person/nm", "//person/tel", "//person", "/addressbook"]
        with DataspaceService(
            directory=tmp_path / "store",
            cache_dir=tmp_path / "rowcache",
            cache_max_rows=2,
        ) as service:
            service.load(
                "ab",
                "<addressbook><person><nm>John</nm><tel>1111</tel></person>"
                "</addressbook>",
            )
            baseline = {
                query: [
                    (item.value, item.probability, item.occurrences)
                    for item in service.query("ab", query)
                ]
                for query in workload
            }
            for _ in range(3):  # keep cycling: every query evicts another
                for query in workload:
                    again = [
                        (item.value, item.probability, item.occurrences)
                        for item in service.query("ab", query)
                    ]
                    assert again == baseline[query]
            stats = service.cache_stats()
            assert stats["persistent_evictions"] > 0
            assert stats["persistent_answers"] <= 2
            # Eviction caused real re-stores beyond the first pricing.
            assert stats["persistent_stored"] > len(workload)

    def test_service_rejects_bound_without_cache_dir(self, tmp_path):
        from repro.dbms.service import DataspaceService

        with pytest.raises(StoreError):
            DataspaceService(directory=tmp_path / "store", cache_max_rows=10)

    def test_bounded_hits_do_not_write(self, tmp_path):
        """Recency on hits is buffered in memory (the hit path must stay
        free of UPDATE/commit); the buffer flushes on the next put."""
        cache = AnswerCacheStore(tmp_path / "cache", max_rows=3)
        self.put_n(cache, 2)
        assert cache.get("doc", DOC, f"{0:064d}") is not None
        assert len(cache._touches) == 1           # buffered, not written
        db_stamp = cache._conn.execute(
            "SELECT last_hit FROM answers WHERE plan_digest = ?",
            (f"{0:064d}",),
        ).fetchone()[0]
        assert db_stamp == 1                      # on-disk stamp untouched
        cache.put("doc", DOC, "f" * 64, answer(("new", Fraction(1, 2), 1)))
        assert cache._touches == {}               # flushed with the put
        db_stamp = cache._conn.execute(
            "SELECT last_hit FROM answers WHERE plan_digest = ?",
            (f"{0:064d}",),
        ).fetchone()[0]
        assert db_stamp > 2                       # recency persisted


AGG = "c" * 64


class TestAggregateRows:
    def distribution(self):
        return {
            None: Fraction(1, 6),
            -2: Fraction(1, 3),
            7: Fraction(1, 4),
            Fraction(5, 2): Fraction(1, 4),
        }

    def test_round_trip_exact(self, cache):
        cache.put_aggregate("doc", DOC, AGG, self.distribution(), spec="sum(//p)")
        loaded = cache.get_aggregate("doc", DOC, AGG)
        assert loaded == self.distribution()
        assert all(isinstance(p, Fraction) for p in loaded.values())
        assert cache.aggregate_hits == 1 and cache.aggregate_stored == 1

    def test_miss_counts(self, cache):
        assert cache.get_aggregate("doc", DOC, AGG) is None
        assert cache.aggregate_misses == 1
        assert cache.get_aggregate("doc", DOC, AGG, record=False) is None
        assert cache.aggregate_misses == 1  # double-checked probe not counted

    def test_survives_reopen(self, cache, tmp_path):
        cache.put_aggregate("doc", DOC, AGG, self.distribution())
        cache.close()
        fresh = AnswerCacheStore(tmp_path / "cache")
        assert fresh.get_aggregate("doc", DOC, AGG) == self.distribution()
        assert fresh.stats()["persistent_aggregates"] == 1
        fresh.close()

    def test_invalidation_drops_aggregate_rows(self, cache):
        cache.put_aggregate("doc", DOC, AGG, self.distribution())
        cache.put_aggregate("keep", DOC, AGG, self.distribution())
        cache.invalidate_document("doc")
        assert cache.get_aggregate("doc", DOC, AGG) is None
        assert cache.get_aggregate("keep", DOC, AGG) == self.distribution()

    def test_put_with_observed_version_is_fenced(self, cache):
        observed = cache.version("doc")
        cache.invalidate_document("doc")  # races in between
        cache.put_aggregate(
            "doc", DOC, AGG, self.distribution(), version=observed
        )
        assert cache.get_aggregate("doc", DOC, AGG) is None

    def test_distinct_digests_distinct_rows(self, cache):
        cache.put_aggregate("doc", DOC, AGG, {1: Fraction(1)})
        cache.put_aggregate("doc", DOC, "d" * 64, {2: Fraction(1)})
        assert cache.get_aggregate("doc", DOC, AGG) == {1: Fraction(1)}
        assert cache.get_aggregate("doc", DOC, "d" * 64) == {2: Fraction(1)}

    def test_clear_drops_aggregates(self, cache):
        cache.put_aggregate("doc", DOC, AGG, {1: Fraction(1)})
        cache.clear()
        assert cache.get_aggregate("doc", DOC, AGG, record=False) is None
        assert cache.stats()["persistent_aggregates"] == 0

    def test_stats_counters_present(self, cache):
        stats = cache.stats()
        for counter in (
            "persistent_aggregates",
            "persistent_aggregate_hits",
            "persistent_aggregate_misses",
            "persistent_aggregate_stored",
        ):
            assert counter in stats


class TestBusyHandling:
    """Multi-process write contention: typed errors, bounded retries
    (ISSUE 8 — two workers sharing one --cache-dir must never surface a
    raw `sqlite3.OperationalError: database is locked`)."""

    def test_rejects_bad_tuning(self, tmp_path):
        with pytest.raises(StoreError):
            AnswerCacheStore(tmp_path / "a", busy_timeout_ms=-1)
        with pytest.raises(StoreError):
            AnswerCacheStore(tmp_path / "b", write_retries=0)

    def test_busy_timeout_pragma_applied(self, tmp_path):
        store = AnswerCacheStore(tmp_path / "cache", busy_timeout_ms=123)
        row = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert row[0] == 123
        store.close()

    def test_held_write_lock_raises_typed_error(self, tmp_path):
        """A sibling holding the write lock past the whole retry budget
        surfaces CacheBusyError (a StoreError), never the raw sqlite3
        exception — and the blocked writer stays usable afterwards."""
        import sqlite3

        from repro.errors import CacheBusyError

        store = AnswerCacheStore(
            tmp_path / "cache", busy_timeout_ms=1, write_retries=2
        )
        sibling = sqlite3.connect(str(store.path))
        sibling.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            with pytest.raises(CacheBusyError) as excinfo:
                store.put("doc", DOC, PLAN, answer(("v", Fraction(1, 2), 1)))
            assert isinstance(excinfo.value, StoreError)
            assert "locked" in str(excinfo.value.__cause__).lower()
            assert store.busy_retries > 0
            assert store.stats()["persistent_busy_retries"] > 0
        finally:
            sibling.rollback()
            sibling.close()
        # The lock is gone: the very same store commits cleanly now.
        store.put("doc", DOC, PLAN, answer(("v", Fraction(1, 2), 1)))
        got = store.get("doc", DOC, PLAN)
        assert [(i.value, i.probability) for i in got] == [("v", Fraction(1, 2))]
        store.close()

    def test_wal_switch_under_held_write_lock_raises_typed_error(
        self, tmp_path
    ):
        """Opening a file still in rollback-journal mode while a sibling
        holds its write lock: the WAL switch runs under the same bounded
        busy budget as a write and surfaces CacheBusyError, never the
        raw ``database is locked``."""
        import sqlite3

        from repro.errors import CacheBusyError

        path = tmp_path / "cache.sqlite"
        sibling = sqlite3.connect(str(path))
        sibling.execute("CREATE TABLE held (x)")
        sibling.commit()
        sibling.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            with pytest.raises(CacheBusyError) as excinfo:
                AnswerCacheStore(path, busy_timeout_ms=50, write_retries=3)
            assert "locked" in str(excinfo.value.__cause__).lower()
        finally:
            sibling.rollback()
            sibling.close()
        store = AnswerCacheStore(path, busy_timeout_ms=50, write_retries=3)
        assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        store.close()

    def test_retry_succeeds_once_lock_clears(self, tmp_path):
        """A transient hold shorter than the retry budget is absorbed
        silently: the put lands, no exception, retries counted."""
        import sqlite3
        import threading

        store = AnswerCacheStore(
            tmp_path / "cache", busy_timeout_ms=5, write_retries=10
        )
        sibling = sqlite3.connect(str(store.path), check_same_thread=False)
        sibling.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.05, lambda: (sibling.rollback()))
        release.start()
        try:
            store.put("doc", DOC, PLAN, answer(("v", Fraction(1, 3), 2)))
        finally:
            release.join()
            sibling.close()
        got = store.get("doc", DOC, PLAN)
        assert [(i.value, i.probability) for i in got] == [("v", Fraction(1, 3))]
        store.close()

    def test_two_instances_interleaved_writes(self, tmp_path):
        """Two connections to one file (the in-process stand-in for two
        worker processes): interleaved puts and invalidations all land,
        reads on either side decode identical Fractions."""
        first = AnswerCacheStore(tmp_path / "cache")
        second = AnswerCacheStore(tmp_path / "cache")
        stored = answer(("x", Fraction(2, 7), 1), ("y", Fraction(1, 7), 2))
        first.put("doc", DOC, PLAN, stored)
        via_second = second.get("doc", DOC, PLAN)
        assert [(i.value, i.probability) for i in via_second] == [
            ("x", Fraction(2, 7)), ("y", Fraction(1, 7))
        ]
        dropped = second.invalidate_document("doc")
        assert dropped == 1
        assert first.get("doc", DOC, PLAN) is None
        assert first.version("doc") == second.version("doc") == 1
        first.close()
        second.close()


class TestClosedStore:
    """After close() every operation raises StoreError — never the
    driver's raw ``ProgrammingError`` — and a closed store never reopens
    its connection by itself."""

    OPERATIONS = {
        "plan_digest": lambda c: c.plan_digest("//x"),
        "remember_plan": lambda c: c.remember_plan("//x", PLAN),
        "get": lambda c: c.get("doc", DOC, PLAN),
        "put": lambda c: c.put(
            "doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1))
        ),
        "get_aggregate": lambda c: c.get_aggregate("doc", DOC, AGG),
        "put_aggregate": lambda c: c.put_aggregate(
            "doc", DOC, AGG, {1: Fraction(1)}
        ),
        "version": lambda c: c.version("doc"),
        "invalidate_document": lambda c: c.invalidate_document("doc"),
        "clear": lambda c: c.clear(),
        "len": len,
        "stats": lambda c: c.stats(),
    }

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_every_operation_after_close_is_typed(self, cache, operation):
        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        cache.close()
        with pytest.raises(StoreError, match="closed"):
            self.OPERATIONS[operation](cache)

    def test_close_is_idempotent(self, tmp_path):
        store = AnswerCacheStore(tmp_path / "cache", max_rows=4)
        store.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        store.get("doc", DOC, PLAN)  # a pending recency stamp to flush
        store.close()
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.get("doc", DOC, PLAN)

    def test_no_reconnect_after_a_sibling_swaps_the_file(self, tmp_path):
        """A sibling process quarantines the file and rebuilds a fresh
        one at the same path (a new inode).  The inode check that lets a
        live store follow that swap must not reopen a closed one."""
        store = AnswerCacheStore(tmp_path / "cache")
        store.invalidate_document("doc")
        store.close()
        store.path.rename(store.path.with_name(store.path.name + ".corrupt-1"))
        AnswerCacheStore(tmp_path / "cache").close()  # the sibling's rebuild
        with pytest.raises(StoreError, match="closed"):
            store.version("doc")
        assert store.recoveries == 0


class TestCorruptFile:
    """A cache file corrupted under a live store costs warmth only: every
    operation — reads and writes alike — quarantines it to exactly one
    ``*.corrupt-1``, counts one recovery, and runs on the rebuilt file."""

    #: How each write proves it landed in the rebuilt file.
    LANDED = {
        "remember_plan": lambda c: c.plan_digest("//x") == PLAN,
        "put": lambda c: c.get("doc", DOC, PLAN, record=False) is not None,
        "put_aggregate": lambda c: c.get_aggregate(
            "doc", DOC, AGG, record=False
        ) == {1: Fraction(1)},
        "invalidate_document": lambda c: c.version("doc") == 1,
    }

    @pytest.mark.parametrize("operation", sorted(TestClosedStore.OPERATIONS))
    def test_every_operation_recovers(self, cache, operation):
        from repro.testing.faults import corrupt_sqlite_file

        cache.put("doc", DOC, PLAN, answer(("x", Fraction(1, 2), 1)))
        corrupt_sqlite_file(cache.path)
        TestClosedStore.OPERATIONS[operation](cache)
        assert len(list(cache.path.parent.glob("*.corrupt-1"))) == 1
        assert not list(cache.path.parent.glob("*.corrupt-2"))
        assert cache.recoveries == 1
        landed = self.LANDED.get(operation)
        assert landed is None or landed(cache)
        assert cache.recoveries == 1
        cache.close()
