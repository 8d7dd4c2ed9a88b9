"""Deterministic chaos tests: seeded faults, Fraction-identical answers.

The self-healing claims of the serving tier, made checkable.  Every
scenario drives real production failure paths through the seeded
:mod:`repro.testing.faults` harness — injected ``CacheBusyError`` from
the cache's own write funnel, genuine on-disk SQLite corruption,
killed worker processes, drained ``deadline_ms`` budgets — and then
asserts the one invariant the whole tier is built around: answers are
**Fraction-identical** to a fault-free serial replay, or absent with a
typed error; never approximate, never a raw ``sqlite3`` exception,
never a hang.

Scenario sizes are deliberately small (this file doubles as the CI
``chaos-smoke`` job); seeds are pinned so a failure replays exactly,
and ``CHAOS_SEED`` re-rolls every scenario at once.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.dbms.service import DataspaceService
from repro.deadline import Deadline, active
from repro.errors import DeadlineExceededError
from repro.query.aggregates import aggregate_distribution
from repro.query.engine import QueryEngine
from repro.query.ranking import ranked_from_events
from repro.server.client import DataspaceClient, ServerError
from repro.server.multiproc import MultiProcServer
from repro.server.wire import encode_fused_answer
from repro.testing import (
    FaultPlan,
    corrupt_sqlite_file,
    delayed_method,
    failing_cache_writes,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20260808"))

DOCS = {
    f"doc{i}": f"<r><x>{i}</x><x>{(i * 7) % 5}</x><y>{i % 3}</y></r>"
    for i in range(6)
}
QUERIES = ["//x", "//y", '//x[. = "3"]']


def snapshot(answer) -> list:
    """The full exact shape of a ranked answer — value, Fraction
    probability, and occurrence count — so equality means
    Fraction-identical, not merely same ordering."""
    return [
        (item.value, item.probability, item.occurrences) for item in answer
    ]


def price_events(engine, query):
    """``query``'s answer priced the event way: the walk's answer events
    through the engine's bulk pricing (the kernel path)."""
    return ranked_from_events(engine.answer_events(query), engine.probabilities)


def build_service(tmp_path: Path, label: str, **kwargs) -> DataspaceService:
    service = DataspaceService(
        directory=tmp_path / f"{label}-store",
        cache_dir=tmp_path / f"{label}-cache",
        **kwargs,
    )
    for name, xml in DOCS.items():
        service.load(name, xml)
    return service


def serial_replay(tmp_path: Path) -> dict:
    """The fault-free oracle: a fresh cacheless service, queried
    serially — nothing shared with the chaotic run but the corpus."""
    service = DataspaceService(directory=tmp_path / "oracle-store")
    try:
        for name, xml in DOCS.items():
            service.load(name, xml)
        return {
            (name, query): snapshot(service.query(name, query))
            for name in DOCS
            for query in QUERIES
        }
    finally:
        service.close()


class TestCacheWriteFaults:
    def test_injected_busy_writes_cost_warmth_never_answers(self, tmp_path):
        """With the cache's write funnel raising CacheBusyError half the
        time, every answer is still served, Fraction-identical to the
        fault-free replay, and each absorbed write is counted."""
        expected = serial_replay(tmp_path)
        plan = FaultPlan(seed=CHAOS_SEED)
        service = build_service(tmp_path, "busy")
        try:
            with failing_cache_writes(service.cache, plan, probability=0.5):
                for (name, query), exact in expected.items():
                    assert snapshot(service.query(name, query)) == exact
            assert plan.count("cache-write-busy") > 0, plan.fired
            stats = service.cache_stats()
            assert stats["cache_write_failures"] == plan.count(
                "cache-write-busy"
            )
            # Post-fault runs heal: writes land again, answers unchanged.
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact
        finally:
            service.close()

    def test_total_write_outage_still_serves_every_answer(self, tmp_path):
        expected = serial_replay(tmp_path)
        plan = FaultPlan(seed=CHAOS_SEED + 1)
        service = build_service(tmp_path, "outage")
        try:
            with failing_cache_writes(service.cache, plan, probability=1.0):
                for (name, query), exact in expected.items():
                    assert snapshot(service.query(name, query)) == exact
            assert service.cache_stats()["cache_write_failures"] > 0
        finally:
            service.close()


class TestCacheCorruption:
    def test_live_service_quarantines_and_keeps_answering(self, tmp_path):
        """Corrupting the cache file under a live service costs warmth
        only: the next access quarantines, rebuilds, and re-serves
        Fraction-identical answers — no sqlite3 error ever escapes."""
        expected = serial_replay(tmp_path)
        service = build_service(tmp_path, "corrupt")
        try:
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact
            corrupt_sqlite_file(service.cache.path)
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact
            stats = service.cache_stats()
            assert stats["persistent_recoveries"] > 0
            quarantined = list(service.cache.path.parent.glob("*.corrupt-*"))
            assert quarantined, "corrupt file was not preserved for autopsy"
        finally:
            service.close()

    def test_two_process_fleet_follows_the_quarantine_swap(self, tmp_path):
        """Corruption with two live processes on one cache file: the
        process that trips it quarantines and rebuilds; the sibling
        holding a descriptor to the quarantined inode follows the swap.
        Both report ``persistent_recoveries > 0``; answers everywhere
        stay Fraction-identical to the clean replay."""
        expected = serial_replay(tmp_path)
        service = build_service(tmp_path, "fleet")
        cache_dir = tmp_path / "fleet-cache"
        store_dir = tmp_path / "fleet-store"
        try:
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact

            corrupt_sqlite_file(service.cache.path)

            # Process 2 (a genuinely fresh interpreter) opens the now-
            # corrupt file first: it quarantines and rebuilds.
            script = (
                "import json, sys\n"
                "from repro.dbms.service import DataspaceService\n"
                "store, cache = sys.argv[1], sys.argv[2]\n"
                "docs = json.loads(sys.argv[3])\n"
                "queries = json.loads(sys.argv[4])\n"
                "service = DataspaceService(directory=store, cache_dir=cache)\n"
                "try:\n"
                "    answers = {\n"
                "        f'{name}||{q}': [\n"
                "            [i.value, i.probability.numerator,\n"
                "             i.probability.denominator, i.occurrences]\n"
                "            for i in service.query(name, q)\n"
                "        ]\n"
                "        for name in docs for q in queries\n"
                "    }\n"
                "    stats = service.cache_stats()\n"
                "finally:\n"
                "    service.close()\n"
                "print(json.dumps({'answers': answers,\n"
                "                  'recoveries': stats['persistent_recoveries']}))\n"
            )
            result = subprocess.run(
                [sys.executable, "-c", script, str(store_dir),
                 str(cache_dir), json.dumps(sorted(DOCS)),
                 json.dumps(QUERIES)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            assert result.returncode == 0, result.stderr
            sibling = json.loads(result.stdout)
            assert sibling["recoveries"] > 0
            for (name, query), exact in expected.items():
                got = [
                    (value, Fraction(numerator, denominator), occurrences)
                    for value, numerator, denominator, occurrences
                    in sibling["answers"][f"{name}||{query}"]
                ]
                assert got == exact

            # Process 1 still holds the *quarantined* inode: its next
            # operation follows the swap instead of quarantining the
            # healthy replacement, and keeps serving identically.
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact
            assert service.cache_stats()["persistent_recoveries"] > 0
        finally:
            service.close()


    def test_fence_survives_a_quarantine(self, tmp_path):
        """A rebuilt cache file restarts every version at 0, so a sibling
        that last saw version 0 must still notice the mutation made
        before the rebuild: the fence keys versions by file generation."""
        store, cache = tmp_path / "store", tmp_path / "cache"
        store.mkdir()
        (store / "x.xml").write_text("<r><v>old</v></r>", encoding="utf-8")
        writer = DataspaceService(directory=store, cache_dir=cache)
        reader = DataspaceService(directory=store, cache_dir=cache)
        try:
            assert reader.query("x", "//v").values() == ["old"]
            writer.load("x", "<r><v>new</v></r>")
            corrupt_sqlite_file(writer.cache.path)
            assert writer.query("x", "//v").values() == ["new"]
            assert writer.cache.version("x") == 0  # the rebuilt file
            assert reader.query("x", "//v").values() == ["new"]
        finally:
            writer.close()
            reader.close()

    def test_corruption_while_a_miss_is_priced_still_answers(self, tmp_path):
        """The answer is already computed when its cache write finds the
        file corrupt: the write quarantines and lands in the rebuilt
        file, and the query returns the exact answer."""
        expected = serial_replay(tmp_path)
        service = build_service(tmp_path, "mid-miss")
        original = service._engine

        def corrupting(name, digest):
            corrupt_sqlite_file(service.cache.path)
            return original(name, digest)

        try:
            service._engine = corrupting
            assert snapshot(service.query("doc0", "//x")) == expected[
                ("doc0", "//x")
            ]
            del service._engine
            stats = service.cache_stats()
            assert stats["persistent_recoveries"] == 1
            assert stats["persistent_stored"] == 1
            assert stats["cache_write_failures"] == 0
            for (name, query), exact in expected.items():
                assert snapshot(service.query(name, query)) == exact
        finally:
            service.close()

    def test_corruption_during_integrate_keeps_report_and_fence(self, tmp_path):
        """Corruption landing while ``integrate`` writes its output costs
        warmth only: the report comes back, the version bump lands in the
        rebuilt file, and a sibling sharing the store and the cache sees
        the integrated document instead of the one it read before."""
        store, cache = tmp_path / "store", tmp_path / "cache"
        service = DataspaceService(directory=store, cache_dir=cache)
        sibling = DataspaceService(directory=store, cache_dir=cache)
        try:
            book_a, book_b = addressbook_documents()
            service.load_document("a", book_a)
            service.load_document("b", book_b)
            service.load("ab", "<addressbook/>")
            assert sibling.query("ab", "//person/tel").values() == []
            original = service._module.integrate

            def corrupting(*args, **kwargs):
                corrupt_sqlite_file(service.cache.path)
                return original(*args, **kwargs)

            service._module.integrate = corrupting
            report = service.integrate(
                "a", "b", "ab",
                rules=[DeepEqualRule(), LeafValueRule()],
                dtd=ADDRESSBOOK_DTD,
            )
            assert report.total_nodes > 0
            assert service.cache.version("ab") == 1
            merged = snapshot(service.query("ab", "//person/tel"))
            assert merged
            assert snapshot(sibling.query("ab", "//person/tel")) == merged
        finally:
            service.close()
            sibling.close()


class TestDeadlineChaos:
    def test_generous_deadline_is_invisible(self, tmp_path):
        service = build_service(tmp_path, "generous")
        try:
            unbounded = service.query_all("//x")
            bounded = service.query_all(
                "//x", deadline=Deadline.from_ms(60_000)
            )
            assert encode_fused_answer(bounded) == encode_fused_answer(
                unbounded
            )
            assert not bounded.partial
        finally:
            service.close()

    def test_blown_budget_raises_typed_and_never_hangs(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED)
        service = build_service(tmp_path, "blown")
        try:
            with delayed_method(
                service, "query", plan, seconds=0.5, probability=1.0
            ):
                started = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    service.query_all("//x", deadline=Deadline.from_ms(50))
                elapsed = time.monotonic() - started
            assert elapsed < 10, f"deadline request hung for {elapsed:.1f}s"
            assert plan.count("delay:query") > 0
        finally:
            service.close()

    @staticmethod
    def slowed(service, slow_name, seconds):
        """Make ``service.query`` stall on one document; returns the list
        of names the fan-out asked for, in call order."""
        original = service.query
        asked = []

        def one_slow_document(name, plan, **kwargs):
            asked.append(name)
            if name == slow_name:
                time.sleep(seconds)
            return original(name, plan, **kwargs)

        service.query = one_slow_document
        return asked

    def test_allow_partial_omits_the_slow_last_document(self, tmp_path):
        """The fan-out prices in name order, so a slow *last* document
        is the whole omitted tail and every other document is fused."""
        service = build_service(tmp_path, "partial-last")
        try:
            slow = sorted(DOCS)[-1]
            self.slowed(service, slow, 0.6)
            fused = service.query_all(
                "//x", deadline=Deadline.from_ms(300), allow_partial=True
            )
            del service.query  # back to the real DataspaceService.query
            assert fused.partial
            assert fused.omitted == (slow,)
            clean = service.query_all(
                "//x", names=sorted(set(DOCS) - {slow})
            )
            assert encode_fused_answer(fused)["items"] == encode_fused_answer(
                clean
            )["items"]
        finally:
            service.close()

    def test_slow_first_document_raises_typed_in_bounded_time(self, tmp_path):
        """A slow *first* document exhausts the budget before anything
        finished: even with allow_partial the fan-out raises the typed
        error, promptly, and prices nothing after it."""
        service = build_service(tmp_path, "partial-first")
        try:
            first = sorted(DOCS)[0]
            asked = self.slowed(service, first, 0.6)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError, match="before any"):
                service.query_all(
                    "//x", deadline=Deadline.from_ms(300), allow_partial=True
                )
            elapsed = time.monotonic() - started
            assert elapsed < 5, f"deadline request took {elapsed:.1f}s"
            assert asked == [first]
        finally:
            service.close()

    def test_budget_interrupts_pricing_once_the_walk_is_cached(self):
        """Pricing stage: with the answer-event walk already cached, only
        the probability kernel runs, so its own checkpoint is what stops
        a 20 ms budget — well inside the time unbudgeted pricing takes.
        The interrupted call leaves no partial memo row behind: an
        unbudgeted re-query on the same engine is Fraction-identical to
        an uncached engine's answer."""

        def merged_book():
            book_a, book_b = addressbook_documents(
                [(f"p{i}", f"1{i}") for i in range(4)],
                [(f"p{i}", f"2{i}") for i in range(4)],
            )
            return integrate(
                book_a, book_b,
                rules=[DeepEqualRule(), LeafValueRule()],
                dtd=ADDRESSBOOK_DTD,
            ).document

        query = "//person/tel"
        # The unbudgeted pricing time, on a twin document of its own.
        reference = QueryEngine(merged_book())
        reference.answer_events(query)
        started = time.perf_counter()
        price_events(reference, query)
        pricing = time.perf_counter() - started

        document = merged_book()
        engine = QueryEngine(document)
        engine.answer_events(query)  # cache the walk
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            with active(Deadline.from_ms(20)):
                price_events(engine, query)
        interrupted = time.perf_counter() - started
        assert interrupted < pricing / 2, (
            f"20 ms budget ran {interrupted * 1000:.0f} ms against"
            f" {pricing * 1000:.0f} ms of unbudgeted pricing"
        )
        assert snapshot(price_events(engine, query)) == snapshot(
            QueryEngine(document, use_cache=False).query(query)
        )

    def test_budget_interrupts_the_tree_pass(self):
        """Tree-pass stage: ``query`` prices an anchored plan in one pass
        that polls the deadline per probability node, so a 20 ms budget
        on a merged 5x5 address book stops well inside the time the
        unbudgeted pass takes.  The interrupted call memoizes nothing: an
        unbudgeted re-query is Fraction-identical to the unbudgeted pass
        over a twin document (the uncached walk takes minutes here; the
        pass's agreement with it is pinned by tests/test_tree_pass.py)."""

        def merged_book():
            book_a, book_b = addressbook_documents(
                [(f"p{i}", f"1{i}") for i in range(5)],
                [(f"p{i}", f"2{i}") for i in range(5)],
            )
            return integrate(
                book_a, book_b,
                rules=[DeepEqualRule(), LeafValueRule()],
                dtd=ADDRESSBOOK_DTD,
            ).document

        query = "//person/tel"
        twin = QueryEngine(merged_book())
        started = time.perf_counter()
        expected = twin.query(query)
        unbudgeted = time.perf_counter() - started

        document = merged_book()
        engine = QueryEngine(document)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            with active(Deadline.from_ms(20)):
                engine.query(query)
        interrupted = time.perf_counter() - started
        assert interrupted < unbudgeted / 2, (
            f"20 ms budget ran {interrupted * 1000:.0f} ms against"
            f" {unbudgeted * 1000:.0f} ms of unbudgeted tree pass"
        )
        assert engine.cache_stats()["answers"] == 0
        assert snapshot(engine.query(query)) == snapshot(expected)

    def test_budget_interrupts_the_aggregate_convolution(self):
        """Aggregate stage: the convolution polls the deadline, so a
        20 ms budget on a merged 5x5 address book stops well inside the
        time the unbudgeted convolution takes.  The interrupted call
        memoizes nothing: an unbudgeted re-run is Fraction-identical to
        an uncached convolution."""
        book_a, book_b = addressbook_documents(
            [(f"p{i}", f"1{i}") for i in range(5)],
            [(f"p{i}", f"2{i}") for i in range(5)],
        )
        document = integrate(
            book_a, book_b,
            rules=[DeepEqualRule(), LeafValueRule()],
            dtd=ADDRESSBOOK_DTD,
        ).document
        started = time.perf_counter()
        reference = aggregate_distribution(
            document, "count", "person", use_cache=False
        )
        convolution = time.perf_counter() - started

        service = DataspaceService()
        service.load_document("ab", document)
        service.store.digest("ab")  # first-touch hashing, outside the budget
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            service.aggregate(
                "ab", "count", "person", deadline=Deadline.from_ms(20)
            )
        interrupted = time.perf_counter() - started
        assert interrupted < convolution / 2, (
            f"20 ms budget ran {interrupted * 1000:.0f} ms against"
            f" {convolution * 1000:.0f} ms of unbudgeted convolution"
        )
        assert service.aggregate("ab", "count", "person") == reference

    def test_single_document_deadline_is_typed_at_the_engine(self, tmp_path):
        service = build_service(tmp_path, "single")
        try:
            budget = Deadline.from_ms(1)
            time.sleep(0.01)  # drain it before the call
            with pytest.raises(DeadlineExceededError):
                service.query("doc0", "//x", deadline=budget)
        finally:
            service.close()


class TestWorkerKillChaos:
    def test_seeded_kill_round_keeps_answers_identical(self, tmp_path):
        """A plan-chosen worker dies mid-serving; the supervisor respawns
        and re-admits it, and every post-recovery answer is
        Fraction-identical to its pre-kill twin."""
        plan = FaultPlan(seed=CHAOS_SEED)
        store, cache = tmp_path / "store", tmp_path / "cache"
        store.mkdir()
        cache.mkdir()
        tier = MultiProcServer(
            store, workers=2, cache_dir=cache,
            probe_interval=0.1, backoff_initial=0.05,
        )
        host, port = tier.start()
        client = DataspaceClient(host, port, timeout=30)
        try:
            for name, xml in DOCS.items():
                client.load(name, xml)
            expected = {
                name: snapshot(client.query(name, "//x")) for name in DOCS
            }

            slot = plan.choice("kill-worker", list(range(len(tier.workers))))
            victim = tier.workers[slot]
            victim_pid = victim.proc.pid
            victim.proc.kill()
            victim.proc.wait(10)
            assert plan.fired == [("kill-worker", slot)]

            # Through the blip: tolerate only 502s, never wrong answers.
            deadline = time.time() + 60
            for name in DOCS:
                while True:
                    try:
                        assert (
                            snapshot(client.query(name, "//x"))
                            == expected[name]
                        )
                        break
                    except ServerError as error:
                        assert error.status == 502, error
                        assert time.time() < deadline, "never recovered"
                        time.sleep(0.05)

            while time.time() < deadline:
                stats = client.stats()
                if (
                    stats["supervisor"]["restarts"] >= 1
                    and len(stats["ring"]["available"]) == 2
                ):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("no recovery before deadline")
            assert tier.workers[slot].proc.pid != victim_pid
            for name in DOCS:
                assert snapshot(client.query(name, "//x")) == expected[name]
        finally:
            client.close()
            tier.stop()
