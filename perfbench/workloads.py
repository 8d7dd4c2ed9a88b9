"""The three closed-loop workloads: ``cold``, ``warm`` and ``churn``.

Each workload has one client that waits for every reply before sending
the next op, a fixed op list made from the seed, and a check of every
output against an independent path that runs outside the timed phase.

* ``cold`` prices one plan set across a freshly integrated corpus: a new
  ``DataspaceService`` with an empty cache directory runs every
  (document, plan) pair once, in a seeded order, so every op misses the
  persistent cache and first touches parse from disk.  Rounds repeat
  with a new service, cache directory and literal table until the time
  is up, so every round does the same work.
* ``warm`` re-serves answers already priced: one ``imprecise serve
  --http`` process over a primed cache, one keep-alive
  ``DataspaceClient`` repeating a dashboard refresh (4 x ``/query``,
  ``/search`` over the corpus glob, ``/aggregate``).
* ``churn`` is the integrate -> feedback -> re-query loop: each op loads
  two fresh source books, integrates them over an existing document,
  fans the search plan out over the corpus (N-1 persistent hits and one
  miss), confirms a seeded uncertain answer of the replaced document and
  re-queries the posterior.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro import DataspaceService, QueryEngine, integrate, parse_pxml
from repro.data.addressbook import addressbook_documents
from repro.feedback.conditioning import FeedbackSession
from repro.pxml.events import interned_count
from repro.pxml.events_compile import LiteralProbabilityTable
from repro.query.aggregates import aggregate_distribution
from repro.query.fusion import fuse_answers
from repro.server.client import DataspaceClient

from . import corpus, spans
from .corpus import AGGREGATE, CORPUS_GLOB, PLANS, SEARCH_PLAN, Sizes

ROOT = Path(__file__).resolve().parent.parent

#: Corpus sizes of the measured runs.
FULL_SIZES = {
    "cold": Sizes(documents=12, groups=3),
    "warm": Sizes(documents=12, groups=3),
    "churn": Sizes(documents=8, groups=2),
}

#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The plan of every document's first op in a ``cold`` round.
FIRST_TOUCH = SEARCH_PLAN

#: How long to wait for a server to start or stop.
SERVER_TIMEOUT_S = 60.0


class BenchmarkError(Exception):
    """The benchmark could not run (never a wrong answer: those are
    counted as failed ops)."""


# -- answer fingerprints -------------------------------------------------------


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def answer_key(answer) -> str:
    """Exact fingerprint of a ranked answer: order, values, Fractions."""
    return _digest(
        [(item.value, item.probability, item.occurrences) for item in answer]
    )


def distribution_key(distribution: dict) -> str:
    return _digest(sorted(distribution.items(), key=lambda item: repr(item[0])))


def fused_key(fused) -> str:
    return _digest((
        fused.strategy,
        [
            (item.value, item.score,
             [(s.document, s.rank, s.probability) for s in item.sources])
            for item in fused.items
        ],
        tuple(fused.documents),
        sorted(fused.weights.items()),
        fused.rrf_k,
        tuple(fused.omitted),
    ))


def reference_answer(document, plan: str):
    """The same answer priced by the uncached bottom-up kernel."""
    return QueryEngine(document, use_cache=False).run(plan)


def reference_distribution(document) -> dict:
    return aggregate_distribution(document, *AGGREGATE, use_cache=False)


# -- phases --------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed loop measured."""

    latencies: list = field(default_factory=list)
    #: wall time of the timed loop, less the benchmark's own work in it
    #: (making inputs, reading counters, fingerprinting outputs), which
    #: runs with the clock stopped
    timed_s: float = 0.0
    failed: int = 0
    #: per-layer counters read around the loop (deltas)
    memo_entries: int = 0
    interned: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    cache_retries: int = 0
    table_hits: int = 0
    table_lookups: int = 0
    peak_rss_kb: int = 0
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _cache_counters(stats: dict) -> tuple[int, int, int, int, int]:
    hits = stats.get("persistent_hits", 0) + stats.get(
        "persistent_aggregate_hits", 0)
    lookups = hits + stats.get("persistent_misses", 0) + stats.get(
        "persistent_aggregate_misses", 0)
    retries = stats.get("persistent_busy_retries", 0) + stats.get(
        "cache_write_failures", 0)
    table_hits = sum(
        stats.get(f"literal_table_{kind}_hits", 0)
        for kind in ("literal", "conjunction", "product"))
    table_lookups = table_hits + sum(
        stats.get(f"literal_table_{kind}_misses", 0)
        for kind in ("literal", "conjunction", "product"))
    return hits, lookups, retries, table_hits, table_lookups


def _add_counters(phase: Phase, before: dict, after: dict) -> None:
    deltas = [b - a for a, b in zip(_cache_counters(before),
                                    _cache_counters(after))]
    phase.cache_hits += deltas[0]
    phase.cache_lookups += deltas[1]
    phase.cache_retries += deltas[2]
    phase.table_hits += deltas[3]
    phase.table_lookups += deltas[4]


def _build_corpus(service: DataspaceService, sizes: Sizes, seed: int) -> None:
    """Integrate the seed's corpus into ``service``'s store."""
    for index, (book_a, book_b) in enumerate(corpus.corpus_books(seed, sizes)):
        service.load_document("src-a", book_a)
        service.load_document("src-b", book_b)
        service.integrate(
            "src-a", "src-b", corpus.doc_name(index),
            rules=corpus.integration_rules(), dtd=corpus.DTD,
        )


# -- workloads -----------------------------------------------------------------


class Workload:
    """One workload instance over its own work directory."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, work: Path,
                 traced: bool = False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.traced = traced

    def setup(self) -> None:
        """Build everything the first timed op needs."""
        raise NotImplementedError

    def run(self, seconds: float, recorder: Optional[spans.Recorder]) -> Phase:
        """The timed closed loop."""
        raise NotImplementedError

    def finish(self, phase: Phase, recorder: Optional[spans.Recorder]) -> None:
        """Right after the loop: record peak memory and the spans."""
        phase.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            phase.spans = recorder.spans

    def check(self, phase: Phase) -> int:
        """Untimed: verify the phase's outputs; returns failed ops."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and services (idempotent)."""

    def op_count(self) -> int:
        """Ops in one pass of the op list."""
        raise NotImplementedError


def _attempt(recorder: Optional[spans.Recorder], op: int,
             call: Callable[[], object]) -> tuple[float, object]:
    """Run one op; returns (seconds, result), with ``None`` as the
    result of an op that raised.  Traced ops are wrapped in an ``op``
    span so layer spans can be summed per op."""
    if recorder is not None:
        recorder.op = op
    start = time.perf_counter()
    try:
        if recorder is None:
            result = call()
        else:
            with recorder.span(spans.OP):
                result = call()
    except Exception:  # a failed op is counted, never fatal
        result = None
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.op = None
    return elapsed, result


class Cold(Workload):
    name = "cold"

    def setup(self) -> None:
        self.store = self.work / "store"
        with DataspaceService(directory=self.store) as service:
            _build_corpus(service, self.sizes, self.seed)
            service.delete("src-a")
            service.delete("src-b")
        pairs = [
            (corpus.doc_name(index), plan)
            for index in range(self.sizes.documents)
            for plan in (*PLANS, None)
        ]
        random.Random(f"cold:{self.seed}").shuffle(pairs)
        # A document's first op in a round also parses it, digests it and
        # builds its engine: those first touches are the slowest fifth of
        # the ops and hold p90.  Every first touch runs the same plan, so
        # that tail prices the same mix whatever the seed.
        first: dict[str, int] = {}
        for position, (name, _) in enumerate(pairs):
            first.setdefault(name, position)
        for name, position in first.items():
            other = pairs.index((name, FIRST_TOUCH))
            pairs[position], pairs[other] = pairs[other], pairs[position]
        self.pairs = pairs
        self.rounds = 0

    def op_count(self) -> int:
        return len(self.pairs)

    def run(self, seconds, recorder):
        phase = Phase()
        self.keys: list[tuple[tuple, str]] = []
        op = 0
        while phase.timed_s < seconds:
            # The round is timed whole: service construction, its ops,
            # close and the cache directory's removal.  Only the
            # benchmark's own bookkeeping (counters, fingerprints) runs
            # with the clock stopped.
            cache_dir = self.work / f"cache{self.rounds}"
            self.rounds += 1
            results = []
            interned = interned_count()
            start = time.perf_counter()
            with DataspaceService(
                directory=self.store, cache_dir=cache_dir,
                literal_table=LiteralProbabilityTable(),
            ) as service:
                for name, plan in self.pairs:
                    if plan is None:
                        call = lambda: service.aggregate(name, *AGGREGATE)
                    else:
                        call = lambda: service.query(name, plan)
                    elapsed, result = _attempt(recorder, op, call)
                    op += 1
                    phase.latencies.append(elapsed)
                    results.append(((name, plan), result))
                paused = time.perf_counter()
                stats = service.cache_stats()
                phase.interned += interned_count() - interned
                start += time.perf_counter() - paused
            shutil.rmtree(cache_dir, ignore_errors=True)
            phase.timed_s += time.perf_counter() - start
            # A fresh service over an empty cache directory counts from 0.
            _add_counters(phase, {}, stats)
            phase.memo_entries += stats["memory_entries"]
            for pair, result in results:
                if result is None:
                    phase.failed += 1
                elif pair[1] is None:
                    self.keys.append((pair, distribution_key(result)))
                else:
                    self.keys.append((pair, answer_key(result)))
        return phase

    def check(self, phase):
        expected: dict[tuple, str] = {}
        for name, plan in {pair for pair, _ in self.keys}:
            document = parse_pxml(
                (self.store / f"{name}.pxml").read_text(encoding="utf-8"))
            if plan is None:
                expected[(name, plan)] = distribution_key(
                    reference_distribution(document))
            else:
                expected[(name, plan)] = answer_key(
                    reference_answer(document, plan))
        return sum(1 for pair, key in self.keys if expected[pair] != key)


class Warm(Workload):
    name = "warm"
    server: Optional[subprocess.Popen] = None
    client: Optional[DataspaceClient] = None

    def setup(self) -> None:
        self.store = self.work / "store"
        self.cache = self.work / "cache"
        names = [corpus.doc_name(i) for i in range(self.sizes.documents)]
        with DataspaceService(directory=self.store,
                              cache_dir=self.cache) as service:
            _build_corpus(service, self.sizes, self.seed)
            service.delete("src-a")
            service.delete("src-b")
            self.expected = {
                name: (
                    [answer_key(service.query(name, plan)) for plan in PLANS],
                    distribution_key(service.aggregate(name, *AGGREGATE)),
                )
                for name in names
            }
            self.expected_search = fused_key(
                service.query_all(SEARCH_PLAN, glob=CORPUS_GLOB))
        order = list(names)
        random.Random(f"warm:{self.seed}").shuffle(order)
        self.order = order
        self.start_server()

    def op_count(self) -> int:
        return len(self.order)

    def start_server(self) -> None:
        """Start the launcher and connect once ``/healthz`` answers."""
        self.record_path = self.work / "server.json"
        log = self.work / "server.out"
        with open(log, "w", encoding="utf-8") as out:
            self.server = subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "serve.py"),
                 "--out", str(self.record_path),
                 *(["--trace"] if self.traced else []), "--",
                 str(self.store), "--cache-dir", str(self.cache),
                 "--http", "127.0.0.1:0"],
                stdout=out, stderr=subprocess.STDOUT, cwd=str(ROOT),
            )
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while True:
            text = log.read_text(encoding="utf-8")
            if "serving on http://" in text:
                address = text.split("serving on http://", 1)[1].split()[0]
                break
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise BenchmarkError(f"server did not start:\n{text}")
            time.sleep(0.005)
        host, _, port = address.rpartition(":")
        self.client = DataspaceClient(host, int(port))
        self.client.healthz()

    def stop_server(self) -> dict:
        """SIGTERM the server; returns its shutdown record."""
        if self.client is not None:
            self.client.close()
            self.client = None
        server, self.server = self.server, None
        if server is None:
            return {}
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            raise BenchmarkError("server did not stop on SIGTERM")
        return json.loads(self.record_path.read_text(encoding="utf-8"))

    def refresh(self, name: str) -> tuple:
        client = self.client
        assert client is not None
        answers = [client.query(name, plan) for plan in PLANS]
        fused = client.search(SEARCH_PLAN, glob=CORPUS_GLOB)
        distribution = client.aggregate(name, *AGGREGATE)
        return answers, fused, distribution

    def _correct(self, name: str, result: tuple) -> bool:
        answers, fused, distribution = result
        plans, aggregate = self.expected[name]
        return (
            [answer_key(answer) for answer in answers] == plans
            and fused_key(fused) == self.expected_search
            and distribution_key(distribution) == aggregate
        )

    def run(self, seconds, recorder):
        assert self.client is not None
        phase = Phase()
        self.refresh(self.order[0])  # untimed: first-request lazy state
        before = self.client.stats()
        op = 0
        start = time.perf_counter()
        while phase.timed_s < seconds:
            name = self.order[op % len(self.order)]
            elapsed, result = _attempt(recorder, op, lambda: self.refresh(name))
            op += 1
            phase.latencies.append(elapsed)
            # Compared at once, with the clock stopped, so responses are
            # not kept: a heap that grew through the loop would make each
            # full garbage collection in it slower.
            paused = time.perf_counter()
            phase.failed += result is None or not self._correct(name, result)
            start += time.perf_counter() - paused
            phase.timed_s = time.perf_counter() - start
        _add_counters(phase, before, self.client.stats())
        return phase

    def finish(self, phase: Phase, recorder: Optional[spans.Recorder]) -> None:
        """Stop the server and fold its record (peak memory, interned
        growth, spans) into ``phase``."""
        record = self.stop_server()
        phase.peak_rss_kb = record["maxrss_kb"]
        phase.interned = record["interned"]
        if recorder is not None:
            phase.spans = spans.attach_remote(recorder.spans, record["spans"])

    def check(self, phase):
        return 0  # every response was compared as it arrived

    def close(self) -> None:
        if self.server is not None:
            try:
                self.stop_server()
            except BenchmarkError:
                pass


class Churn(Workload):
    name = "churn"
    service: Optional[DataspaceService] = None

    def setup(self) -> None:
        self.service = DataspaceService(
            directory=self.work / "store", cache_dir=self.work / "cache")
        _build_corpus(self.service, self.sizes, self.seed)
        self.service.query_all(SEARCH_PLAN, glob=CORPUS_GLOB)

    def op_count(self) -> int:
        return self.sizes.documents

    def _op_inputs(self, op: int):
        rng = random.Random(f"churn:{self.seed}:{op}")
        entries_a, entries_b = corpus.book_entries(rng, corpus.group_shapes(
            f"churn:{self.seed}", op, self.sizes.groups))
        book_a, book_b = addressbook_documents(entries_a, entries_b)
        target = corpus.doc_name(rng.randrange(self.sizes.documents))
        # Feedback confirms a phone of group n0.  Conditioning costs most
        # in the largest group, and n0 takes every group shape once per
        # four ops, so every seed conditions the same mix.
        confirmable = {phone for name, phone in entries_a + entries_b
                       if name == "n0"}
        return rng, book_a, book_b, target, confirmable

    def _cycle(self, rng, book_a, book_b, target, confirmable):
        service = self.service
        service.load_document("src-a", book_a)
        service.load_document("src-b", book_b)
        service.integrate("src-a", "src-b", target,
                          rules=corpus.integration_rules(), dtd=corpus.DTD)
        fused = service.query_all(SEARCH_PLAN, glob=CORPUS_GLOB)
        uncertain = sorted(
            item.value for item in fused.items for source in item.sources
            if source.document == target and 0 < source.probability < 1
        )
        value = rng.choice(
            [value for value in uncertain if value in confirmable] or uncertain)
        service.feedback(target, SEARCH_PLAN, value, correct=True)
        posterior = service.query(target, SEARCH_PLAN)
        return fused, value, posterior

    def run(self, seconds, recorder):
        phase = Phase()
        self.log: list[tuple[int, str, str, str]] = []
        before = self.service.cache_stats()
        interned = interned_count()
        op = 0
        while phase.timed_s < seconds:
            # Ops run back to back, so the loop's wall time less input
            # making and fingerprinting is the sum of op latencies.
            inputs = self._op_inputs(op)
            elapsed, result = _attempt(
                recorder, op, lambda: self._cycle(*inputs))
            phase.latencies.append(elapsed)
            phase.timed_s += elapsed
            if result is None:
                phase.failed += 1
            else:
                fused, value, posterior = result
                self.log.append(
                    (op, fused_key(fused), value, answer_key(posterior)))
            op += 1
        after = self.service.cache_stats()
        _add_counters(phase, before, after)
        phase.memo_entries = after["memory_entries"]
        phase.interned = interned_count() - interned
        return phase

    def check(self, phase):
        """Replay the op sequence through an independent path: plain
        ``integrate``, a ``FeedbackSession`` and the uncached kernel."""
        rules = corpus.integration_rules()
        current = {}
        for index, (book_a, book_b) in enumerate(
                corpus.corpus_books(self.seed, self.sizes)):
            document = integrate(book_a, book_b, rules=rules,
                                 dtd=corpus.DTD).document
            current[corpus.doc_name(index)] = reference_answer(
                document, SEARCH_PLAN)
        failed = 0
        for op, fused, value, posterior in self.log:
            _, book_a, book_b, target, _ = self._op_inputs(op)
            document = integrate(book_a, book_b, rules=rules,
                                 dtd=corpus.DTD).document
            current[target] = reference_answer(document, SEARCH_PLAN)
            session = FeedbackSession(document)
            session.confirm(SEARCH_PLAN, value)
            ok = fused == fused_key(fuse_answers(current))
            current[target] = reference_answer(session.document, SEARCH_PLAN)
            ok = ok and posterior == answer_key(current[target])
            failed += not ok
        return failed

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


WORKLOADS = {cls.name: cls for cls in (Cold, Warm, Churn)}


# -- metrics -------------------------------------------------------------------


def percentile(values: list, fraction: float) -> float:
    """Inclusive linear-interpolation percentile."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(phase: Phase, setups: list) -> dict:
    good = phase.attempted - phase.failed
    return {
        "p50_ms": percentile(phase.latencies, 0.5) * 1e3,
        "p90_ms": percentile(phase.latencies, 0.9) * 1e3,
        "ops_per_s": good / phase.timed_s if phase.timed_s else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": phase.peak_rss_kb / 1024,
        "ok_frac": good / phase.attempted,
    }


def per_layer(traced: Phase, untraced: Phase) -> dict:
    totals = spans.Totals(traced.spans)
    ops = max(totals.ops, 1)
    metrics: dict = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = totals.calls.get(layer, 0) / ops
        metrics[f"{layer}.self_ms"] = totals.self_ns.get(layer, 0) / 1e6 / ops

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    traced_p50 = percentile(traced.latencies, 0.5)
    untraced_p50 = percentile(untraced.latencies, 0.5)
    metrics.update({
        "dbms.cache_store.writes": totals.cache_writes / ops,
        "dbms.cache_store.hit_ratio": ratio(traced.cache_hits,
                                            traced.cache_lookups),
        "dbms.cache_store.retries": traced.cache_retries / ops,
        "pxml.events_cache.entries": traced.memo_entries / ops,
        "pxml.events_compile.atom_frac": ratio(totals.atoms, totals.compiled),
        "pxml.events_compile.table_lookups": traced.table_lookups / ops,
        "pxml.events_compile.table_hit_ratio": ratio(traced.table_hits,
                                                     traced.table_lookups),
        "pxml.events.interned": traced.interned / ops,
        "trace.uncovered_ms": totals.uncovered_ns / 1e6 / ops,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1,
    })
    return metrics


# -- driver --------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one benchmark run reports."""

    attempted: int
    failed: int
    metrics: dict
    record: dict
    summary: dict


def _measure(workload: Workload, seconds: float,
             recorder: Optional[spans.Recorder]) -> Phase:
    """The timed loop (traced when ``recorder`` is given), then the
    untimed check of its outputs."""
    gc.collect()  # no garbage from set-up is left for the loop to collect
    if recorder is not None:
        recorder.install(spans.SERVICE_TARGETS + spans.CLIENT_TARGETS)
    try:
        phase = workload.run(seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    workload.finish(phase, recorder)
    phase.failed += workload.check(phase)
    return phase


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: Optional[Sizes] = None) -> Outcome:
    """One benchmark run: set up, measure, check, and compute metrics.

    Untraced runs set up :data:`SETUP_REPEATS` times (each in a fresh
    directory; the last is measured).  A traced run measures an untraced
    half and then a traced half, each from a fresh set-up replaying the
    same op list, so the tracing overhead is visible."""
    cls = WORKLOADS[name]
    sizes = sizes or FULL_SIZES[name]
    live: list[Workload] = []
    try:
        if not trace:
            setups = []
            for repeat in range(SETUP_REPEATS):
                workload = cls(seed, sizes, work / f"setup{repeat}")
                # Earlier set-ups are closed and dropped, so their memory
                # does not count towards the measured set-up's peak.
                live = [workload]
                gc.collect()
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
                if repeat + 1 < SETUP_REPEATS:
                    workload.close()
            phase = _measure(workload, seconds, None)
            metrics = end_to_end(phase, setups)
            attempted, failed = phase.attempted, phase.failed
            summary = dict(metrics, error_frac=failed / attempted)
        else:
            phases = []
            for recorder in (None, spans.Recorder()):
                workload = cls(seed, sizes, work / f"half{len(phases)}",
                               traced=recorder is not None)
                live = [workload]
                workload.setup()
                phases.append(_measure(workload, seconds / 2, recorder))
                workload.close()
            untraced, traced = phases
            metrics = per_layer(traced, untraced)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            summary = {
                "p50_ms": percentile(traced.latencies, 0.5) * 1e3,
                "mean_ms": statistics.fmean(traced.latencies) * 1e3,
                "untraced_p50_ms": percentile(untraced.latencies, 0.5) * 1e3,
                "error_frac": failed / attempted,
            }
        record = corpus.run_record(seed, name, sizes, workload.op_count())
        record["attempted"] = attempted
        if not trace:
            record["setups_s"] = setups
        return Outcome(attempted, failed, metrics, record, summary)
    finally:
        for workload in live:
            workload.close()
