"""Ablation A2: event-based query evaluation vs world enumeration,
and cached vs uncached repeated-query workloads.

The reference semantics evaluates the query in every possible world —
exponential in the number of choice points.  The event engine compiles
the query into boolean events and computes exact probabilities without
touching worlds.  This ablation times both on documents with a growing
number of independent uncertain persons (worlds = 3^n).

The second ablation exercises the plan/cache subsystem: a repeated-query
workload (the production shape — dashboards and APIs re-issue the same
queries against one integration) with the per-document cache enabled vs
disabled.  Answers must be identical Fractions; the cached mode must be
at least 5× faster.
"""

import os
import time

import pytest

from repro.core.engine import integrate
from repro.core.rules import Decision, DeepEqualRule, LeafValueRule, PredicateRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.pxml.events_cache import EventProbabilityCache
from repro.pxml.worlds import world_count
from repro.query.engine import ProbQueryEngine, QueryEngine, query_enumeration

from .conftest import format_table, write_bench_json, write_result


def _different_names_differ(a, b, context):
    """Different names ⇒ different people; same name stays uncertain."""
    name_a, name_b = a.find("nm"), b.find("nm")
    if name_a is None or name_b is None:
        return None
    if name_a.text() != name_b.text():
        return Decision.NO_MATCH
    return None


RULES = [
    DeepEqualRule(),
    PredicateRule("name-discriminates", _different_names_differ, tags=("person",)),
    LeafValueRule(),
]
QUERY = '//person[some $t in tel satisfies contains($t, "1")]/nm'


def build_document(person_count: int):
    """n independently-uncertain persons → 3^n possible worlds."""
    entries_a = [(f"p{i}", f"1{i}1") for i in range(person_count)]
    entries_b = [(f"p{i}", f"2{i}2") for i in range(person_count)]
    book_a, book_b = addressbook_documents(entries_a, entries_b)
    return integrate(book_a, book_b, rules=RULES, dtd=ADDRESSBOOK_DTD).document


@pytest.mark.parametrize("person_count", [2, 4, 6, 8])
def test_event_engine(benchmark, person_count):
    document = build_document(person_count)
    # use_cache=False: time the evaluation itself, not cache hits (the
    # cached hot path has its own ablation below).
    engine = ProbQueryEngine(document, use_cache=False)
    answer = benchmark(engine.query, QUERY)
    assert len(answer) == person_count


@pytest.mark.parametrize("person_count", [2, 4, 6, 8])
def test_event_engine_cached(benchmark, person_count):
    """The cached hot path: repeated executions resolve from the
    per-document answer cache."""
    document = build_document(person_count)
    engine = ProbQueryEngine(document)
    answer = benchmark(engine.query, QUERY)
    assert len(answer) == person_count


@pytest.mark.parametrize("person_count", [2, 4, 6])
def test_enumeration_engine(benchmark, person_count):
    document = build_document(person_count)
    answer = benchmark(query_enumeration, document, QUERY)
    assert len(answer) == person_count


def test_agreement_at_scale(benchmark):
    document = build_document(7)
    assert world_count(document) == 3**7

    def both():
        event_based = ProbQueryEngine(document).query(QUERY)
        enumerated = query_enumeration(document, QUERY)
        return event_based, enumerated

    event_based, enumerated = benchmark.pedantic(both, rounds=2, iterations=1)
    assert {i.value: i.probability for i in event_based} == {
        i.value: i.probability for i in enumerated
    }
    write_result(
        "ablation_query_eval",
        "Ablation A2 — event-based vs per-world evaluation agree on a"
        f" {3**7:,}-world document (see pytest-benchmark timings for the"
        " asymptotic gap)\n"
        + format_table(
            ["engine", "answers"],
            [["event-based", str(len(event_based))],
             ["enumeration", str(len(enumerated))]],
        ),
    )


# -- cached vs uncached repeated-query workload --------------------------------

#: A small workload of distinct queries; the repetition (not the variety)
#: is what the cache amortizes.
WORKLOAD = [
    QUERY,
    "//person/nm",
    "//person/tel",
    '//person[contains(nm, "p1")]/tel',
    "//person[not(tel)]/nm",
]
REPEATS = 20

#: Acceptance floor for the cached-vs-uncached speedup.  Locally the
#: measured ratio is well above 10×; shared CI runners are noisy enough
#: that wall-clock ratios can dip on scheduler stalls, so CI sets a
#: lower sanity floor via this env var instead of flaking.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", "5"))


def _run_workload_uncached(document):
    answers = []
    for _ in range(REPEATS):
        # Fresh engine, no shared cache: every repetition pays the full
        # traversal and Shannon expansion — the seed behaviour.
        engine = QueryEngine(document, use_cache=False)
        answers.append([engine.run(query) for query in WORKLOAD])
    return answers


def _run_workload_cached(document, cache):
    # One long-lived engine — the deployment shape: plans compile once,
    # the per-document cache stays hot across rounds.
    engine = QueryEngine(document, cache=cache)
    answers = []
    for _ in range(REPEATS):
        answers.append(engine.run_batch(WORKLOAD))
    return answers


def test_cached_vs_uncached_repeated_workload():
    """Acceptance: ≥5× on a repeated-query workload with the cache on,
    with identical (Fraction-equal) answers in both modes."""
    document = build_document(6)

    start = time.perf_counter()
    uncached = _run_workload_uncached(document)
    uncached_time = time.perf_counter() - start

    cache = EventProbabilityCache()
    start = time.perf_counter()
    cached = _run_workload_cached(document, cache)
    cached_time = time.perf_counter() - start

    # Exact agreement, round by round, query by query, Fraction by Fraction.
    for round_uncached, round_cached in zip(uncached, cached):
        for answer_uncached, answer_cached in zip(round_uncached, round_cached):
            assert {i.value: i.probability for i in answer_uncached} == {
                i.value: i.probability for i in answer_cached
            }

    speedup = uncached_time / cached_time if cached_time else float("inf")
    write_result(
        "ablation_query_cache",
        f"Ablation A2b — repeated-query workload ({len(WORKLOAD)} queries ×"
        f" {REPEATS} rounds, 3^6-world document), cache off vs on\n"
        + format_table(
            ["mode", "total time", "per round", "speedup"],
            [
                ["uncached", f"{uncached_time * 1e3:8.1f} ms",
                 f"{uncached_time / REPEATS * 1e3:6.2f} ms", "1.0×"],
                ["cached", f"{cached_time * 1e3:8.1f} ms",
                 f"{cached_time / REPEATS * 1e3:6.2f} ms", f"{speedup:.1f}×"],
            ],
        )
        + f"\ncache stats: {cache.stats()}",
    )
    write_bench_json(
        "ablation_query_cache",
        {
            "workload": "repeated_query_workload",
            "queries": len(WORKLOAD),
            "rounds": REPEATS,
            "uncached_seconds": uncached_time,
            "cached_seconds": cached_time,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
            "cache_stats": cache.stats(),
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"cache speedup {speedup:.1f}× below the {SPEEDUP_FLOOR}× acceptance"
        f" floor (uncached {uncached_time:.3f}s vs cached {cached_time:.3f}s)"
    )


def test_batch_vs_loop_single_pass(benchmark):
    """run_batch on a cold cache vs a per-query loop of uncached
    engines: even without repetition, the batch's queries share
    sub-events through the one cache."""
    document = build_document(6)

    def batch_cold():
        return QueryEngine(document, cache=EventProbabilityCache()).run_batch(
            WORKLOAD
        )

    answers = benchmark(batch_cold)
    loop_answers = [
        QueryEngine(document, use_cache=False).run(query) for query in WORKLOAD
    ]
    for batch_answer, loop_answer in zip(answers, loop_answers):
        assert {i.value: i.probability for i in batch_answer} == {
            i.value: i.probability for i in loop_answer
        }
