"""Kernel ablation: hash-consed + independence-decomposed probability
kernel vs the PR-3 pure-Shannon-expansion kernel.

The PR-4 kernel (``repro.pxml.events.event_probability``) prices the
production query shape — an OR of occurrence conjunctions over disjoint
subtrees — as a linear product (``P(∨ parts) = 1 − ∏ (1 − P(part))``
over variable-disjoint components) instead of expanding it.  The PR-3
kernel is preserved verbatim in ``repro.pxml.events_reference`` as the
baseline; both must return bit-identical Fractions.

Since PR 10 the bench also races the *compiled* top-down path
(``repro.pxml.events_compile``) against the bottom-up kernel on a
corpus-wide fan-out: the same plan shape priced across many documents
with one shared :class:`LiteralProbabilityTable`, so literal and
small-conjunction rows warmed by the first pass answer the rest.

Since the tree pass (``repro.query.treepass``) the bench also races it
against the walk + kernel (``use_cache=False``) on ``//person/tel`` over
the merged 4x4 address book, the integrated document whose answer events
are single entangled components.  A second leg races a predicate plan,
``//person[nm="p0"]/tel``, whose anchors the pass prices by the engine's
anchor-local walk, once per distinct person subtree: the record carries
the document's person anchors and the local walks the pass made.

Acceptance (asserted, after the JSON record is written so a noisy
runner never loses the trajectory point):

* ≥ ``BENCH_KERNEL_SPEEDUP_FLOOR`` (default 5×) on the independent-OR
  workload, Fraction-identical results in both modes;
* ≥ ``BENCH_COMPILED_WARM_FLOOR`` (default 2×) for warm compiled
  corpus-wide pricing vs per-document bottom-up pricing,
  Fraction-identical answers;
* ≥ ``BENCH_TREE_PASS_FLOOR`` (default 5×) for the tree pass against
  the walk + kernel on the merged 4x4 book, Fraction-identical answers
  with identical occurrence counts (the predicate leg is checked for
  identical answers only);
* a 2,600-deep / 5,200-literal chain prices through the worklist
  evaluator without ``RecursionError`` (the PR-3 kernel cannot price it
  at all — that side is reported, not raced).
"""

import os
import time
from fractions import Fraction

from repro.core.engine import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.pxml.build import choice_prob
from repro.pxml.events import all_of, any_of, event_probability, lit
from repro.pxml.events_compile import (
    LiteralProbabilityTable,
    compile_event,
    compiled_probability,
)
from repro.pxml.events_cache import EventProbabilityCache
from repro.pxml.events_reference import expansion_probability
from repro.pxml.model import PXElement, PXText
from repro.query.engine import ProbQueryEngine, QueryEngine

from .conftest import format_table, write_bench_json, write_result

#: Acceptance floor for the kernel speedup.  Locally the measured ratio
#: is ~40× on the asserted workload; shared CI runners are noisy enough
#: that wall-clock ratios can dip on scheduler stalls, so CI sets a
#: lower sanity floor via this env var instead of flaking.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_KERNEL_SPEEDUP_FLOOR", "5"))

#: Acceptance floor for warm compiled corpus-wide pricing vs bottom-up.
#: Locally the measured ratio is well above 2× (warm pricing is mostly
#: table lookups); CI can lower it on noisy runners.
COMPILED_WARM_FLOOR = float(os.environ.get("BENCH_COMPILED_WARM_FLOOR", "2"))

#: Acceptance floor for the tree pass against the walk + kernel.  Locally
#: the measured ratio is well above 10×; CI lowers it on noisy runners.
TREE_PASS_FLOOR = float(os.environ.get("BENCH_TREE_PASS_FLOOR", "5"))

#: The tree-pass workload: ``//person/tel`` over two books of this many
#: persons each, every cross-book pair confusable.
TREE_PASS_PERSONS = 4

#: The compiled fan-out workload: this many same-shaped documents, each
#: an OR of independent conjunctions over fresh choice variables.
CORPUS_DOCUMENTS = 24

#: The asserted workload: an OR of M independent K-literal conjunctions
#: over fresh 3-way choice variables (M·K variables total).
CONJUNCTIONS = 24
LITERALS_PER_CONJUNCTION = 4

#: Smaller/larger sizes reported alongside for the trajectory file.
SWEEP = [(12, 3), (24, 4), (40, 5)]

ROUNDS = 3


def _ternary():
    third = Fraction(1, 3)
    return choice_prob(
        [(third, [PXText("a")]), (third, [PXText("b")]), (third, [PXText("c")])]
    )


def build_independent_or(conjunctions: int, literals: int):
    """OR of ``conjunctions`` conjunctions of ``literals`` fresh choices."""
    groups = [[_ternary() for _ in range(literals)] for _ in range(conjunctions)]
    event = any_of([all_of([lit(node, 0) for node in group]) for group in groups])
    closed_form = 1 - (1 - Fraction(1, 3) ** literals) ** conjunctions
    return event, closed_form


def _time_best_of(rounds: int, func, *args):
    """Best-of-N wall time (and the last result): each call prices with a
    fresh memo, so repeats measure the kernel, not the cache."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def build_deep_chain(depth: int):
    """An alternating ∧/∨ chain with fresh variables at every level —
    ``2 · depth`` literals, nested ``depth`` levels deep.  Decomposes to
    a linear product; recursive kernels blow Python's stack on it."""
    event = lit(_ternary(), 0)
    for _ in range(depth):
        event = any_of([all_of([event, lit(_ternary(), 0)]), lit(_ternary(), 1)])
    return event


def test_kernel_speedup_on_independent_or():
    """Acceptance: the PR-4 kernel is ≥5× the PR-3 expansion kernel on
    OR-of-independent-conjunctions, with identical Fractions."""
    sweep_rows = []
    sweep_records = []
    mismatches = []
    asserted_speedup = None
    for conjunctions, literals in SWEEP:
        event, closed_form = build_independent_or(conjunctions, literals)
        reference_time, reference_prob = _time_best_of(
            ROUNDS, expansion_probability, event
        )
        kernel_time, kernel_prob = _time_best_of(ROUNDS, event_probability, event)
        if kernel_prob != reference_prob:
            mismatches.append(f"{conjunctions}×{literals}: kernel != reference")
        if kernel_prob != closed_form:
            mismatches.append(f"{conjunctions}×{literals}: kernel != closed form")
        speedup = reference_time / kernel_time if kernel_time else float("inf")
        if (conjunctions, literals) == (CONJUNCTIONS, LITERALS_PER_CONJUNCTION):
            asserted_speedup = speedup
        sweep_rows.append(
            [
                f"{conjunctions}×{literals}",
                f"{conjunctions * literals}",
                f"{reference_time * 1e3:8.2f} ms",
                f"{kernel_time * 1e3:8.2f} ms",
                f"{speedup:.1f}×",
            ]
        )
        sweep_records.append(
            {
                "conjunctions": conjunctions,
                "literals_per_conjunction": literals,
                "variables": conjunctions * literals,
                "reference_seconds": reference_time,
                "kernel_seconds": kernel_time,
                "speedup": speedup,
                "probability": float(kernel_prob),
            }
        )

    write_result(
        "bench_event_kernel",
        "Kernel ablation — OR of independent conjunctions, PR-3 expansion"
        f" vs PR-4 decomposition (best of {ROUNDS}, fresh memo per round)\n"
        + format_table(
            ["workload", "vars", "PR-3 kernel", "PR-4 kernel", "speedup"],
            sweep_rows,
        ),
    )
    write_bench_json(
        "event_kernel",
        {
            "workload": "or_of_independent_conjunctions",
            "rounds": ROUNDS,
            "sweep": sweep_records,
            "asserted": {
                "conjunctions": CONJUNCTIONS,
                "literals_per_conjunction": LITERALS_PER_CONJUNCTION,
                "speedup": asserted_speedup,
                "floor": SPEEDUP_FLOOR,
            },
        },
    )
    # Asserts run *after* the record lands: a floor miss on a noisy
    # runner still leaves the trajectory point on disk.
    assert not mismatches, "; ".join(mismatches)
    assert asserted_speedup is not None
    assert asserted_speedup >= SPEEDUP_FLOOR, (
        f"kernel speedup {asserted_speedup:.1f}× below the"
        f" {SPEEDUP_FLOOR}× acceptance floor"
    )


def test_compiled_corpus_fanout_speedup():
    """Acceptance: warm compiled pricing of a same-shaped corpus through
    one shared literal table is ≥2× per-document bottom-up pricing,
    Fraction-identical answers.

    Models :meth:`DataspaceService.query_all`: the same plan priced
    across ``CORPUS_DOCUMENTS`` documents.  Every document has fresh
    choice variables (fresh literal rows) but identical probabilities,
    so the value-keyed small-conjunction rows warmed by the first
    document answer the other 23 — and a warm second pass is lookups
    nearly end to end."""
    conjunctions, literals = CONJUNCTIONS, LITERALS_PER_CONJUNCTION
    corpus = [
        build_independent_or(conjunctions, literals)[0]
        for _ in range(CORPUS_DOCUMENTS)
    ]
    compiled = [compile_event(event) for event in corpus]
    table = LiteralProbabilityTable()

    def price_bottom_up():
        return [event_probability(event) for event in corpus]

    def price_compiled():
        return [
            compiled_probability(plan, table=table) for plan in compiled
        ]

    price_compiled()  # warm the shared table once
    bottom_up_time, bottom_up_probs = _time_best_of(ROUNDS, price_bottom_up)
    compiled_time, compiled_probs = _time_best_of(ROUNDS, price_compiled)
    speedup = bottom_up_time / compiled_time if compiled_time else float("inf")
    stats = table.stats()

    write_result(
        "bench_event_compile",
        "Compiled corpus fan-out — "
        f"{CORPUS_DOCUMENTS} documents × ({conjunctions}×{literals})"
        f" (best of {ROUNDS}, shared literal table, warm)\n"
        + format_table(
            ["leg", "corpus pass", "speedup"],
            [
                ["bottom-up", f"{bottom_up_time * 1e3:8.2f} ms", "1.0×"],
                ["compiled+table", f"{compiled_time * 1e3:8.2f} ms", f"{speedup:.1f}×"],
            ],
        ),
    )
    write_bench_json(
        "event_compile_fanout",
        {
            "workload": "corpus_fanout_or_of_independent_conjunctions",
            "documents": CORPUS_DOCUMENTS,
            "conjunctions": conjunctions,
            "literals_per_conjunction": literals,
            "rounds": ROUNDS,
            "bottom_up_seconds": bottom_up_time,
            "compiled_seconds": compiled_time,
            "speedup": speedup,
            "floor": COMPILED_WARM_FLOOR,
            "literal_hits": stats["literal_hits"],
            "conjunction_hits": stats["conjunction_hits"],
            "product_hits": stats["product_hits"],
        },
    )
    assert compiled_probs == bottom_up_probs, (
        "compiled corpus pricing disagrees with bottom-up"
    )
    assert stats["product_hits"] > 0, "cross-document product rows never hit"
    assert speedup >= COMPILED_WARM_FLOOR, (
        f"warm compiled fan-out speedup {speedup:.1f}× below the"
        f" {COMPILED_WARM_FLOOR}× acceptance floor"
    )


def test_tree_pass_speedup_on_merged_book(monkeypatch):
    """Acceptance: the tree pass prices ``//person/tel`` over the merged
    4x4 address book ≥ ``BENCH_TREE_PASS_FLOOR``× faster than the walk
    + kernel, with Fraction-identical answers and occurrence counts; and
    prices ``//person[nm="p0"]/tel`` there Fraction-identically too.

    Each pass round runs on a fresh event cache, so it measures the pass,
    not its memo; the walk + kernel side is ``use_cache=False``."""
    persons = TREE_PASS_PERSONS
    book_a, book_b = addressbook_documents(
        [(f"p{i}", f"1{i}") for i in range(persons)],
        [(f"p{i}", f"2{i}") for i in range(persons)],
    )
    document = integrate(
        book_a, book_b,
        rules=[DeepEqualRule(), LeafValueRule()],
        dtd=ADDRESSBOOK_DTD,
    ).document
    query = "//person/tel"
    predicate_query = '//person[nm="p0"]/tel'

    def snapshot(answer):
        return [(item.value, item.probability, item.occurrences) for item in answer]

    def tree_pass(plan):
        return snapshot(
            QueryEngine(document, cache=EventProbabilityCache()).query(plan)
        )

    def walk_and_kernel(plan):
        return snapshot(QueryEngine(document, use_cache=False).query(plan))

    walk_time, walk_answer = _time_best_of(ROUNDS, walk_and_kernel, query)
    pass_time, pass_answer = _time_best_of(ROUNDS, tree_pass, query)
    speedup = walk_time / pass_time if pass_time else float("inf")
    predicate_walk_time, predicate_walk_answer = _time_best_of(
        ROUNDS, walk_and_kernel, predicate_query
    )
    predicate_pass_time, predicate_pass_answer = _time_best_of(
        ROUNDS, tree_pass, predicate_query
    )
    predicate_speedup = (
        predicate_walk_time / predicate_pass_time
        if predicate_pass_time
        else float("inf")
    )

    # Every person is an anchor of the predicate plan; the pass walks one
    # per distinct person subtree.
    anchors = sum(
        1
        for node in document.iter_prob_nodes()
        for possibility in node.possibilities
        for child in possibility.children
        if isinstance(child, PXElement) and child.tag == "person"
    )
    local_walks = 0
    local_answer = ProbQueryEngine._local_answer

    def counted(self, *args):
        nonlocal local_walks
        local_walks += 1
        return local_answer(self, *args)

    monkeypatch.setattr(ProbQueryEngine, "_local_answer", counted)
    tree_pass(predicate_query)
    monkeypatch.undo()

    write_result(
        "bench_tree_pass",
        f"Tree pass — over the merged {persons}x{persons} address book"
        f" (best of {ROUNDS}, fresh cache per round)\n"
        + format_table(
            ["plan", "leg", "time", "speedup"],
            [
                [query, "walk + kernel", f"{walk_time * 1e3:8.2f} ms", "1.0×"],
                [query, "tree pass", f"{pass_time * 1e3:8.2f} ms", f"{speedup:.1f}×"],
                [
                    predicate_query,
                    "walk + kernel",
                    f"{predicate_walk_time * 1e3:8.2f} ms",
                    "1.0×",
                ],
                [
                    predicate_query,
                    f"tree pass ({local_walks} walks, {anchors} anchors)",
                    f"{predicate_pass_time * 1e3:8.2f} ms",
                    f"{predicate_speedup:.1f}×",
                ],
            ],
        ),
    )
    write_bench_json(
        "tree_pass",
        {
            "workload": "merged_addressbook_person_tel",
            "persons": persons,
            "query": query,
            "rounds": ROUNDS,
            "walk_kernel_seconds": walk_time,
            "tree_pass_seconds": pass_time,
            "speedup": speedup,
            "floor": TREE_PASS_FLOOR,
            "values": len(pass_answer),
            "predicate": {
                "query": predicate_query,
                "walk_kernel_seconds": predicate_walk_time,
                "tree_pass_seconds": predicate_pass_time,
                "speedup": predicate_speedup,
                "values": len(predicate_pass_answer),
                "anchors": anchors,
                "local_walks": local_walks,
            },
        },
    )
    assert pass_answer == walk_answer, "tree pass disagrees with the walk + kernel"
    assert predicate_pass_answer == predicate_walk_answer, (
        "tree pass disagrees with the walk + kernel on the predicate plan"
    )
    assert speedup >= TREE_PASS_FLOOR, (
        f"tree pass speedup {speedup:.1f}× below the"
        f" {TREE_PASS_FLOOR}× acceptance floor"
    )


def test_deep_chain_prices_without_recursion():
    """Acceptance: a 5,200-literal event nested 2,600 levels deep prices
    exactly — far past the default recursion limit the PR-3 kernel (and
    the PR-3 event constructors) lived under."""
    depth = 2_600
    start = time.perf_counter()
    event = build_deep_chain(depth)
    build_time = time.perf_counter() - start
    start = time.perf_counter()
    probability = event_probability(event)
    price_time = time.perf_counter() - start
    assert 0 < probability < 1
    # Closed form by the same recurrence, over plain Fractions:
    # p_{i+1} = 1 − (1 − p_i · 1/3) · (1 − 1/3).
    expected = Fraction(1, 3)
    third = Fraction(1, 3)
    for _ in range(depth):
        expected = 1 - (1 - expected * third) * (1 - third)
    assert probability == expected
    write_bench_json(
        "event_kernel_deep_chain",
        {
            "workload": "alternating_and_or_chain",
            "depth": depth,
            "literals": 2 * depth + 1,
            "build_seconds": build_time,
            "price_seconds": price_time,
            "probability": float(probability),
        },
    )
