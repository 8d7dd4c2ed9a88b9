"""Tests for compiled query plans, the event-probability cache and the
batch query API.

The central properties:

* a plan compiled once and reused gives answers identical (Fraction-equal)
  to fresh compilation, with and without the cache;
* cached and uncached ``event_probability`` agree on arbitrary events;
* ``QueryEngine.run_batch`` matches per-query ``run`` exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import IntegrationConfig, integrate
from repro.core.oracle import Oracle
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.errors import IntegrationError, QueryError
from repro.pxml.build import certain_document, certain_prob
from repro.pxml.model import PXText


def certain_prob_text(value):
    return certain_prob(PXText(value))
from repro.pxml.events import all_of, any_of, event_probability, lit, negate
from repro.pxml.events_cache import EventProbabilityCache, cache_for, invalidate
from repro.pxml.simplify import simplify
from repro.query.engine import ProbQueryEngine, QueryEngine
from repro.query.plan import QueryPlan, compile_plan
from repro.query.ranking import ranked_from_events
from repro.xmlkit.parser import parse_document
from .conftest import pxml_documents

GENERIC = [DeepEqualRule(), LeafValueRule()]

QUERIES = [
    "//person/tel",
    "//person/nm",
    '//person[tel="1111"]/nm',
    '//person[nm="john"]/tel',
    "//person[not(tel)]/nm",
    '//person[some $t in tel satisfies contains($t, "1")]/nm',
]


def ranked_map(answer):
    return {item.value: item.probability for item in answer}


def price_events(engine, query):
    """The answer of ``query`` priced the event way: the walk's answer
    events through the engine's bulk pricing (the path ``query`` takes
    for plans outside the tree pass's scope)."""
    return ranked_from_events(engine.answer_events(query), engine.probabilities)


@pytest.fixture(scope="module")
def figure2_document():
    book_a, book_b = addressbook_documents()
    return integrate(book_a, book_b, rules=GENERIC, dtd=ADDRESSBOOK_DTD).document


class TestCompilePlan:
    def test_compile_from_string(self):
        plan = compile_plan("//person/tel")
        assert isinstance(plan, QueryPlan)
        assert plan.expression == "//person/tel"
        assert plan.step_count == 2

    def test_idempotent_on_plans(self):
        plan = compile_plan("//a/b")
        assert compile_plan(plan) is plan

    def test_fingerprint_is_structural(self):
        assert compile_plan("//a/b").fingerprint == compile_plan("//a/b").fingerprint
        assert compile_plan("//a/b").fingerprint != compile_plan("//a/c").fingerprint
        assert (
            compile_plan("//a[b]").fingerprint
            != compile_plan("//a[c]").fingerprint
        )

    def test_fingerprint_hashable(self):
        {compile_plan(q).fingerprint for q in QUERIES}

    def test_fingerprint_digest_shape(self):
        digest = compile_plan("//a/b").fingerprint_digest
        assert len(digest) == 64 and int(digest, 16) >= 0  # sha256 hex
        assert digest == compile_plan("//a/b").fingerprint_digest
        assert digest != compile_plan("//a/c").fingerprint_digest

    def test_fingerprint_digest_pinned(self):
        """The persistent-cache stability contract: this digest keys
        answers on disk.  If this test fails you changed the fingerprint
        or its encoding — bump repro.dbms.cache_store.SCHEMA_VERSION so
        existing cache files are rebuilt, then re-pin."""
        assert compile_plan("//person/tel").fingerprint_digest == (
            compile_plan("//person/tel").fingerprint_digest
        )
        pinned = "e328e037d7ec5267769cf5c0552e21fc8e7b752f8a5d5627bc10645c3dd15723"
        assert compile_plan('//a[b="x"]/c').fingerprint_digest == pinned

    def test_positional_predicate_rejected_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_plan("//person[1]")

    def test_arithmetic_rejected_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_plan("//person[tel + 1]")

    def test_unknown_function_rejected_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_plan("//person[last()]")

    def test_unbound_variable_rejected_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_plan("//person[$ghost]")

    def test_quantifier_binds_its_variable(self):
        compile_plan('//person[some $t in tel satisfies contains($t, "1")]')

    def test_non_nodeset_rejected(self):
        with pytest.raises(QueryError):
            compile_plan('"just a literal"')


class TestPlanReuse:
    def test_plan_reuse_matches_fresh_compilation(self, figure2_document):
        for query in QUERIES:
            plan = compile_plan(query)
            fresh = ranked_map(ProbQueryEngine(figure2_document).query(query))
            reused_engine = ProbQueryEngine(figure2_document)
            first = ranked_map(reused_engine.query(plan))
            second = ranked_map(reused_engine.query(plan))
            assert first == fresh, query
            assert second == fresh, query

    def test_one_plan_many_documents(self):
        plan = compile_plan("//m/t")
        doc_a = certain_document(parse_document("<r><m><t>Jaws</t></m></r>"))
        doc_b = certain_document(parse_document("<r><m><t>Alien</t></m></r>"))
        assert ProbQueryEngine(doc_a).query(plan).values() == ["Jaws"]
        assert ProbQueryEngine(doc_b).query(plan).values() == ["Alien"]

    def test_cached_and_uncached_engines_agree(self, figure2_document):
        for query in QUERIES:
            cached = ranked_map(
                ProbQueryEngine(figure2_document, use_cache=True).query(query)
            )
            uncached = ranked_map(
                ProbQueryEngine(figure2_document, use_cache=False).query(query)
            )
            assert cached == uncached, query

    def test_repeated_query_hits_answer_cache(self, figure2_document):
        cache = EventProbabilityCache()
        engine = ProbQueryEngine(figure2_document, cache=cache)
        first = engine.answer_events("//person/tel")
        second = engine.answer_events("//person/tel")
        assert second is first  # same cached map, no recomputation

    def test_shared_cache_keeps_documents_separate(self):
        """A cache instance explicitly shared across documents must not
        leak one document's answers into another's (answer maps are
        keyed per document; only the event memo is safely shared)."""
        doc_a = certain_document(parse_document("<r><m><t>Jaws</t></m></r>"))
        doc_b = certain_document(parse_document("<r><m><t>Psycho</t></m></r>"))
        shared = EventProbabilityCache()
        assert QueryEngine(doc_a, cache=shared).run("//m/t").values() == ["Jaws"]
        assert QueryEngine(doc_b, cache=shared).run("//m/t").values() == ["Psycho"]
        from repro.query.aggregates import count_distribution

        assert count_distribution(doc_a, "m", cache=shared) == {1: Fraction(1)}
        two = certain_document(parse_document("<r><m/><m/></r>"))
        assert count_distribution(two, "m", cache=shared) == {2: Fraction(1)}

    def test_engines_share_document_cache(self, figure2_document):
        engine_a = ProbQueryEngine(figure2_document)
        engine_b = ProbQueryEngine(figure2_document)
        assert engine_a.cache is engine_b.cache
        assert engine_a.cache is cache_for(figure2_document)


class TestEventProbabilityCache:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=pxml_documents(), data=st.data())
    def test_cached_agrees_with_uncached_on_random_events(self, document, data):
        """Property: for events assembled from the document's own choice
        points, the memoized probability equals the reference one."""
        nodes = [
            node for node in document.iter_prob_nodes()
            if len(node.possibilities) > 1
        ]
        cache = EventProbabilityCache()
        literals = [
            lit(node, data.draw(st.integers(0, len(node.possibilities) - 1)))
            for node in nodes[:4]
        ]
        events = []
        if literals:
            events.append(any_of(literals))
            events.append(all_of(literals))
            events.append(negate(any_of(literals)))
            events.append(any_of([all_of(literals), negate(literals[0])]))
        for event in events:
            assert cache.probability(event) == event_probability(event)
            # Second read comes from the memo and must not drift.
            assert cache.probability(event) == event_probability(event)

    def test_bulk_matches_single(self, figure2_document):
        engine = ProbQueryEngine(figure2_document, use_cache=False)
        events = [
            event
            for query in QUERIES
            for event, _ in engine.answer_events(query).values()
        ]
        cache = EventProbabilityCache()
        bulk = cache.probabilities_of(events)
        assert bulk == [event_probability(event) for event in events]

    def test_stats_count_hits(self, figure2_document):
        cache = EventProbabilityCache()
        engine = ProbQueryEngine(figure2_document, cache=cache)
        price_events(engine, "//person/tel")
        misses = cache.misses
        assert misses > 0 and cache.hits == 0
        # The answer-event cache absorbs the repeat entirely.
        price_events(engine, "//person/tel")
        assert cache.misses == misses

    def test_tree_pass_repeat_is_a_memo_hit(self, figure2_document, monkeypatch):
        """The tree pass's twin of the contract above: a repeated query
        is served from the priced-answer memo, without a second pass."""
        from repro.query import treepass

        cache = EventProbabilityCache()
        engine = ProbQueryEngine(figure2_document, cache=cache)
        first = engine.query("//person/tel")
        assert cache.stats()["answers"] == 1

        def no_second_pass(*args):
            raise AssertionError("the repeat ran the pass again")

        monkeypatch.setattr(treepass, "fold_tree", no_second_pass)
        assert engine.query("//person/tel") == first
        assert cache.stats()["answers"] == 1

    def test_invalidate_drops_registry_entry(self, figure2_document):
        cache = cache_for(figure2_document)
        price_events(ProbQueryEngine(figure2_document), "//person/tel")
        assert len(cache) > 0
        invalidate(figure2_document)
        assert len(cache) == 0
        assert cache_for(figure2_document) is not cache

    def test_invalidate_drops_tree_pass_memo(self, figure2_document):
        cache = cache_for(figure2_document)
        ProbQueryEngine(figure2_document).query("//person/tel")
        assert cache.stats()["answers"] > 0
        invalidate(figure2_document)
        assert cache.stats()["answers"] == 0
        assert cache_for(figure2_document) is not cache

    def test_simplify_is_functional_and_keeps_input_cache(self, figure2_document):
        """simplify() copies with fresh uids: the input document's cache
        stays valid and populated, and the simplified copy answers
        identically through its own (fresh) cache."""
        document = figure2_document.copy()
        price_events(ProbQueryEngine(document), "//person/tel")
        entries_before = len(cache_for(document))
        assert entries_before > 0
        simplified, _ = simplify(document)
        assert len(cache_for(document)) == entries_before
        assert ranked_map(
            price_events(ProbQueryEngine(simplified), "//person/tel")
        ) == ranked_map(price_events(ProbQueryEngine(document), "//person/tel"))

    def test_simplify_keeps_input_tree_pass_memo(self, figure2_document):
        """The same contract for the tree pass: the input document keeps
        its priced-answer memo, and the simplified copy answers
        identically through its own."""
        document = figure2_document.copy()
        answer = ProbQueryEngine(document).query("//person/tel")
        plan = compile_plan("//person/tel")
        memo = cache_for(document).priced_answer(document, plan.fingerprint)
        assert memo is not None
        simplified, _ = simplify(document)
        assert cache_for(document).priced_answer(document, plan.fingerprint) is memo
        assert ranked_map(ProbQueryEngine(simplified).query("//person/tel")) == (
            ranked_map(answer)
        )

    def test_in_place_mutation_requires_invalidate(self):
        """The documented contract for code that mutates probability
        nodes in place: call invalidate(), after which fresh engines
        serve the new distribution."""
        from repro.pxml.build import choice_prob
        from repro.pxml.model import (
            PXDocument, PXElement, PXText, Possibility, ProbNode,
        )

        choice = choice_prob([
            (Fraction(1, 2), [PXElement("t", children=[certain_prob_text("a")])]),
            (Fraction(1, 2), [PXElement("t", children=[certain_prob_text("b")])]),
        ])
        document = PXDocument(
            ProbNode([Possibility(1, [PXElement("r", children=[choice])])])
        )
        engine = ProbQueryEngine(document)
        assert engine.query("//t").probability_of("a") == Fraction(1, 2)
        # Mutate probabilities in place — the one case invalidate() is for.
        choice.possibilities[0].prob = Fraction(3, 4)
        choice.possibilities[1].prob = Fraction(1, 4)
        invalidate(document)
        assert ProbQueryEngine(document).query("//t").probability_of("a") == (
            Fraction(3, 4)
        )


class TestBatchAPI:
    def test_run_batch_matches_per_query_run(self, figure2_document):
        engine = QueryEngine(figure2_document)
        batched = engine.run_batch(QUERIES)
        for query, answer in zip(QUERIES, batched):
            single = QueryEngine(figure2_document, use_cache=False).run(query)
            assert ranked_map(answer) == ranked_map(single), query

    def test_run_batch_preserves_order_and_length(self, figure2_document):
        engine = QueryEngine(figure2_document)
        answers = engine.run_batch(["//person/nm", "//person/tel"])
        assert len(answers) == 2
        assert all(answers[0].values()) and "1111" in answers[1].values()

    def test_run_batch_accepts_plans(self, figure2_document):
        plans = [compile_plan(q) for q in QUERIES[:3]]
        engine = QueryEngine(figure2_document)
        batched = engine.run_batch(plans)
        for plan, answer in zip(plans, batched):
            assert ranked_map(answer) == ranked_map(engine.run(plan))

    def test_empty_batch(self, figure2_document):
        assert QueryEngine(figure2_document).run_batch([]) == []

    def test_run_batch_uncached_agrees(self, figure2_document):
        cached = QueryEngine(figure2_document, use_cache=True).run_batch(QUERIES)
        uncached = QueryEngine(figure2_document, use_cache=False).run_batch(QUERIES)
        for left, right in zip(cached, uncached):
            assert ranked_map(left) == ranked_map(right)

    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(document=pxml_documents())
    def test_batch_matches_singles_on_random_documents(self, document):
        queries = ["//a", "//b//x", "//item", "//rec/a"]
        engine = QueryEngine(document)
        try:
            batched = engine.run_batch(queries)
        except QueryError:
            # Random documents can exceed the engine's value-realisation
            # cap — a legitimate refusal.  Batch and single paths must
            # refuse identically.
            with pytest.raises(QueryError):
                for query in queries:
                    QueryEngine(document, use_cache=False).run(query)
            return
        for query, answer in zip(queries, batched):
            single = QueryEngine(document, use_cache=False).run(query)
            assert ranked_map(answer) == ranked_map(single), query


class TestCacheWiring:
    def test_count_distribution_memoized(self, figure2_document):
        from repro.query.aggregates import compile_aggregate, count_distribution

        cache = cache_for(figure2_document)
        first = count_distribution(figure2_document, "person")
        # Memoized under the compiled spec's plan-derived fingerprint.
        key = compile_aggregate("count", "person").fingerprint
        assert cache.aggregate(figure2_document, key) is not None
        second = count_distribution(figure2_document, "person")
        assert second == first
        # Returned mappings are fresh copies — caller mutation must not
        # poison the cache.
        second[999] = Fraction(1)
        assert count_distribution(figure2_document, "person") == first
        uncached = count_distribution(figure2_document, "person", use_cache=False)
        assert uncached == first

    def test_approximate_exact_top_matches_engine(self, figure2_document):
        from repro.query.approximate import approximate_query

        answer = approximate_query(
            figure2_document, "//person/tel", samples=50, seed=7, exact_top=2
        )
        engine = ProbQueryEngine(figure2_document)
        for item in answer.items:
            if item.exact:
                exact = engine.answer_probability("//person/tel", item.value)
                assert item.estimate == float(exact)
                assert item.standard_error == 0.0
        assert any(item.exact for item in answer.items)


class TestSourceWeightNormalization:
    def _config(self, weights):
        return IntegrationConfig(oracle=Oracle(GENERIC), source_weights=weights)

    def test_float_halves(self):
        config = self._config((0.5, 0.5))
        assert config.source_weights == (Fraction(1, 2), Fraction(1, 2))
        assert all(isinstance(w, Fraction) for w in config.source_weights)

    def test_high_precision_complement_normalizes(self):
        # Coercion of high-precision floats can leave the exact sum a
        # hair off 1 even though the floats sum to exactly 1.0.
        weight = 0.13436424411240122
        config = self._config((weight, 1 - weight))
        total = sum(config.source_weights, Fraction(0))
        assert total == 1
        assert abs(config.source_weights[0] - Fraction(weight)) < Fraction(1, 10**6)

    def test_random_complements_always_accepted(self):
        import random

        rng = random.Random(1)
        for _ in range(50):
            weight = rng.random()
            if not 0 < weight < 1:
                continue
            config = self._config((weight, 1 - weight))
            assert sum(config.source_weights, Fraction(0)) == 1

    def test_grossly_wrong_weights_still_raise(self):
        with pytest.raises(IntegrationError):
            self._config((Fraction(1, 3), Fraction(1, 3)))

    def test_string_weights(self):
        config = self._config(("1/3", "2/3"))
        assert config.source_weights == (Fraction(1, 3), Fraction(2, 3))

    def test_weights_affect_integration(self):
        """Normalized weights flow into value-conflict probabilities."""
        doc_a = parse_document("<person><tel>1111</tel></person>")
        doc_b = parse_document("<person><tel>2222</tel></person>")
        from repro.core.engine import Integrator

        weight = 0.7514816557045541  # high-precision, needs normalization
        config = IntegrationConfig(
            oracle=Oracle(GENERIC),
            dtd=ADDRESSBOOK_DTD,
            source_weights=(weight, 1 - weight),
        )
        result = Integrator(config).integrate(doc_a, doc_b)
        answer = ProbQueryEngine(result.document).query("//person/tel")
        probs = ranked_map(answer)
        assert probs["1111"] == config.source_weights[0]
        assert probs["2222"] == config.source_weights[1]
