"""Tests for feedback conditioning (exact Bayes on documents)."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.dbms.service import DataspaceService
from repro.errors import FeedbackError
from repro.feedback.conditioning import (
    DEFAULT_BRANCH_LIMIT,
    FeedbackSession,
    condition_on_assignment,
    condition_on_event,
)
from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.events import all_of, any_of, event_probability, lit
from repro.pxml.model import PXDocument, PXElement, PXText
from repro.pxml.serialize import parse_pxml
from repro.pxml.worlds import distinct_worlds, world_count
from repro.query.engine import ProbQueryEngine
from repro.xmlkit.nodes import canonical_key
from .conftest import choice_chain_pxml, leaf_choice_pxml, pxml_documents

GENERIC = [DeepEqualRule(), LeafValueRule()]


@pytest.fixture
def figure2():
    book_a, book_b = addressbook_documents()
    return integrate(book_a, book_b, rules=GENERIC, dtd=ADDRESSBOOK_DTD).document


def distribution(document):
    return {
        canonical_key(doc.root): prob
        for doc, prob in distinct_worlds(document, limit=None)
    }


def bayes_reference(document, expression, value, observed):
    """Posterior over worlds via explicit filtering (the definition)."""
    from repro.xmlkit.xpath import XPath
    xpath = XPath(expression)
    posterior = {}
    total = Fraction(0)
    for doc, prob in distinct_worlds(document, limit=None):
        values = {
            node.text() if hasattr(node, "text") else node.value
            for node in xpath.select(doc)
        }
        holds = value in values
        if holds is observed:
            posterior[canonical_key(doc.root)] = prob
            total += prob
    return {key: prob / total for key, prob in posterior.items()}


class TestConditionOnEvent:
    def test_confirm_matches_bayes(self, figure2):
        engine = ProbQueryEngine(figure2)
        event, _ = engine.answer_events("//person/tel")["1111"]
        conditioned = condition_on_event(figure2, event, observed=True)
        assert distribution(conditioned) == bayes_reference(
            figure2, "//person/tel", "1111", True
        )

    def test_reject_matches_bayes(self, figure2):
        engine = ProbQueryEngine(figure2)
        event, _ = engine.answer_events("//person/tel")["1111"]
        conditioned = condition_on_event(figure2, event, observed=False)
        assert distribution(conditioned) == bayes_reference(
            figure2, "//person/tel", "1111", False
        )

    def test_posterior_sums_to_one(self, figure2):
        engine = ProbQueryEngine(figure2)
        event, _ = engine.answer_events("//person/tel")["2222"]
        conditioned = condition_on_event(figure2, event)
        assert sum(distribution(conditioned).values()) == 1

    def test_impossible_observation_rejected(self, figure2):
        from repro.pxml.events import FALSE_EVENT
        with pytest.raises(FeedbackError):
            condition_on_event(figure2, FALSE_EVENT, observed=True)

    def test_certain_observation_is_noop(self, figure2):
        from repro.pxml.events import TRUE_EVENT
        conditioned = condition_on_event(figure2, TRUE_EVENT, observed=True)
        assert distribution(conditioned) == distribution(figure2)

    def test_branch_limit(self):
        """Thirteen three-way choices, each observed to take one of its
        first two options: 2**13 satisfying branches, past the limit."""
        third = Fraction(1, 3)
        choices = [
            choice_prob([(third, [PXText(str(i))]) for i in range(3)])
            for _ in range(13)
        ]
        document = PXDocument(certain_prob(PXElement("r", children=choices)))
        event = all_of(any_of([lit(node, 0), lit(node, 1)]) for node in choices)
        with pytest.raises(FeedbackError) as caught:
            condition_on_event(document, event)
        assert str(caught.value) == (
            f"conditioning needs more than {DEFAULT_BRANCH_LIMIT} branches;"
            " simplify the observation"
        )

    def test_event_probability_is_preserved_inside(self, figure2):
        # P(E) computed via events equals the world mass that survives.
        engine = ProbQueryEngine(figure2)
        event, _ = engine.answer_events("//person/tel")["1111"]
        prior = event_probability(event)
        reference = bayes_reference(figure2, "//person/tel", "1111", True)
        assert prior == Fraction(3, 4)
        assert len(reference) == 2


class TestConditionOnAssignment:
    def test_forces_choice(self, figure2):
        node = next(
            n for n in figure2.iter_prob_nodes() if len(n.possibilities) > 1
        )
        conditioned = condition_on_assignment(figure2, {node.uid: 0})
        assert world_count(conditioned) < world_count(figure2)


class TestFeedbackSession:
    def test_confirm_updates_ranking(self, figure2):
        session = FeedbackSession(figure2)
        before = session.ranked("//person/tel").probability_of("1111")
        step = session.confirm("//person/tel", "1111")
        after = session.ranked("//person/tel").probability_of("1111")
        assert before == Fraction(3, 4)
        assert step.prior == Fraction(3, 4)
        assert after == 1

    def test_reject_removes_value(self, figure2):
        session = FeedbackSession(figure2)
        session.reject("//person/tel", "1111")
        assert session.ranked("//person/tel").probability_of("1111") == 0

    def test_worlds_shrink(self, figure2):
        session = FeedbackSession(figure2)
        step = session.confirm("//person/tel", "1111")
        assert step.worlds_after < step.worlds_before

    def test_confirm_impossible_value_rejected(self, figure2):
        session = FeedbackSession(figure2)
        with pytest.raises(FeedbackError):
            session.confirm("//person/tel", "9999")

    def test_reject_impossible_value_is_noop(self, figure2):
        session = FeedbackSession(figure2)
        step = session.reject("//person/tel", "9999")
        assert step.worlds_before == step.worlds_after

    def test_history_recorded(self, figure2):
        session = FeedbackSession(figure2)
        session.confirm("//person/tel", "1111")
        session.reject("//person/tel", "2222")
        assert [step.kind for step in session.history] == ["confirm", "reject"]

    def test_sequential_feedback_converges(self, figure2):
        # Confirm both numbers: only the two-Johns world survives.
        session = FeedbackSession(figure2)
        session.confirm("//person/tel", "1111")
        session.confirm("//person/tel", "2222")
        worlds = distinct_worlds(session.document)
        assert len(worlds) == 1
        assert worlds[0][1] == 1

    def test_contradictory_feedback_rejected(self, figure2):
        session = FeedbackSession(figure2)
        session.confirm("//person/tel", "1111")
        with pytest.raises(FeedbackError):
            session.reject("//person/tel", "1111")


class TestPropertyBayes:
    QUERY = "//a | //b | //x | //item | //rec"

    @given(pxml_documents())
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow],
              deadline=None)
    def test_conditioning_equals_world_filtering(self, document):
        if world_count(document) > 200:
            return
        engine = ProbQueryEngine(document)
        events = engine.answer_events(self.QUERY)
        if not events:
            return
        value, (event, _) = sorted(events.items())[0]
        prior = event_probability(event)
        if prior == 0 or prior == 1:
            return
        conditioned = condition_on_event(document, event, observed=True)
        assert distribution(conditioned) == bayes_reference(
            document, self.QUERY, value, True
        )


class TestDeepDocuments:
    """Feedback and the census on stored documents deeper than the
    interpreter stack; both raised a raw ``RecursionError``."""

    def test_1000_deep_chain_with_an_uncertain_leaf(self):
        service = DataspaceService()
        service.load_document("deep", parse_pxml(leaf_choice_pxml(1000)))
        service.load_document("other", parse_pxml(leaf_choice_pxml(1000)))
        before = service.stats("deep")
        assert (before.element_nodes, before.choice_points) == (1001, 1)
        assert before.world_count == 2
        step = service.feedback("deep", "//b", "x")
        assert step.prior == Fraction(1, 2)
        assert (step.worlds_before, step.worlds_after) == (2, 1)
        after = service.stats("deep")
        assert (after.total, after.world_count) == (step.nodes_after, 1)
        assert service.query("deep", "//b").values() == ["x"]
        step = service.feedback("other", "//b", "x", correct=False)
        assert step.prior == Fraction(1, 2)
        assert service.query("other", "//b").values() == ["y"]

    def test_1200_deep_chain_of_choices(self):
        """The event of x is a 1,200-literal conjunction, so the Shannon
        expansion must not recurse either."""
        service = DataspaceService()
        service.load_document("chain", parse_pxml(choice_chain_pxml(1200)))
        before = service.stats("chain")
        assert (before.choice_points, before.world_count) == (1200, 1201)
        step = service.feedback("chain", "//b", "x")
        assert step.prior == Fraction(1, 2**1200)
        assert (step.worlds_before, step.worlds_after) == (1201, 1)
        after = service.stats("chain")
        assert (after.choice_points, after.element_nodes) == (0, 1202)
        assert service.query("chain", "//b").values() == ["x"]
