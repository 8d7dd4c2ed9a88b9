"""Conditioning's one path against the three it replaced.

``tests/conditioning_reference.py`` is conditioning as it was: a copy for
a certain observation, a forced copy of the whole document for one
satisfying branch, and a copying descent to the mixture for several.
:func:`repro.feedback.conditioning.condition_on_event` must give the same
posterior: the same document text (``pxml_to_text``) and the choice
variables numbered in the same order (the kernel and conditioning break
pivot ties by the smallest uid).  Inputs:

* integrated address books in every conflict-group shape the benchmark
  corpus draws, confirming and rejecting each ``//person/tel`` value;
* hypothesis documents up to depth 3 under six plans, for the first
  answer value, observed and not;
* second steps: the same comparison on each side's own posterior.

The Shannon expansion must also return the reference's branches, in the
reference's order.  Two results differ on purpose, and each has its own
test: a certain observation now returns the compacted prior (the
reference returned an uncompacted copy), and ``condition_on_assignment``
now returns a compacted posterior.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import FeedbackError, QueryError
from repro.feedback.conditioning import (
    _satisfying_branches,
    condition_on_assignment,
    condition_on_event,
)
from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.events import TRUE_EVENT, negate
from repro.pxml.model import PXDocument, PXElement, PXText
from repro.pxml.serialize import pxml_to_text
from repro.pxml.simplify import simplify
from repro.query.engine import ProbQueryEngine
from . import conditioning_reference as reference
from .conftest import pxml_documents
from .test_simplify_differential import SHAPES, uid_order
from .test_tree_pass import grouped_book

PLANS = ["//a", "//b", "//*", "//a/text()", "//a[b]", "//b | //c"]


def answer_events(document, plan):
    """The plan's answer events, or ``{}`` when the walk refuses the
    document (the value cap)."""
    try:
        return ProbQueryEngine(document).answer_events(plan)
    except QueryError:
        return {}


def assert_same_posterior(document, event, expected_document, expected_event, observed):
    """Condition ``document`` on ``event`` here and ``expected_document``
    (the same tree, or one identical in text and uid order) on
    ``expected_event`` (its counterpart) by the reference.  Returns both
    posteriors, or ``None`` when both refuse with the same message."""
    target = event if observed else negate(event)
    try:
        expected = reference.condition_on_event(
            expected_document, expected_event, observed=observed
        )
    except FeedbackError as refusal:
        with pytest.raises(FeedbackError) as caught:
            condition_on_event(document, event, observed=observed)
        assert str(caught.value) == str(refusal)
        return None
    assert _satisfying_branches(target) == reference._satisfying_branches(
        target, limit=reference.DEFAULT_BRANCH_LIMIT
    )
    posterior = condition_on_event(document, event, observed=observed)
    if target is TRUE_EVENT:
        # The listed difference of condition_on_event: the reference
        # returned an uncompacted copy of the prior.
        expected, _ = simplify(expected)
    assert pxml_to_text(posterior) == pxml_to_text(expected)
    assert uid_order(posterior) == uid_order(expected)
    return posterior, expected


def assert_second_steps(posterior, expected, plan, values, observations):
    """Condition each side's own posterior again, on the events its own
    document yields for ``plan``: each of ``values`` (all values when
    ``None``) that is still an answer, observed as each of
    ``observations``.  Returns the number of posteriors formed."""
    events = answer_events(posterior, plan)
    expected_events = answer_events(expected, plan)
    assert sorted(events) == sorted(expected_events)
    steps = 0
    for value in sorted(events) if values is None else values:
        for observed in observations if value in events else ():
            steps += assert_same_posterior(
                posterior, events[value][0],
                expected, expected_events[value][0], observed,
            ) is not None
    return steps


class TestAddressBooks:
    @pytest.mark.parametrize("shapes", SHAPES, ids=str)
    def test_every_phone_confirmed_and_rejected(self, shapes):
        book = grouped_book(shapes)
        events = ProbQueryEngine(book).answer_events("//person/tel")
        assert len(events) == sum(a + b for a, b in shapes)
        posteriors = 0
        for value in sorted(events):
            event, _ = events[value]
            for observed in (True, False):
                posteriors += assert_same_posterior(
                    book, event, book, event, observed
                ) is not None
        assert posteriors > len(events)

    @pytest.mark.parametrize("shapes", SHAPES[:4], ids=str)
    def test_second_steps(self, shapes):
        """Confirm each phone, then reject every phone on the posterior."""
        book = grouped_book(shapes)
        events = ProbQueryEngine(book).answer_events("//person/tel")
        steps = 0
        for value in sorted(events):
            event, _ = events[value]
            posterior, expected = assert_same_posterior(
                book, event, book, event, True
            )
            steps += assert_second_steps(
                posterior, expected, "//person/tel", None, [False]
            )
        assert steps > len(events)


class TestRandomDocuments:
    @given(pxml_documents(max_depth=3))
    @settings(
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_answer_values_observed_both_ways(self, document):
        """The first answer value of each plan, observed both ways; then,
        on the posterior of confirming it, the same value observed again
        both ways."""
        for plan in PLANS:
            events = answer_events(document, plan)
            if not events:
                continue
            value = min(events)
            event, _ = events[value]
            for observed in (True, False):
                result = assert_same_posterior(
                    document, event, document, event, observed
                )
                if result is not None and observed:
                    assert_second_steps(*result, plan, [value], [True, False])


class TestListedDifferences:
    def test_certain_observation_returns_the_compacted_prior(self):
        """Its two possibilities are duplicates, so compaction merges them."""
        half = Fraction(1, 2)
        twice = choice_prob([(half, [PXText("x")]), (half, [PXText("x")])])
        leaf = PXElement("a", children=[twice])
        document = PXDocument(
            certain_prob(PXElement("r", children=[certain_prob(leaf)]))
        )
        posterior = condition_on_event(document, TRUE_EVENT)
        expected = reference.condition_on_event(document, TRUE_EVENT)
        assert pxml_to_text(expected) == pxml_to_text(document)
        compacted, report = simplify(expected)
        assert report.duplicates_merged == 1
        assert pxml_to_text(posterior) == pxml_to_text(compacted)
        assert pxml_to_text(posterior) == pxml_to_text(simplify(document)[0])

    @pytest.mark.parametrize("shapes", SHAPES[:4], ids=str)
    def test_condition_on_assignment_is_compacted(self, shapes):
        book = grouped_book(shapes)
        choices = [
            node for node in book.iter_prob_nodes() if len(node.possibilities) > 1
        ]
        assert choices
        assignments = [
            {node.uid: index}
            for node in choices[:6]
            for index in range(len(node.possibilities))
        ]
        assignments.append({node.uid: 0 for node in choices[:6]})
        for assignment in assignments:
            posterior = condition_on_assignment(book, assignment)
            compacted, _ = simplify(
                reference.condition_on_assignment(book, assignment)
            )
            assert pxml_to_text(posterior) == pxml_to_text(compacted)
            assert uid_order(posterior) == uid_order(compacted)
