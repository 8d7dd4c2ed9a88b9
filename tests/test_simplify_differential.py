"""Compaction's one pass against the fixpoint loop it replaced.

``tests/simplify_reference.py`` is compaction as it was: a copy-first
pass repeated by ``simplify_fixpoint`` until the node count stopped
shrinking.  :func:`repro.pxml.simplify.simplify` must give the same
result in one pass: the same document text (``pxml_to_text``), all six
:class:`SimplifyReport` fields equal, and the choice variables numbered
in the same order (the kernel and conditioning break pivot ties by the
smallest uid).  Inputs:

* hypothesis documents up to depth 3;
* integrated address books in every conflict-group shape the benchmark
  corpus draws (2x2, 2x3, 3x2, 3x3, alone and side by side);
* their posteriors before compaction, for confirming and for rejecting
  each ``//person/tel`` value — what feedback hands to compaction;

and one document whose uid order decides the next posterior.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.feedback.conditioning import (
    _posterior,
    _satisfying_branches,
    condition_on_event,
)
from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.events import negate
from repro.pxml.model import PXDocument, PXElement, PXText
from repro.pxml.serialize import pxml_to_text
from repro.pxml.simplify import simplify
from repro.query.engine import ProbQueryEngine
from . import simplify_reference as reference
from .conftest import pxml_documents
from .test_tree_pass import grouped_book

FIELDS = (
    "nodes_before",
    "nodes_after",
    "zero_pruned",
    "duplicates_merged",
    "common_factored",
    "trivial_collapsed",
)

#: Conflict-group shapes: each alone, each next to another (as in the
#: benchmark's two-group books) and three side by side.
SHAPES = [
    [(2, 2)],
    [(2, 3)],
    [(3, 2)],
    [(3, 3)],
    [(2, 2), (2, 3)],
    [(2, 3), (3, 3)],
    [(3, 2), (2, 2)],
    [(3, 3), (3, 2)],
    [(2, 2), (3, 2), (3, 3)],
]


def uid_order(document):
    """The rank of each probability node's uid, the nodes taken in
    document pre-order (explicit stack)."""
    uids = []
    stack = [document.root]
    while stack:
        node = stack.pop()
        uids.append(node.uid)
        below = [
            prob
            for possibility in node.possibilities
            for child in possibility.children
            if isinstance(child, PXElement)
            for prob in child.children
        ]
        stack.extend(reversed(below))
    ranks = {uid: rank for rank, uid in enumerate(sorted(uids))}
    return [ranks[uid] for uid in uids]


def assert_matches_fixpoint(document):
    expected, expected_report = reference.simplify_fixpoint(document)
    compacted, report = simplify(document)
    assert pxml_to_text(compacted) == pxml_to_text(expected)
    assert [getattr(report, name) for name in FIELDS] == [
        getattr(expected_report, name) for name in FIELDS
    ]
    assert uid_order(compacted) == uid_order(expected)
    return compacted


def uncompacted_posterior(document, event, observed):
    """What ``condition_on_event`` hands to compaction, or ``None`` when
    the observation is impossible (rejecting a certain value)."""
    target = event if observed else negate(event)
    branches = _satisfying_branches(target)
    if not branches:
        return None
    return _posterior(document, target.variables(), branches)


class TestRandomDocuments:
    @given(pxml_documents(max_depth=3))
    @settings(
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_one_pass_is_the_fixpoint(self, document):
        compacted = assert_matches_fixpoint(document)
        again, report = simplify(compacted)
        assert pxml_to_text(again) == pxml_to_text(compacted)
        assert report.nodes_saved == 0


class TestAddressBooks:
    @pytest.mark.parametrize("shapes", SHAPES, ids=str)
    def test_book_and_its_posteriors(self, shapes):
        book = grouped_book(shapes)
        assert_matches_fixpoint(book)
        events = ProbQueryEngine(book).answer_events("//person/tel")
        assert len(events) == sum(a + b for a, b in shapes)
        posteriors = 0
        for value in sorted(events):
            event, _ = events[value]
            for observed in (True, False):
                posterior = uncompacted_posterior(book, event, observed)
                if posterior is not None:
                    assert_matches_fixpoint(posterior)
                    posteriors += 1
        assert posteriors > len(events)


class TestChoiceVariableOrder:
    def test_uid_order_shapes_the_next_posterior(self):
        """``k`` is common to both possibilities of the choice, so it is
        factored out ahead of ``a``.  The event of "x" under ``//a | //k``
        mentions the choice, ``a``'s and ``k``'s variables once each, so
        conditioning pivots on the smallest uid: the compacted document
        must number ``k``'s variable before ``a``'s, as the fixpoint's
        final copy did, or the next posterior comes out different."""
        def leaf(tag, options):
            return PXElement(
                tag, children=[choice_prob([(p, [PXText(v)]) for p, v in options])]
            )

        def shared():
            return leaf("k", [(Fraction(1, 3), "x"), (Fraction(2, 3), "z")])

        half = Fraction(1, 2)
        choice = choice_prob([
            (half, [leaf("a", [(half, "x"), (half, "y")]), shared()]),
            (half, [leaf("b", [(half, "x"), (half, "w")]), shared()]),
        ])
        document = PXDocument(certain_prob(PXElement("r", children=[choice])))
        posteriors = []
        for compacted, report in (
            simplify(document), reference.simplify_fixpoint(document)
        ):
            assert report.common_factored == 1
            events = ProbQueryEngine(compacted).answer_events("//a | //k")
            posteriors.append(
                pxml_to_text(condition_on_event(compacted, events["x"][0]))
            )
        assert posteriors[0] == posteriors[1]
