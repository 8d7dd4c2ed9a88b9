"""Tests for probabilistic-tree compaction.

The key invariant: simplification never changes the distribution over
*distinct* worlds (it may merge duplicate choice-worlds, which is the
point).
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings

from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.pxml.serialize import parse_pxml, pxml_to_text
from repro.pxml.simplify import simplify
from repro.pxml.worlds import distinct_worlds, world_count
from repro.xmlkit.nodes import canonical_key
from .conftest import make_leaf, nested_pxml, pxml_documents


def world_distribution(doc):
    return {
        canonical_key(document.root): prob
        for document, prob in distinct_worlds(doc, limit=None)
    }


class TestMergeDuplicates:
    def test_identical_possibilities_merge(self):
        node = choice_prob([("1/2", [make_leaf("a", "x")]),
                            ("1/2", [make_leaf("a", "x")])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        simplified, report = simplify(doc)
        assert report.duplicates_merged == 1
        assert world_count(simplified) == 1

    def test_merged_probability_sums(self):
        node = choice_prob([("1/4", [make_leaf("a", "x")]),
                            ("1/4", [make_leaf("a", "x")]),
                            ("1/2", [make_leaf("a", "y")])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        simplified, _ = simplify(doc)
        distribution = world_distribution(simplified)
        assert set(distribution.values()) == {Fraction(1, 2)}


class TestPruneZero:
    def test_zero_possibility_dropped(self):
        node = ProbNode([
            Possibility(1, [make_leaf("a", "x")]),
            Possibility(0, [make_leaf("a", "y")]),
        ])
        doc = PXDocument(ProbNode([Possibility(1, [PXElement("r", children=[node])])]))
        simplified, report = simplify(doc)
        assert report.zero_pruned == 1
        assert world_count(simplified) == 1


class TestFactorCommon:
    def test_common_child_extracted(self):
        shared = make_leaf("k", "same")
        node = choice_prob([
            ("1/2", [shared.copy(), make_leaf("a", "1")]),
            ("1/2", [shared.copy(), make_leaf("a", "2")]),
        ])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        before = doc.node_count()
        simplified, report = simplify(doc)
        assert report.common_factored == 1
        assert simplified.node_count() < before

    def test_distribution_preserved(self):
        shared = make_leaf("k", "same")
        node = choice_prob([
            ("1/3", [shared.copy(), make_leaf("a", "1")]),
            ("2/3", [shared.copy(), make_leaf("a", "2")]),
        ])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        simplified, _ = simplify(doc)
        assert world_distribution(simplified) == world_distribution(doc)

    def test_multiplicity_respected(self):
        # 'same' appears twice in one branch, once in the other: only one
        # copy is common.
        node = choice_prob([
            ("1/2", [make_leaf("k", "same"), make_leaf("k", "same")]),
            ("1/2", [make_leaf("k", "same")]),
        ])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        simplified, report = simplify(doc)
        assert report.common_factored == 1
        assert world_distribution(simplified) == world_distribution(doc)


class TestDistributionInvariance:
    @given(pxml_documents())
    @settings(suppress_health_check=[HealthCheck.too_slow], max_examples=40)
    def test_simplify_preserves_distinct_world_distribution(self, doc):
        if world_count(doc) > 200:
            return
        simplified, _ = simplify(doc)
        assert world_distribution(simplified) == world_distribution(doc)

    @given(pxml_documents())
    @settings(suppress_health_check=[HealthCheck.too_slow], max_examples=25)
    def test_fixpoint_never_grows(self, doc):
        if world_count(doc) > 200:
            return
        simplified, report = simplify(doc)
        assert simplified.node_count() <= doc.node_count()
        assert report.nodes_after == simplified.node_count()
        assert world_distribution(simplified) == world_distribution(doc)


def deep_chain(depth):
    """A certain chain of ``depth`` nested ``<a>`` elements (3·depth − 2
    nodes), built without recursion."""
    element = PXElement("a")
    for _ in range(depth - 1):
        element = PXElement("a", children=[certain_prob(element)])
    return element


class TestDeepDocuments:
    def test_5000_deep_document_compacts(self):
        """The pass keeps its own stack: a 5,000-deep document, which the
        recursive passes could not even count, compacts node for node."""
        text = nested_pxml(5000)
        simplified, report = simplify(parse_pxml(text))
        assert pxml_to_text(simplified) == text
        assert report.nodes_before == report.nodes_after == 3 * 5000
        assert report.zero_pruned == report.duplicates_merged == 0
        assert report.common_factored == report.trivial_collapsed == 0

    def test_deep_duplicates_merge(self):
        """Two identical 2,000-deep possibilities merge: keys are interned
        as the pass returns, so comparing them walks no subtree."""
        document = PXDocument(ProbNode([
            Possibility(Fraction(1, 2), [deep_chain(2000)]),
            Possibility(Fraction(1, 2), [deep_chain(2000)]),
        ]))
        simplified, report = simplify(document)
        assert report.duplicates_merged == 1
        assert report.nodes_before == 1 + 2 * (1 + 3 * 2000 - 2)
        assert report.nodes_after == 1 + 1 + 3 * 2000 - 2
        (possibility,) = simplified.root.possibilities
        assert possibility.prob == 1
