"""Tests for uncertainty/size metrics."""

from fractions import Fraction

from hypothesis import given

from repro.pxml.build import certain_document, certain_prob, choice_prob
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility
from repro.pxml.serialize import parse_pxml
from repro.pxml.stats import expected_world_size, node_count, tree_stats
from repro.pxml.worlds import iter_worlds, world_count
from repro.xmlkit.nodes import XDocument, element
from .conftest import choice_chain_pxml, make_leaf, nested_pxml, pxml_documents


class TestTreeStats:
    def test_certain_document_census(self):
        doc = certain_document(XDocument(element("a", element("b", "x"))))
        stats = tree_stats(doc)
        # prob/poss pairs: root, b, text → 3 each; elements a,b; text x.
        assert stats.probability_nodes == 3
        assert stats.possibility_nodes == 3
        assert stats.element_nodes == 2
        assert stats.text_nodes == 1
        assert stats.total == 9
        assert stats.choice_points == 0
        assert stats.world_count == 1

    def test_choice_points_and_branching(self):
        node = choice_prob([("1/3", []), ("1/3", []), ("1/3", [])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        stats = tree_stats(doc)
        assert stats.choice_points == 1
        assert stats.max_branching == 3

    def test_total_matches_node_count(self):
        # node_count reads the census; the model's recursive method is
        # the independent count.
        doc = certain_document(XDocument(element("a", element("b", "x"))))
        assert tree_stats(doc).total == node_count(doc) == doc.node_count()

    @given(pxml_documents())
    def test_census_adds_up(self, doc):
        stats = tree_stats(doc)
        assert stats.total == node_count(doc) == doc.node_count()
        assert stats.world_count == world_count(doc)

    def test_census_of_each_node_kind(self):
        """A census can start at any node; its world count is the
        product over what it holds.  ``r`` holds one choice twice, and
        each place counts, as if it held two copies."""
        node = choice_prob([("1/3", [PXText("x")]), ("2/3", [make_leaf("a", "y")])])
        element = PXElement("r", children=[node, node])
        possibility = Possibility(1, [element, PXText("t")])
        counts = [
            (stats.probability_nodes, stats.possibility_nodes,
             stats.element_nodes, stats.text_nodes, stats.world_count)
            for stats in map(tree_stats, (node, element, possibility, PXText("t")))
        ]
        assert counts == [
            (2, 3, 1, 2, 2),
            (4, 6, 3, 4, 4),
            (4, 7, 3, 5, 4),
            (0, 0, 0, 1, 1),
        ]
        assert world_count(element) == 4

    def test_deep_documents(self):
        deep = parse_pxml(nested_pxml(5000))
        stats = tree_stats(deep)
        assert (stats.total, stats.world_count) == (15000, 1)
        assert node_count(deep) == 15000
        stats = tree_stats(parse_pxml(choice_chain_pxml(1500)))
        assert (stats.choice_points, stats.world_count) == (1500, 1501)

    def test_summary_mentions_worlds(self):
        doc = certain_document(XDocument(element("a")))
        assert "worlds" in tree_stats(doc).summary()


class TestExpectedWorldSize:
    def test_certain_size_is_plain_size(self):
        plain = XDocument(element("a", element("b", "x"), element("c")))
        doc = certain_document(plain)
        assert expected_world_size(doc) == plain.node_count()

    def test_expectation_weights_alternatives(self):
        # <r> plus either a leaf (3 plain nodes... a + text = 2) or nothing.
        node = choice_prob([("1/2", [make_leaf("a", "x")]), ("1/2", [])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        # world sizes: r+a+text = 3 w.p. 1/2 ; r alone = 1 w.p. 1/2.
        assert expected_world_size(doc) == 2

    def test_deep_documents(self):
        assert expected_world_size(parse_pxml(nested_pxml(5000))) == 5000
        # <r>, the k-th <a> with probability 2**-k, <b> and its text
        # with probability 2**-1500.
        chain = parse_pxml(choice_chain_pxml(1500))
        assert expected_world_size(chain) == 2 + Fraction(1, 2**1500)

    @given(pxml_documents())
    def test_matches_enumeration(self, doc):
        if world_count(doc) <= 200:
            expected = sum(
                world.probability * world.document.node_count()
                for world in iter_worlds(doc, limit=None)
            )
            assert expected_world_size(doc) == expected
