"""Tests for plain ↔ probabilistic conversion."""

from fractions import Fraction

import pytest
from hypothesis import given

from repro.errors import ModelError
from repro.pxml.build import (
    certain_document,
    certain_element,
    certain_prob,
    choice_prob,
    to_certain,
)
from repro.pxml.model import PXElement, PXText
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize
from repro.pxml.worlds import world_count
from repro.xmlkit.nodes import XDocument, deep_equal, element
from .conftest import nested_xml, xml_documents


class TestCertainConversion:
    def test_certain_document_roundtrip(self):
        doc = XDocument(element("r", element("a", "x"), element("b", "y")))
        back = to_certain(certain_document(doc))
        assert deep_equal(back.root, doc.root)

    def test_certain_document_one_world(self):
        doc = XDocument(element("r", element("a", "x")))
        assert world_count(certain_document(doc)) == 1

    def test_whitespace_text_dropped(self):
        doc = XDocument(element("r", "   ", element("a")))
        converted = certain_document(doc)
        back = to_certain(converted)
        assert len(back.root.children) == 1

    def test_attributes_preserved(self):
        doc = XDocument(element("r", k="v"))
        assert to_certain(certain_document(doc)).root.attributes == {"k": "v"}

    @given(xml_documents())
    def test_roundtrip_property(self, doc):
        assert deep_equal(to_certain(certain_document(doc)).root, doc.root)

    @given(xml_documents())
    def test_certain_docs_have_one_world(self, doc):
        assert world_count(certain_document(doc)) == 1


class TestChoiceProb:
    def test_builds_distribution(self):
        node = choice_prob([("1/3", [PXText("a")]), ("2/3", [PXText("b")])])
        assert [p.prob for p in node.possibilities] == [Fraction(1, 3), Fraction(2, 3)]

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            choice_prob([])


class TestToCertain:
    def test_uncertain_rejected(self):
        node = choice_prob([("1/2", [PXText("a")]), ("1/2", [PXText("b")])])
        with pytest.raises(ModelError):
            to_certain(node)

    def test_single_possibility_below_one_rejected(self):
        from repro.pxml.model import Possibility, ProbNode
        node = ProbNode([Possibility(Fraction(1, 2), [PXText("a")])])
        with pytest.raises(ModelError):
            to_certain(node)

    def test_certain_prob_unwraps_to_children(self):
        children = to_certain(certain_prob(certain_element(element("a", "x"))))
        assert len(children) == 1
        assert children[0].tag == "a"


class TestDeepDocuments:
    """Both directions keep their own stacks (they raised RecursionError
    at a depth of 900)."""

    def test_5000_deep_roundtrip(self):
        text = nested_xml(5000)
        converted = certain_document(parse_document(text))
        assert serialize(to_certain(converted)) == serialize(parse_document(text))

    def test_choice_variables_are_numbered_children_first(self):
        converted = certain_element(element("r", element("a", "x"), "y"))
        a_node, y_node = converted.children
        (x_node,) = a_node.possibilities[0].children[0].children
        assert x_node.uid < a_node.uid < y_node.uid

    def test_first_uncertain_node_in_document_order_is_named(self):
        first = choice_prob([("1/2", [PXText("a")]), ("1/2", [PXText("b")])])
        second = choice_prob([("1/2", [PXText("c")]), ("1/2", [PXText("d")])])
        tree = PXElement("r", children=[
            certain_prob(PXElement("s", children=[first])),
            certain_prob(PXElement("t", children=[second])),
        ])
        with pytest.raises(ModelError, match=f"▽{first.uid} is uncertain"):
            to_certain(tree)
