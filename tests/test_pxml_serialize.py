"""Tests for the probabilistic XML wire format."""

import pytest
from hypothesis import given

from repro.errors import ModelError, ProbabilityError, XMLParseError
from repro.pxml.build import certain_document
from repro.pxml.model import px_deep_equal
from repro.pxml.serialize import parse_pxml, pxml_to_text, pxml_to_xml, xml_to_pxml
from repro.xmlkit.nodes import XDocument, element
from repro.xmlkit.parser import parse_document
from . import xml_reference as reference
from .conftest import nested_pxml, pxml_documents


class TestEncoding:
    def test_certain_doc_encoding_shape(self):
        doc = certain_document(XDocument(element("a", "x")))
        text = pxml_to_text(doc)
        assert text.startswith("<p:prob><p:poss")
        assert 'prob="1"' in text

    def test_probabilities_as_fractions(self):
        text = pxml_to_text(parse_pxml(
            '<p:prob><p:poss prob="1/3"><a/></p:poss>'
            '<p:poss prob="2/3"><b/></p:poss></p:prob>'
        ))
        assert 'prob="1/3"' in text and 'prob="2/3"' in text

    def test_pretty_parses_back(self):
        doc = certain_document(XDocument(element("a", element("b", "x"))))
        pretty = pxml_to_text(doc, pretty=True)
        assert px_deep_equal(parse_pxml(pretty).root, doc.root)


class TestDecoding:
    def test_missing_prob_attr_rejected(self):
        with pytest.raises(ModelError):
            parse_pxml("<p:prob><p:poss><a/></p:poss></p:prob>")

    def test_wrong_root_rejected(self):
        with pytest.raises(ModelError):
            parse_pxml("<movies/>")

    def test_stray_child_of_prob_rejected(self):
        with pytest.raises(ModelError):
            parse_pxml("<p:prob><a/></p:prob>")

    def test_misplaced_poss_rejected(self):
        with pytest.raises(ModelError):
            parse_pxml(
                '<p:prob><p:poss prob="1"><p:poss prob="1"/></p:poss></p:prob>'
            )

    def test_bare_text_under_element_rejected(self):
        with pytest.raises(ModelError):
            parse_pxml('<p:prob><p:poss prob="1"><a>text</a></p:poss></p:prob>')

    def test_non_prob_child_of_element_rejected(self):
        with pytest.raises(ModelError, match="children of <a> must be <p:prob>, got <b>"):
            parse_pxml('<p:prob><p:poss prob="1"><a><b/></a></p:poss></p:prob>')

    def test_syntax_error_wins_over_a_layering_error(self):
        with pytest.raises(XMLParseError, match="mismatched end tag"):
            parse_pxml('<p:prob><a/><p:poss prob="1"><b></c></p:poss></p:prob>')

    def test_first_layering_error_wins(self):
        with pytest.raises(ProbabilityError):
            parse_pxml(
                '<p:prob><p:poss prob="2"><a/></p:poss>'
                "<p:poss><b/></p:poss></p:prob>"
            )

    def test_text_inside_poss_accepted(self):
        doc = parse_pxml('<p:prob><p:poss prob="1"><a><p:prob>'
                         '<p:poss prob="1">hello</p:poss></p:prob></a></p:poss></p:prob>')
        assert doc.is_certain()


class TestRoundTrip:
    @given(pxml_documents())
    def test_text_roundtrip(self, doc):
        assert px_deep_equal(parse_pxml(pxml_to_text(doc)).root, doc.root)

    @given(pxml_documents())
    def test_xml_object_roundtrip(self, doc):
        encoded = pxml_to_xml(doc)
        assert px_deep_equal(xml_to_pxml(encoded), doc.root)

    @pytest.mark.parametrize("pretty", [False, True])
    @given(doc=pxml_documents())
    def test_text_matches_the_reference_writer(self, doc, pretty):
        assert pxml_to_text(doc, pretty=pretty) == reference.pxml_to_text(
            doc, pretty=pretty
        )

    def test_deep_document_round_trips(self):
        text = nested_pxml(5000)
        doc = parse_pxml(text)
        depth, node = 0, doc.root
        while node is not None:
            element = node.possibilities[0].children[0]
            depth, node = depth + 1, element.children[0] if element.children else None
        assert depth == 5000
        assert pxml_to_text(doc) == text
        # The indented form grows with the square of the depth: 600 levels
        # are already past where a recursive writer stops.
        shallower = parse_pxml(nested_pxml(600))
        pretty = pxml_to_text(shallower, pretty=True)
        assert pxml_to_text(parse_pxml(pretty)) == nested_pxml(600)
