"""Tests for XML serialization."""

from hypothesis import given

from repro.xmlkit.nodes import XText, deep_equal, element
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import (
    escape_attribute,
    escape_text,
    serialize,
    serialize_pretty,
)
from . import xml_reference as reference
from .conftest import xml_documents


class TestEscaping:
    def test_text_escapes_specials(self):
        assert escape_text("<a & b>") == "&lt;a &amp; b&gt;"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi"') == "say &quot;hi&quot;"

    def test_attribute_escapes_newline(self):
        assert "&#10;" in escape_attribute("a\nb")


class TestSerialize:
    def test_empty_element_self_closes(self):
        assert serialize(element("a")) == "<a/>"

    def test_attributes_sorted(self):
        assert serialize(element("a", z="1", b="2")) == '<a b="2" z="1"/>'

    def test_text_inline(self):
        assert serialize(element("a", "x")) == "<a>x</a>"

    def test_nested(self):
        assert serialize(element("a", element("b", "x"))) == "<a><b>x</b></a>"


class TestSerializePretty:
    def test_indents_nested_elements(self):
        text = serialize_pretty(element("a", element("b", "x")))
        assert text == "<a>\n  <b>x</b>\n</a>"

    def test_leaf_text_stays_inline(self):
        assert serialize_pretty(element("t", "Jaws")) == "<t>Jaws</t>"

    def test_empty_self_closes(self):
        assert serialize_pretty(element("a")) == "<a/>"

    @given(xml_documents())
    def test_pretty_roundtrip_semantically_equal(self, doc):
        reparsed = parse_document(serialize_pretty(doc))
        assert deep_equal(reparsed.root, doc.root)

    @given(xml_documents())
    def test_writers_match_the_reference(self, doc):
        assert serialize(doc) == reference.serialize(doc)
        assert serialize_pretty(doc) == reference.serialize_pretty(doc)
        assert serialize_pretty(doc, indent="\t") == reference.serialize_pretty(
            doc, indent="\t"
        )
