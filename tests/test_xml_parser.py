"""Tests for the hand-written XML parser."""

import pytest
from hypothesis import given

from repro.errors import XMLParseError
from repro.xmlkit.nodes import XText, deep_equal
from repro.xmlkit.parser import parse_document, parse_element
from repro.xmlkit.serializer import serialize, serialize_pretty
from .conftest import nested_xml, xml_documents


class TestBasicParsing:
    def test_single_element(self):
        assert parse_element("<a/>").tag == "a"

    def test_nested_elements(self):
        root = parse_element("<a><b><c/></b></a>")
        assert root.find("b").find("c").tag == "c"

    def test_text_content(self):
        assert parse_element("<a>hello</a>").text() == "hello"

    def test_mixed_content_order(self):
        root = parse_element("<a>x<b/>y</a>")
        kinds = [type(child).__name__ for child in root.children]
        assert kinds == ["XText", "XElement", "XText"]

    def test_attributes_double_quoted(self):
        assert parse_element('<a k="v"/>').attributes == {"k": "v"}

    def test_attributes_single_quoted(self):
        assert parse_element("<a k='v'/>").attributes == {"k": "v"}

    def test_multiple_attributes(self):
        root = parse_element('<a x="1" y="2"/>')
        assert root.attributes == {"x": "1", "y": "2"}

    def test_whitespace_in_tags_tolerated(self):
        assert parse_element('<a  k="v"  ></a>').attributes == {"k": "v"}


class TestEntities:
    def test_predefined_entities(self):
        assert parse_element("<a>&lt;&gt;&amp;&quot;&apos;</a>").text() == "<>&\"'"

    def test_decimal_charref(self):
        assert parse_element("<a>&#65;</a>").text() == "A"

    def test_hex_charref(self):
        assert parse_element("<a>&#x41;</a>").text() == "A"

    def test_entities_in_attributes(self):
        assert parse_element('<a k="&amp;"/>').attributes["k"] == "&"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_element("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_element("<a>&amp</a>")


class TestStructuralFeatures:
    def test_comments_skipped(self):
        assert parse_element("<a><!-- hi --><b/></a>").find("b") is not None

    def test_cdata_literal(self):
        assert parse_element("<a><![CDATA[<not-a-tag>]]></a>").text() == "<not-a-tag>"

    def test_processing_instruction_skipped(self):
        assert parse_element("<a><?pi data?><b/></a>").find("b") is not None

    def test_xml_declaration(self):
        doc = parse_document('<?xml version="1.0"?><a/>')
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse_document('<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>')
        assert doc.root.tag == "a"

    def test_trailing_comment_allowed(self):
        assert parse_document("<a/><!-- done -->").root.tag == "a"


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a/><b/>",
            "text only",
            "<a><!-- unterminated </a>",
            "<1tag/>",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XMLParseError):
            parse_element(text)

    def test_error_carries_location(self):
        try:
            parse_element("<a>\n<b></c></a>")
        except XMLParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected XMLParseError")


class TestRoundTrip:
    def test_simple_roundtrip(self):
        text = '<movie year="1975"><title>Jaws &amp; co</title></movie>'
        doc = parse_document(text)
        assert serialize(doc) == text

    @given(xml_documents())
    def test_serialize_parse_identity(self, doc):
        reparsed = parse_document(serialize(doc))
        assert deep_equal(reparsed.root, doc.root, ignore_order=False) or deep_equal(
            reparsed.root, doc.root
        )

    @given(xml_documents())
    def test_double_serialize_stable(self, doc):
        once = serialize(doc)
        assert serialize(parse_document(once)) == once


class TestDepth:
    def test_deep_document_round_trips(self):
        text = nested_xml(5000)
        doc = parse_document(text)
        depth, node = 1, doc.root
        while node.children:
            depth, node = depth + 1, node.children[0]
        assert depth == 5000
        assert serialize(doc) == text
        # No indent: a padded rendering grows with the square of the depth.
        lines = ["<a>"] * 4999 + ["<a/>"] + ["</a>"] * 4999
        assert serialize_pretty(doc, indent="") == "\n".join(lines)
        assert serialize(parse_document(serialize_pretty(doc, indent=""))) == (
            text.replace("><", ">\n<")
        )
