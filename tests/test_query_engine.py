"""Tests for the probabilistic query engine (§VI).

The central property: the event-based engine and per-world enumeration
return identical (value, probability) sets on every document.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.dbms.service import DataspaceService
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.errors import QueryError
from repro.pxml.build import certain_document, certain_prob, choice_prob
from repro.pxml.model import PXDocument, PXElement, PXText
from repro.pxml.serialize import parse_pxml
from repro.pxml.worlds import world_count
from repro.query.engine import ProbQueryEngine, query_enumeration
from repro.xmlkit.parser import parse_document
from .conftest import make_leaf, nested_pxml, nested_xml, pxml_documents

GENERIC = [DeepEqualRule(), LeafValueRule()]


def ranked_map(answer):
    return {item.value: item.probability for item in answer}


def assert_engines_agree(document, expression):
    event_based = ranked_map(ProbQueryEngine(document).query(expression))
    enumerated = ranked_map(query_enumeration(document, expression))
    assert event_based == enumerated, expression
    return event_based


@pytest.fixture(scope="module")
def figure2_document():
    book_a, book_b = addressbook_documents()
    return integrate(book_a, book_b, rules=GENERIC, dtd=ADDRESSBOOK_DTD).document


class TestCertainDocuments:
    def test_simple_path(self):
        doc = certain_document(parse_document("<r><m><t>Jaws</t></m></r>"))
        answer = ProbQueryEngine(doc).query("//m/t")
        assert ranked_map(answer) == {"Jaws": Fraction(1)}

    def test_predicate(self):
        doc = certain_document(parse_document(
            "<r><m><t>A</t><y>1</y></m><m><t>B</t><y>2</y></m></r>"
        ))
        answer = ProbQueryEngine(doc).query('//m[y="2"]/t')
        assert ranked_map(answer) == {"B": Fraction(1)}

    def test_attribute_value(self):
        doc = certain_document(parse_document('<r><m id="x"><t>A</t></m></r>'))
        answer = ProbQueryEngine(doc).query("//m/@id")
        assert ranked_map(answer) == {"x": Fraction(1)}

    def test_attribute_predicate(self):
        doc = certain_document(parse_document(
            '<r><m id="x"><t>A</t></m><m id="y"><t>B</t></m></r>'
        ))
        assert ranked_map(ProbQueryEngine(doc).query('//m[@id="y"]/t')) == {
            "B": Fraction(1)
        }


class TestFigure2Queries:
    def test_tel_values(self, figure2_document):
        answer = assert_engines_agree(figure2_document, "//person/tel")
        assert answer == {"1111": Fraction(3, 4), "2222": Fraction(3, 4)}

    def test_predicate_on_name(self, figure2_document):
        answer = assert_engines_agree(figure2_document, '//person[nm="John"]/tel')
        assert answer["1111"] == Fraction(3, 4)

    def test_quantified_contains(self, figure2_document):
        answer = assert_engines_agree(
            figure2_document,
            '//person[some $t in tel satisfies contains($t,"11")]/nm',
        )
        assert answer == {"John": Fraction(3, 4)}

    def test_negated_predicate(self, figure2_document):
        answer = assert_engines_agree(
            figure2_document, '//person[not(tel="1111")]/nm'
        )
        # John-without-1111 exists in: no-match world (the 2222 John) and
        # the match-world where tel chose 2222 → 1/2 + 1/4.
        assert answer == {"John": Fraction(3, 4)}

    def test_existence_probability(self, figure2_document):
        engine = ProbQueryEngine(figure2_document)
        assert engine.exists_probability('//person[tel="1111"]') == Fraction(3, 4)
        assert engine.exists_probability("//person") == Fraction(1)

    def test_answer_probability(self, figure2_document):
        engine = ProbQueryEngine(figure2_document)
        assert engine.answer_probability("//person/tel", "1111") == Fraction(3, 4)
        assert engine.answer_probability("//person/tel", "9999") == Fraction(0)


class TestValueAlternatives:
    def test_uncertain_leaf_value_splits_answer(self):
        title = PXElement("t", children=[
            choice_prob([("3/4", [PXText("Jaws")]), ("1/4", [PXText("Jaws 2")])])
        ])
        doc = PXDocument(certain_prob(PXElement("m", children=[certain_prob(title)])))
        answer = assert_engines_agree(doc, "//t")
        assert answer == {"Jaws": Fraction(3, 4), "Jaws 2": Fraction(1, 4)}

    def test_same_value_from_multiple_nodes_ors(self):
        node = choice_prob([
            ("1/2", [make_leaf("g", "Horror")]),
            ("1/2", [make_leaf("g", "Horror"), make_leaf("g", "Action")]),
        ])
        doc = PXDocument(certain_prob(PXElement("m", children=[node])))
        answer = assert_engines_agree(doc, "//g")
        assert answer["Horror"] == Fraction(1)
        assert answer["Action"] == Fraction(1, 2)

    def test_comparison_against_uncertain_value(self):
        year = PXElement("y", children=[
            choice_prob([("1/3", [PXText("1975")]), ("2/3", [PXText("1987")])])
        ])
        movie = PXElement("m", children=[certain_prob(year),
                                         certain_prob(make_leaf("t", "Jaws"))])
        doc = PXDocument(certain_prob(PXElement("r", children=[certain_prob(movie)])))
        answer = assert_engines_agree(doc, '//m[y="1975"]/t')
        assert answer == {"Jaws": Fraction(1, 3)}

    def test_numeric_comparison(self):
        year = PXElement("y", children=[
            choice_prob([("1/3", [PXText("1975")]), ("2/3", [PXText("1987")])])
        ])
        movie = PXElement("m", children=[certain_prob(year),
                                         certain_prob(make_leaf("t", "Jaws"))])
        doc = PXDocument(certain_prob(PXElement("r", children=[certain_prob(movie)])))
        answer = assert_engines_agree(doc, "//m[y > 1980]/t")
        assert answer == {"Jaws": Fraction(2, 3)}


def choice_of(prefix, count):
    """A choice among ``count`` equally likely text values."""
    return choice_prob(
        [(Fraction(1, count), [PXText(f"{prefix}{i}")]) for i in range(count)]
    )


class TestValueCap:
    def test_cap_raises_where_depth_first_merging_does(self):
        """<r>'s first two children already give 40 x 40 values, more than
        the cap, before the walk values the <p> below its third child
        (which would exceed the cap too): the error names <r>."""
        inner = PXElement("p", children=[choice_of("c", 40), choice_of("d", 40)])
        root = PXElement(
            "r", children=[choice_of("a", 40), choice_of("b", 40), certain_prob(inner)]
        )
        document = PXDocument(certain_prob(root))
        with pytest.raises(QueryError, match="value of <r> has more than 1024"):
            ProbQueryEngine(document, use_cache=False).query("//r")


class TestDeepDocuments:
    """The walk keeps its own stacks: the descendant axis and element
    values answer at any depth (both raised RecursionError at a depth of
    1,000)."""

    def test_descendants_of_a_1000_deep_document(self):
        document = parse_pxml(nested_pxml(1000))
        assert ProbQueryEngine(document).query("//a").values() == []
        assert ProbQueryEngine(document, use_cache=False).query("//a").values() == []

    def test_values_of_1000_nested_elements(self):
        depth = 1000
        document = certain_document(
            parse_document("<a>" * depth + "x" + "</a>" * depth)
        )
        answer = ProbQueryEngine(document).query("//a")
        assert [(item.value, item.probability, item.occurrences) for item in answer] \
            == [("x", Fraction(1), depth)]
        assert ProbQueryEngine(document).query('//a[. = "x"]/a').values() == ["x"]

    def test_stored_deep_documents_answer(self, tmp_path):
        service = DataspaceService(directory=tmp_path / "store")
        try:
            service.load_document("deep", parse_pxml(nested_pxml(1000)))
            service.load("tall", nested_xml(900))
            assert service.query("deep", "//a").values() == []
            assert service.query("tall", "//a").values() == []
            assert service.aggregate("tall", "count", "a") == {900: Fraction(1)}
        finally:
            service.close()


class TestUnsupportedFeatures:
    def test_positional_predicate_rejected(self):
        doc = certain_document(parse_document("<r><m/></r>"))
        with pytest.raises(QueryError):
            ProbQueryEngine(doc).query("//m[1]")

    def test_value_query_rejected(self):
        doc = certain_document(parse_document("<r><m/></r>"))
        with pytest.raises(QueryError):
            ProbQueryEngine(doc).query("count(//m)")

    def test_unknown_function_in_predicate_rejected(self):
        doc = certain_document(parse_document("<r><m><t>x</t></m></r>"))
        with pytest.raises(QueryError):
            ProbQueryEngine(doc).query("//m[frobnicate(t)]")


class TestAgreementProperty:
    QUERIES = (
        "//a",
        "//b",
        "//rec",
        "//a/b",
        "//a//x",
        '//a[b="alpha"]',
        '//a[contains(., "alpha")]/b',
        '//a[not(b)]',
        "//a[b or x]",
        '//a[some $c in .//b satisfies contains($c, "a")]',
    )

    @given(pxml_documents())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow],
              deadline=None)
    def test_event_engine_matches_enumeration(self, doc):
        if world_count(doc) > 400:
            return
        for query in self.QUERIES:
            assert_engines_agree(doc, query)

    def test_document_with_many_valued_root_is_answered(self):
        """336 worlds, and the root <a> has 274 distinct string values:
        every query is answered exactly, not refused at the value cap."""
        doc = parse_pxml(
            '<p:prob><p:poss prob="1"><a><p:prob>'
            '<p:poss prob="1/3">hello world</p:poss><p:poss prob="1/3"/>'
            '<p:poss prob="1/3">alpha</p:poss></p:prob><p:prob>'
            '<p:poss prob="1">alpha<a><p:prob><p:poss prob="1/2"/>'
            '<p:poss prob="1/4"><a><p:prob><p:poss prob="1/2">alpha'
            '</p:poss><p:poss prob="1/2">alphaalpha</p:poss></p:prob>'
            '<p:prob><p:poss prob="3/8">alphaalpha</p:poss>'
            '<p:poss prob="1/4">alpha  spaced  </p:poss>'
            '<p:poss prob="3/8">&lt;&amp;&gt;"\'</p:poss></p:prob></a><a>'
            '<p:prob><p:poss prob="1/3">alpha</p:poss>'
            '<p:poss prob="1/3">beta</p:poss>'
            '<p:poss prob="1/3">alpha&lt;&amp;&gt;"\'</p:poss></p:prob>'
            '<p:prob><p:poss prob="1/3">alpha</p:poss>'
            '<p:poss prob="1/3"/><p:poss prob="1/3">x1</p:poss></p:prob>'
            '</a></p:poss><p:poss prob="1/4">alpha</p:poss></p:prob>'
            '<p:prob><p:poss prob="1/2"/><p:poss prob="1/2">hello world'
            '</p:poss></p:prob></a></p:poss></p:prob></a></p:poss>'
            '</p:prob>'
        )
        assert world_count(doc) == 336
        for query in self.QUERIES:
            assert_engines_agree(doc, query)
