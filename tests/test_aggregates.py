"""Tests for exact aggregate distributions (counts and the wider
count/sum/min/max/exists family)."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import QueryError
from repro.pxml.build import certain_document, certain_prob, choice_prob
from repro.pxml.events_cache import cache_for
from repro.pxml.model import PXDocument, PXElement
from repro.pxml.worlds import world_count
from repro.query.aggregates import (
    aggregate_distribution,
    aggregate_distribution_enumerated,
    compile_aggregate,
    count_distribution,
    count_distribution_enumerated,
    count_quantile,
    exists_probability,
    expected_count,
    expected_value,
    format_distribution,
    max_distribution,
    min_distribution,
    sum_distribution,
)
from repro.xmlkit.nodes import XElement
from repro.xmlkit.parser import parse_document
from .conftest import make_leaf, pxml_documents


def uncertain_doc():
    """<r> with one certain <m> and one 1/3-chance <m>."""
    maybe = choice_prob([("1/3", [make_leaf("m", "x")]), ("2/3", [])])
    return PXDocument(certain_prob(PXElement("r", children=[
        certain_prob(make_leaf("m", "y")), maybe,
    ])))


class TestCountDistribution:
    def test_certain_document(self):
        doc = certain_document(parse_document("<r><m/><m/><other/></r>"))
        assert count_distribution(doc, "m") == {2: Fraction(1)}

    def test_uncertain_counts(self):
        assert count_distribution(uncertain_doc(), "m") == {
            1: Fraction(2, 3),
            2: Fraction(1, 3),
        }

    def test_wildcard_counts_all_elements(self):
        doc = certain_document(parse_document("<r><m/><n/></r>"))
        assert count_distribution(doc, "*") == {3: Fraction(1)}

    def test_text_filtered_counts(self):
        doc = uncertain_doc()
        assert count_distribution(doc, "m", text="x") == {
            0: Fraction(2, 3),
            1: Fraction(1, 3),
        }

    def test_text_filter_with_value_choice(self):
        title = PXElement("t", children=[
            choice_prob([("1/4", ["Jaws"]), ("3/4", ["Heat"])])
        ])
        doc = PXDocument(certain_prob(PXElement("r", children=[certain_prob(title)])))
        assert count_distribution(doc, "t", text="Jaws") == {
            0: Fraction(3, 4),
            1: Fraction(1, 4),
        }

    def test_text_filter_rejects_non_leaf(self):
        doc = certain_document(parse_document("<r><m><sub/></m></r>"))
        with pytest.raises(QueryError):
            count_distribution(doc, "m", text="x")

    def test_matches_enumeration_on_figure2(self):
        from repro.core.engine import integrate
        from repro.core.rules import DeepEqualRule, LeafValueRule
        from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
        book_a, book_b = addressbook_documents()
        doc = integrate(book_a, book_b,
                        rules=[DeepEqualRule(), LeafValueRule()],
                        dtd=ADDRESSBOOK_DTD).document
        assert count_distribution(doc, "person") == {
            1: Fraction(1, 2),
            2: Fraction(1, 2),
        }
        assert count_distribution(doc, "person") == count_distribution_enumerated(
            doc, "//person"
        )

    @given(pxml_documents())
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow],
              deadline=None)
    def test_property_agreement_with_enumeration(self, doc):
        if world_count(doc) > 300:
            return
        for tag in ("a", "b", "x"):
            assert count_distribution(doc, tag) == count_distribution_enumerated(
                doc, f"//{tag}"
            )

    @given(pxml_documents())
    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow],
              deadline=None)
    def test_distribution_mass_is_one(self, doc):
        distribution = count_distribution(doc, "a")
        assert sum(distribution.values()) == 1


def numeric_doc():
    """<r> with <p>=3|5 (even odds), certain <p>=4, and a 1/3-chance <q>=2.5."""
    p1 = PXElement("p", children=[choice_prob([("1/2", ["3"]), ("1/2", ["5"])])])
    p2 = make_leaf("p", "4")
    maybe_q = choice_prob([("1/3", [make_leaf("q", "2.5")]), ("2/3", [])])
    return PXDocument(certain_prob(PXElement("r", children=[
        certain_prob(p1), certain_prob(p2), maybe_q,
    ])))


class TestAggregateFamily:
    def test_sum_distribution(self):
        assert sum_distribution(numeric_doc(), "p") == {
            7: Fraction(1, 2),
            9: Fraction(1, 2),
        }

    def test_min_max_distributions(self):
        doc = numeric_doc()
        assert min_distribution(doc, "p") == {
            3: Fraction(1, 2),
            4: Fraction(1, 2),
        }
        assert max_distribution(doc, "q") == {
            None: Fraction(2, 3),
            Fraction(5, 2): Fraction(1, 3),
        }

    def test_exists(self):
        doc = numeric_doc()
        assert exists_probability(doc, "p") == Fraction(1)
        assert exists_probability(doc, "q") == Fraction(1, 3)
        assert exists_probability(doc, "zz") == Fraction(0)
        assert aggregate_distribution(doc, "exists", "q") == {
            0: Fraction(2, 3),
            1: Fraction(1, 3),
        }

    def test_filtered_variants(self):
        doc = numeric_doc()
        assert aggregate_distribution(doc, "count", "p", text="3") == {
            0: Fraction(1, 2),
            1: Fraction(1, 2),
        }
        assert aggregate_distribution(doc, "sum", "p", text="3") == {
            0: Fraction(1, 2),
            3: Fraction(1, 2),
        }
        assert aggregate_distribution(doc, "min", "p", text="3") == {
            None: Fraction(1, 2),
            3: Fraction(1, 2),
        }

    def test_non_numeric_value_rejected(self):
        doc = certain_document(parse_document("<r><p>abc</p></r>"))
        with pytest.raises(QueryError):
            sum_distribution(doc, "p")
        # count never reads values: fine on the same document.
        assert count_distribution(doc, "p") == {1: Fraction(1)}

    def test_non_leaf_value_rejected(self):
        doc = certain_document(parse_document("<r><p><sub>1</sub></p></r>"))
        with pytest.raises(QueryError):
            min_distribution(doc, "p")

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            compile_aggregate("median", "p")

    def test_xpath_target_restrictions(self):
        for bad in ("//a/b", "//a[b=1]", "/a", "//a[1]"):
            with pytest.raises(QueryError):
                compile_aggregate("count", bad)

    def test_bare_targets_validated_like_xpath(self):
        """Regression: a bare target must not bypass the structural
        validation — 'm/x' must raise, never silently match nothing."""
        for bad in ("m/x", "m[b=1]", "m[1]"):
            with pytest.raises(QueryError):
                compile_aggregate("count", bad)
        # A bare spelling with an embedded text predicate destructures
        # exactly like its // spelling.
        assert compile_aggregate("count", 'm[. = "3"]').digest == \
            compile_aggregate("count", "m", text="3").digest

    def test_agreeing_and_conflicting_text_filters(self):
        # An agreeing text= restates the embedded predicate: accepted.
        assert compile_aggregate("count", '//m[. = "2"]', text="2").digest \
            == compile_aggregate("count", "m", text="2").digest
        # A conflicting one is a contradiction: rejected.
        with pytest.raises(QueryError):
            compile_aggregate("count", '//m[. = "2"]', text="3")

    def test_expected_value(self):
        assert expected_value(sum_distribution(numeric_doc(), "p")) == Fraction(8)
        with pytest.raises(QueryError):
            expected_value({None: Fraction(1, 3), 2: Fraction(2, 3)})

    def test_format_distribution_renders_no_match(self):
        rendered = format_distribution({None: Fraction(1, 3), 2: Fraction(2, 3)})
        assert "(no match)" in rendered
        assert "(1/3)" in rendered and "(2/3)" in rendered


class TestCacheDiscipline:
    def test_cached_and_uncached_equal_but_not_aliased(self):
        """Regression (ISSUE 5): the cached path must return a copy of
        the stored mapping — exactly one copy — never the stored mapping
        itself."""
        doc = uncertain_doc()
        first = count_distribution(doc, "m")
        second = count_distribution(doc, "m")  # served from the memo
        assert first == second
        assert first is not second
        # Mutating a returned mapping must not corrupt the cache …
        first[99] = Fraction(1)
        assert 99 not in count_distribution(doc, "m")
        # … and the stored entry itself is not what either call returned.
        stored = cache_for(doc).aggregate(
            doc, compile_aggregate("count", "m").fingerprint
        )
        assert stored is not None and stored is not second

    def test_uncached_mode_recomputes(self):
        doc = uncertain_doc()
        cached = count_distribution(doc, "m")
        uncached = count_distribution(doc, "m", use_cache=False)
        assert cached == uncached
        assert cached is not uncached

    def test_memo_shared_across_kinds(self):
        """exists derives from count through the same memo: computing
        exists seeds the count entry."""
        doc = numeric_doc()
        cache = cache_for(doc)
        aggregate_distribution(doc, "exists", "q")
        count_key = compile_aggregate("count", "q").fingerprint
        assert cache.aggregate(doc, count_key) is not None


class TestDeepDocuments:
    def test_count_over_a_500_deep_document(self):
        """The convolution runs on an explicit stack: a chain of 500
        nested <a> elements, each below the top one present with
        probability 1/2, aggregates without RecursionError."""
        depth = 500
        half = Fraction(1, 2)
        node = PXElement("a")
        for _ in range(depth - 1):
            node = PXElement("a", children=[choice_prob([(half, [node]), (half, [])])])
        document = PXDocument(certain_prob(node))
        distribution = count_distribution(document, "a")
        expected = {count: half ** count for count in range(1, depth)}
        expected[depth] = half ** (depth - 1)
        assert distribution == expected
        assert sum(distribution.values()) == 1


class TestEnumeratedReference:
    def test_text_is_read_only_to_filter_or_add_up(self, monkeypatch):
        """Per-world evaluation counts the selected elements without their
        text: ``count`` and ``exists`` answer with ``XElement.text``
        unusable, while ``sum`` and a filtered ``count`` still read it."""
        doc = numeric_doc()
        expected = {
            kind: aggregate_distribution(doc, kind, "p") for kind in ("count", "exists")
        }

        class TextRead(Exception):
            pass

        def unreadable(self):
            raise TextRead

        monkeypatch.setattr(XElement, "text", unreadable)
        for kind, distribution in expected.items():
            assert aggregate_distribution_enumerated(doc, kind, "p") == distribution
        with pytest.raises(TextRead):
            aggregate_distribution_enumerated(doc, "sum", "p")
        with pytest.raises(TextRead):
            aggregate_distribution_enumerated(doc, "count", "p", text="4")


class TestMoments:
    def test_expected_count(self):
        assert expected_count({1: Fraction(2, 3), 2: Fraction(1, 3)}) == Fraction(4, 3)

    def test_quantiles(self):
        distribution = {0: Fraction(1, 4), 1: Fraction(1, 4), 5: Fraction(1, 2)}
        assert count_quantile(distribution, Fraction(1, 4)) == 0
        assert count_quantile(distribution, Fraction(1, 2)) == 1
        assert count_quantile(distribution, Fraction(1)) == 5

    def test_quantile_bounds_checked(self):
        with pytest.raises(QueryError):
            count_quantile({0: Fraction(1)}, Fraction(3, 2))
