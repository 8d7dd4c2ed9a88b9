"""Tests for ranked-answer construction."""

from fractions import Fraction

from hypothesis import given, settings

from repro.query.ranking import RankedAnswer, RankedItem, merge_ranked
from .conftest import keyed_fractions


def item(value, probability, occurrences=1):
    return RankedItem(value, Fraction(probability), occurrences)


class TestRankedAnswer:
    def test_sorted_by_probability_desc(self):
        answer = RankedAnswer([item("low", "1/4"), item("high", "3/4")])
        assert answer.values() == ["high", "low"]

    def test_ties_broken_by_value(self):
        answer = RankedAnswer([item("b", "1/2"), item("a", "1/2")])
        assert answer.values() == ["a", "b"]

    @given(keyed_fractions())
    @settings(max_examples=300, deadline=None)
    def test_order_is_the_fraction_sort(self, pairs):
        items = [RankedItem(value, probability) for value, probability in pairs]
        expected = sorted(items, key=lambda item: (-item.probability, item.value))
        assert RankedAnswer(list(items)).items == expected

    def test_probability_of(self):
        answer = RankedAnswer([item("x", "1/3")])
        assert answer.probability_of("x") == Fraction(1, 3)
        assert answer.probability_of("missing") == 0

    def test_top(self):
        answer = RankedAnswer([item("a", "1/2"), item("b", "1/3"), item("c", "1/6")])
        assert [i.value for i in answer.top(2)] == ["a", "b"]

    def test_above_threshold(self):
        answer = RankedAnswer([item("a", "9/10"), item("b", "1/10")])
        assert [i.value for i in answer.above(0.5)] == ["a"]

    def test_above_float_threshold_means_decimal(self):
        # Regression: a float threshold is coerced through
        # as_probability, so 0.3 means the decimal 3/10 — not the binary
        # float 0.2999…9889 it parses to.  This probability sits between
        # the two readings: the old float comparison kept it, the
        # decimal reading must drop it.
        between = Fraction(299999999999999999, 10**18)
        assert Fraction(0.3) < between < Fraction(3, 10)
        answer = RankedAnswer([RankedItem("gap", between), item("sure", "9/10")])
        assert [i.value for i in answer.above(0.3)] == ["sure"]
        assert [i.value for i in answer.above(Fraction(3, 10))] == ["sure"]

    def test_as_table_paper_format(self):
        answer = RankedAnswer([
            item("Die Hard: With a Vengeance", 1),
            item("Mission: Impossible II", "96/100"),
            item("Mission: Impossible", "21/100"),
        ])
        table = answer.as_table()
        assert table.splitlines()[0] == "100% Die Hard: With a Vengeance"
        assert " 96% Mission: Impossible II" in table
        assert " 21% Mission: Impossible" in table

    def test_empty_answer_table(self):
        assert RankedAnswer([]).as_table() == "(empty answer)"

    def test_len_and_iter(self):
        answer = RankedAnswer([item("a", "1/2"), item("b", "1/2")])
        assert len(answer) == 2
        assert [i.value for i in answer] == ["a", "b"]


class TestMergeRanked:
    def test_sums_same_value(self):
        merged = merge_ranked([item("x", "1/4"), item("x", "1/4"), item("y", "1/8")])
        assert merged.probability_of("x") == Fraction(1, 2)
        assert merged.probability_of("y") == Fraction(1, 8)

    def test_occurrences_accumulate(self):
        merged = merge_ranked([item("x", "1/4", 2), item("x", "1/4", 3)])
        assert merged.items[0].occurrences == 5

    def test_empty(self):
        assert len(merge_ranked([])) == 0
