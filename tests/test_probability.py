"""Tests for exact probability helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProbabilityError
from repro.probability import (
    as_probability,
    check_distribution,
    exact_order_key,
    format_percent,
    format_probability,
    normalize,
)
from .conftest import keyed_fractions


class TestAsProbability:
    def test_fraction_passthrough(self):
        assert as_probability(Fraction(1, 3)) == Fraction(1, 3)

    def test_int_bounds(self):
        assert as_probability(0) == 0
        assert as_probability(1) == 1

    def test_float_is_decimal_not_binary(self):
        # 0.1 must mean 1/10, not the binary float value.
        assert as_probability(0.1) == Fraction(1, 10)

    def test_string_fraction(self):
        assert as_probability("2/5") == Fraction(2, 5)

    def test_string_decimal(self):
        assert as_probability("0.25") == Fraction(1, 4)

    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError):
            as_probability(-0.5)

    def test_rejects_above_one(self):
        with pytest.raises(ProbabilityError):
            as_probability(Fraction(3, 2))

    def test_rejects_zero_when_disallowed(self):
        with pytest.raises(ProbabilityError):
            as_probability(0, allow_zero=False)

    def test_rejects_bool(self):
        with pytest.raises(ProbabilityError):
            as_probability(True)

    def test_rejects_garbage_string(self):
        with pytest.raises(ProbabilityError):
            as_probability("not-a-number")

    def test_rejects_object(self):
        with pytest.raises(ProbabilityError):
            as_probability(object())

    def test_exact_fraction_is_returned_as_is(self):
        value = Fraction(2, 7)
        assert as_probability(value) is value
        assert as_probability(Fraction(0)) == 0
        assert as_probability(Fraction(1), allow_zero=False) == 1

    @pytest.mark.parametrize("value", [Fraction(-1, 3), Fraction(4, 3)])
    def test_exact_fraction_outside_the_unit_interval(self, value):
        with pytest.raises(ProbabilityError, match=r"outside \[0, 1\]"):
            as_probability(value)

    def test_exact_fraction_zero_when_disallowed(self):
        with pytest.raises(ProbabilityError, match="strictly positive"):
            as_probability(Fraction(0), allow_zero=False)

    def test_fraction_subclass(self):
        class Odds(Fraction):
            pass

        value = Odds(1, 3)
        assert as_probability(value) is value
        with pytest.raises(ProbabilityError, match=r"outside \[0, 1\]"):
            as_probability(Odds(4, 3))
        with pytest.raises(ProbabilityError, match="strictly positive"):
            as_probability(Odds(0), allow_zero=False)

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    def test_any_valid_fraction_roundtrips(self, numerator, denominator):
        if numerator <= denominator:
            value = Fraction(numerator, denominator)
            assert as_probability(value) == value


class TestFormatting:
    def test_format_probability(self):
        assert format_probability(Fraction(1, 3)) == "0.3333"

    def test_format_percent(self):
        assert format_percent(Fraction(97, 100)) == "97%"

    def test_format_percent_digits(self):
        assert format_percent(Fraction(1, 3), digits=1) == "33.3%"


class TestNormalize:
    def test_scales_to_one(self):
        result = normalize([Fraction(1), Fraction(3)])
        assert result == [Fraction(1, 4), Fraction(3, 4)]
        assert sum(result) == 1

    def test_rejects_all_zero(self):
        with pytest.raises(ProbabilityError):
            normalize([Fraction(0), Fraction(0)])

    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError):
            normalize([Fraction(-1), Fraction(2)])

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1).filter(lambda w: sum(w) > 0))
    def test_normalized_always_sums_to_one(self, weights):
        result = normalize([Fraction(w) for w in weights])
        assert sum(result) == 1


class TestCheckDistribution:
    def test_valid_strict(self):
        check_distribution([Fraction(1, 2), Fraction(1, 2)])

    def test_strict_rejects_subnormal(self):
        with pytest.raises(ProbabilityError):
            check_distribution([Fraction(1, 2)])

    def test_loose_accepts_subnormal(self):
        check_distribution([Fraction(1, 2)], strict=False)

    def test_loose_rejects_above_one(self):
        with pytest.raises(ProbabilityError):
            check_distribution([Fraction(3, 4), Fraction(3, 4)], strict=False)

    def test_rejects_empty(self):
        with pytest.raises(ProbabilityError):
            check_distribution([])


class TestExactOrderKey:
    """The integer key orders exactly as Fraction comparisons do."""

    @given(keyed_fractions())
    @settings(max_examples=400, deadline=None)
    def test_sort_matches_the_fraction_sort(self, items):
        key = exact_order_key(prob for _, prob in items)
        assert sorted(items, key=lambda pair: (-key(pair[1]), pair[0])) == sorted(
            items, key=lambda pair: (-pair[1], pair[0])
        )

    @given(keyed_fractions(max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_keys_are_equal_exactly_when_the_fractions_are(self, items):
        values = [prob for _, prob in items]
        key = exact_order_key(values)
        for a in values:
            for b in values:
                assert (key(a) == key(b)) == (a == b)
                assert (key(a) < key(b)) == (a < b)

    def test_ties_zero_and_negatives(self):
        values = [Fraction(-1, 3), Fraction(0), Fraction(2, 6), Fraction(1, 3), Fraction(-2, 6)]
        key = exact_order_key(values)
        assert [key(value) for value in values] == [
            key(Fraction(-1, 3)), 0, key(Fraction(1, 3)), key(Fraction(1, 3)), key(Fraction(-1, 3))
        ]
        assert key(Fraction(-1, 3)) < 0 < key(Fraction(1, 3))
