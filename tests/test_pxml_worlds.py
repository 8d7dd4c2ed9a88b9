"""Tests for possible-world enumeration and counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ExplosionError
from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.pxml.worlds import distinct_worlds, iter_worlds, world_count
from repro.xmlkit.serializer import serialize
from .conftest import make_leaf, pxml_documents


def churn_heap(rng):
    """Allocate and free objects of the sizes worlds use, in a seeded
    random order, so later allocations land at shifted addresses."""
    held = [[make_leaf("a", str(i))] for i in range(rng.randrange(50, 400))]
    rng.shuffle(held)
    del held[: len(held) // 2]
    return held


def four_way_tie_doc():
    """Two independent 1/2-1/2 choices: four distinct worlds at 1/4."""
    c1 = choice_prob([("1/2", [make_leaf("a", "1")]), ("1/2", [make_leaf("a", "2")])])
    c2 = choice_prob([("1/2", [make_leaf("b", "1")]), ("1/2", [make_leaf("b", "2")])])
    return PXDocument(certain_prob(PXElement("r", children=[c1, c2])))


def two_choice_doc():
    """root <r> with two independent binary choices under it."""
    c1 = choice_prob([("1/2", [make_leaf("a", "1")]), ("1/2", [make_leaf("a", "2")])])
    c2 = choice_prob([("1/4", [make_leaf("b", "x")]), ("3/4", [])])
    return PXDocument(certain_prob(PXElement("r", children=[c1, c2])))


class TestWorldCount:
    def test_certain_doc(self):
        assert world_count(PXDocument(certain_prob(make_leaf("a", "x")))) == 1

    def test_independent_choices_multiply(self):
        assert world_count(two_choice_doc()) == 4

    def test_alternatives_add(self):
        node = choice_prob([("1/3", []), ("1/3", []), ("1/3", [])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        assert world_count(doc) == 3

    def test_nested_choice_in_alternative(self):
        inner = choice_prob([("1/2", [PXText("a")]), ("1/2", [PXText("b")])])
        outer = choice_prob([
            ("1/2", [PXElement("x", children=[inner])]),
            ("1/2", []),
        ])
        doc = PXDocument(certain_prob(PXElement("r", children=[outer])))
        # branch 1 has 2 sub-worlds, branch 2 has 1.
        assert world_count(doc) == 3

    @given(pxml_documents())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_world_count_matches_enumeration(self, doc):
        count = world_count(doc)
        if count <= 500:
            assert len(list(iter_worlds(doc, limit=None))) == count


class TestIterWorlds:
    def test_probabilities_sum_to_one(self):
        worlds = list(iter_worlds(two_choice_doc()))
        assert sum(w.probability for w in worlds) == 1

    def test_world_probabilities_correct(self):
        worlds = {serialize(w.document): w.probability for w in iter_worlds(two_choice_doc())}
        assert worlds["<r><a>1</a><b>x</b></r>"] == Fraction(1, 8)
        assert worlds["<r><a>2</a></r>"] == Fraction(3, 8)

    def test_limit_raises_explosion(self):
        # 2^12 worlds with limit 100.
        children = [
            choice_prob([("1/2", [make_leaf("a", "1")]), ("1/2", [])])
            for _ in range(12)
        ]
        doc = PXDocument(certain_prob(PXElement("r", children=children)))
        with pytest.raises(ExplosionError):
            list(iter_worlds(doc, limit=100))

    @given(pxml_documents())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_probability_mass_is_exactly_one(self, doc):
        if world_count(doc) <= 500:
            assert sum(w.probability for w in iter_worlds(doc, limit=None)) == 1


class TestDistinctWorlds:
    def test_duplicates_merged(self):
        node = choice_prob([("1/2", [make_leaf("a", "x")]),
                            ("1/2", [make_leaf("a", "x")])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        merged = distinct_worlds(doc)
        assert len(merged) == 1
        assert merged[0][1] == 1

    def test_sorted_by_probability(self):
        node = choice_prob([("1/4", [make_leaf("a", "x")]),
                            ("3/4", [make_leaf("a", "y")])])
        doc = PXDocument(certain_prob(PXElement("r", children=[node])))
        merged = distinct_worlds(doc)
        assert merged[0][1] == Fraction(3, 4)

    @given(pxml_documents())
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_distinct_mass_is_one(self, doc):
        if world_count(doc) <= 300:
            assert sum(prob for _, prob in distinct_worlds(doc, limit=None)) == 1

    def test_ties_keep_enumeration_order_across_calls(self):
        """Equal probabilities never fall back on memory addresses: with
        the heap churned between calls, every call returns the 4-way tie
        in the order the worlds were enumerated."""
        doc = four_way_tie_doc()
        enumerated = [serialize(world.document) for world in iter_worlds(doc)]
        rng = random.Random(20261020)
        orders = set()
        keep = []
        for _ in range(30):
            keep.append(churn_heap(rng))
            orders.add(tuple(serialize(world) for world, _ in distinct_worlds(doc)))
        assert orders == {tuple(enumerated)}

    def test_order_is_descending_then_enumeration(self):
        c1 = choice_prob([("1/3", [make_leaf("a", "1")]), ("2/3", [make_leaf("a", "2")])])
        c2 = choice_prob([("1/2", [make_leaf("b", "1")]), ("1/2", [make_leaf("b", "2")])])
        doc = PXDocument(certain_prob(PXElement("r", children=[c1, c2])))
        worlds = distinct_worlds(doc)
        assert [serialize(world) for world, _ in worlds] == [
            "<r><a>2</a><b>1</b></r>",
            "<r><a>2</a><b>2</b></r>",
            "<r><a>1</a><b>1</b></r>",
            "<r><a>1</a><b>2</b></r>",
        ]
        assert [prob for _, prob in worlds] == [Fraction(1, 3)] * 2 + [Fraction(1, 6)] * 2
