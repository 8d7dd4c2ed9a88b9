"""Every tree walk runs as deep as the engine.

The model's walks, validation and keys, world enumeration, sampling and
the measures, and xmlkit's node walks keep explicit stacks, so a
5,000-deep document is bounded by memory and never by the interpreter
stack.  The references run as deep: on a 1,200-deep chain and on a
600-deep chain of choices, possible-world enumeration prices ``//b``
exactly as the tree pass and the walk + kernel do.

Structural keys are nested tuples as deep as the tree.  Python compares
such tuples recursively and refuses beyond its recursion limit, so the
deep keys here are compared by hash.
"""

from fractions import Fraction

import pytest

from repro.pxml.measures import world_entropy
from repro.pxml.model import px_canonical_key, validate_document
from repro.pxml.sampling import sample_world
from repro.pxml.serialize import parse_pxml
from repro.pxml.stats import expected_world_size
from repro.pxml.worlds import distinct_worlds, iter_worlds, world_count
from repro.query.aggregates import (
    aggregate_distribution,
    aggregate_distribution_enumerated,
)
from repro.query.engine import QueryEngine, query_enumeration
from repro.xmlkit.nodes import canonical_key
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize
from .conftest import choice_chain_pxml, leaf_choice_pxml, nested_xml

DEPTH = 5_000


@pytest.fixture(scope="module")
def deep():
    """``<a>`` x 5,000 around a ``<b>`` holding x or y at 1/2 each."""
    return parse_pxml(leaf_choice_pxml(DEPTH))


@pytest.fixture(scope="module")
def deep_xml():
    return parse_document(nested_xml(DEPTH))


def element_at(document):
    """The outermost ``<a>`` of ``document``."""
    return document.root.possibilities[0].children[0]


class TestModelWalks:
    def test_copy(self, deep):
        copied = deep.copy()
        assert copied.node_count() == deep.node_count()
        assert hash(px_canonical_key(copied.root)) == hash(px_canonical_key(deep.root))
        assert not {node.uid for node in copied.iter_prob_nodes()} & {
            node.uid for node in deep.iter_prob_nodes()
        }

    def test_counts_and_certainty(self, deep):
        # 5,000 <a> and one <b>, each under a certain ▽○ pair; the leaf
        # choice adds one ▽, two ○ and two texts.
        assert deep.node_count() == 3 * (DEPTH + 1) + 5
        assert len(list(deep.iter_prob_nodes())) == DEPTH + 2
        assert not deep.is_certain()
        assert not element_at(deep).is_certain()
        assert element_at(deep).node_count() == deep.node_count() - 2

    def test_validation_and_key(self, deep):
        validate_document(deep)
        assert hash(px_canonical_key(element_at(deep))) == hash(
            px_canonical_key(element_at(deep.copy()))
        )


class TestSemantics:
    def test_worlds(self, deep):
        worlds = list(iter_worlds(deep))
        assert [world.probability for world in worlds] == [Fraction(1, 2)] * 2
        assert [world.document.root.text() for world in worlds] == ["x", "y"]
        assert len(distinct_worlds(deep)) == 2

    def test_sampling_and_measures(self, deep):
        world = sample_world(deep)
        assert world.probability == Fraction(1, 2)
        assert world.document.node_count() == DEPTH + 2
        assert world_entropy(deep) == 1.0
        assert expected_world_size(deep) == DEPTH + 2

    def test_references(self, deep):
        answer = {item.value: item.probability for item in query_enumeration(deep, "//b")}
        assert answer == {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        assert aggregate_distribution_enumerated(deep, "count", "b") == {1: 1}


class TestXmlWalks:
    def test_copy_iter_count(self, deep_xml):
        copied = deep_xml.copy()
        assert serialize(copied) == serialize(deep_xml)
        assert copied.node_count() == deep_xml.node_count() == DEPTH
        assert sum(1 for _ in deep_xml.iter()) == DEPTH
        assert deep_xml.root.copy().parent is None

    def test_text_and_keys(self, deep_xml):
        root = parse_document("<r>" + nested_xml(DEPTH) + "tail</r>").root
        assert root.text() == "tail"
        for ignore_order in (True, False):
            assert hash(canonical_key(deep_xml.root, ignore_order=ignore_order)) == hash(
                canonical_key(deep_xml.copy().root, ignore_order=ignore_order)
            )


def thirds_chain_pxml(depth: int) -> str:
    """``leaf_choice_pxml`` with the leaf holding x at 1/3 or y at 2/3."""
    return (
        leaf_choice_pxml(depth)
        .replace('prob="1/2">x', 'prob="1/3">x')
        .replace('prob="1/2">y', 'prob="2/3">y')
    )


def ranked(answer):
    return {item.value: item.probability for item in answer}


class TestDeepDifferential:
    """The tree pass, the walk + kernel and enumeration agree deep down."""

    @pytest.mark.parametrize(
        "text, plans, aggregate",
        [
            (thirds_chain_pxml(1_200), ["//b", "//a/b", "//b/text()"], "b"),
            (choice_chain_pxml(600), ["//b"], "a"),
        ],
        ids=["thirds-chain-1200", "choice-chain-600"],
    )
    def test_three_paths_agree(self, text, plans, aggregate):
        document = parse_pxml(text)
        for plan in plans:
            enumerated = ranked(query_enumeration(document, plan))
            assert ranked(QueryEngine(document).query(plan)) == enumerated, plan
            assert (
                ranked(QueryEngine(document, use_cache=False).query(plan)) == enumerated
            ), plan
        assert aggregate_distribution(document, "count", aggregate) == (
            aggregate_distribution_enumerated(document, "count", aggregate)
        )
        worlds = distinct_worlds(document)
        assert sum(prob for _, prob in worlds) == 1
        assert len(worlds) <= world_count(document)

    def test_the_thirds_chain_answers(self):
        document = parse_pxml(thirds_chain_pxml(1_200))
        assert ranked(query_enumeration(document, "//b/text()")) == {
            "x": Fraction(1, 3),
            "y": Fraction(2, 3),
        }
        assert world_count(parse_pxml(choice_chain_pxml(600))) == 601
