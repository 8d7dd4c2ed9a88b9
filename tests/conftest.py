"""Shared fixtures and hypothesis strategies.

The strategies build bounded random structures:

* ``xml_trees`` — plain XML elements (for parser/XPath round-trips);
* ``pxml_documents`` — valid probabilistic documents with exact
  probabilities (for worlds/events/simplify invariants);
* ``source_pairs`` — pairs of small record-style documents (for
  integration ↔ estimator agreement).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro.core.engine import IntegrationConfig
from repro.core.oracle import Oracle
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.pxml.build import certain_prob
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.xmlkit.nodes import XDocument, XElement, XText

# -- plain XML strategies -------------------------------------------------------

TAGS = ("a", "b", "item", "x", "rec")
WORDS = ("alpha", "beta", "x1", "hello world", "42", "<&>\"'", "  spaced  ")


@st.composite
def xml_elements(draw, max_depth: int = 3):
    """A random plain XML element with bounded depth and fan-out."""
    tag = draw(st.sampled_from(TAGS))
    attributes = draw(
        st.dictionaries(
            st.sampled_from(("id", "lang", "k")),
            st.sampled_from(WORDS),
            max_size=2,
        )
    )
    element = XElement(tag, attributes)
    if max_depth <= 0:
        children = draw(st.lists(st.sampled_from(WORDS), max_size=1))
        for word in children:
            element.append(XText(word))
        return element
    count = draw(st.integers(min_value=0, max_value=3))
    for _ in range(count):
        if draw(st.booleans()):
            element.append(draw(xml_elements(max_depth=max_depth - 1)))
        else:
            element.append(XText(draw(st.sampled_from(WORDS))))
    return element


@st.composite
def xml_documents(draw, max_depth: int = 3):
    return XDocument(draw(xml_elements(max_depth=max_depth)))


# -- probabilistic XML strategies ---------------------------------------------------

def _distribution(draw, count: int) -> list[Fraction]:
    """Exact positive fractions summing to 1."""
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in range(count)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def prob_nodes(draw, max_depth: int = 2):
    """A random valid probability node."""
    branch = draw(st.integers(min_value=1, max_value=3))
    probabilities = _distribution(draw, branch)
    node = ProbNode()
    for prob in probabilities:
        child_count = draw(st.integers(min_value=0, max_value=2))
        children = []
        for _ in range(child_count):
            if max_depth > 0 and draw(st.booleans()):
                children.append(draw(px_elements(max_depth=max_depth - 1)))
            else:
                children.append(PXText(draw(st.sampled_from(WORDS))))
        node.append(Possibility(prob, children))
    return node


@st.composite
def px_elements(draw, max_depth: int = 2):
    tag = draw(st.sampled_from(TAGS))
    count = draw(st.integers(min_value=0, max_value=2))
    children = [draw(prob_nodes(max_depth=max_depth)) for _ in range(count)]
    return PXElement(tag, None, children)


@st.composite
def pxml_documents(draw, max_depth: int = 2):
    """A random valid probabilistic document (root possibilities hold
    exactly one element each, so every world is a document)."""
    branch = draw(st.integers(min_value=1, max_value=3))
    probabilities = _distribution(draw, branch)
    root = ProbNode()
    for prob in probabilities:
        root.append(Possibility(prob, [draw(px_elements(max_depth=max_depth))]))
    return PXDocument(root)


# -- integration source strategies ----------------------------------------------------

NAMES = ("ann", "bob", "cliff", "dora")
PHONES = ("111", "222", "333")


@st.composite
def record_documents(draw, max_records: int = 3):
    """An address-book-like document: repeated <person> records with
    leaf fields — the shape integration cares about."""
    root = XElement("book")
    for _ in range(draw(st.integers(min_value=0, max_value=max_records))):
        person = XElement("person")
        person.append(XElement("nm", children=[draw(st.sampled_from(NAMES))]))
        if draw(st.booleans()):
            person.append(XElement("tel", children=[draw(st.sampled_from(PHONES))]))
        root.append(person)
    return XDocument(root)


@st.composite
def source_pairs(draw):
    return draw(record_documents()), draw(record_documents())


# -- deep documents -------------------------------------------------------------

#: Distinct large primes (the Mersenne primes below 2^130): pairwise
#: coprime denominators, the case a common-denominator key explodes on.
LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


@st.composite
def keyed_fractions(draw, max_size: int = 40):
    """Lists of ``(value, Fraction)`` pairs for ordering tests: repeated
    Fractions, 0, negative numerators, denominators up to 2^130 and over
    distinct large primes, plus the closest pair two of those primes
    allow (``n/p`` and ``n/p + 1/(p·q)``)."""
    small = st.builds(
        Fraction, st.integers(min_value=-20, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    wide = st.builds(
        Fraction, st.integers(min_value=-(2**131), max_value=2**131),
        st.integers(min_value=1, max_value=2**130),
    )
    over_prime = st.builds(
        Fraction, st.integers(min_value=-(2**128), max_value=2**128),
        st.sampled_from(LARGE_PRIMES),
    )
    pool = draw(
        st.lists(
            st.one_of(st.just(Fraction(0)), small, wide, over_prime),
            min_size=1, max_size=10,
        )
    )
    p, q = draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=2, max_size=2, unique=True))
    n = draw(st.integers(min_value=-p, max_value=p))
    pool += [Fraction(n, p), Fraction(n * q + 1, p * q)]
    return draw(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(pool)),
            max_size=max_size,
        )
    )


def nested_xml(depth: int) -> str:
    """Compact XML text of ``depth`` nested ``<a>`` elements."""
    return "<a>" * (depth - 1) + "<a/>" + "</a>" * (depth - 1)


def nested_pxml(depth: int) -> str:
    """Compact PXML text of ``depth`` nested certain ``<a>`` elements."""
    certain = '<p:prob><p:poss prob="1">'
    return (
        (certain + "<a>") * (depth - 1)
        + certain
        + "<a/></p:poss></p:prob>"
        + "</a></p:poss></p:prob>" * (depth - 1)
    )


def leaf_choice_pxml(depth: int) -> str:
    """Compact PXML text of ``depth`` nested certain ``<a>`` elements
    around a leaf ``<b>`` whose text is x or y at 1/2 each."""
    certain = '<p:prob><p:poss prob="1">'
    leaf = (
        '<b><p:prob><p:poss prob="1/2">x</p:poss>'
        '<p:poss prob="1/2">y</p:poss></p:prob></b>'
    )
    return (
        (certain + "<a>") * depth
        + certain + leaf + "</p:poss></p:prob>"
        + "</a></p:poss></p:prob>" * depth
    )


def choice_chain_pxml(depth: int) -> str:
    """Compact PXML text of ``<r>`` over ``depth`` nested choices, each
    between an ``<a>`` that holds the next (1/2) and nothing (1/2); the
    innermost ``<a>`` holds ``<b>x</b>``, so the event of x under ``//b``
    is a conjunction of ``depth`` literals."""
    certain = '<p:prob><p:poss prob="1">'
    half = '<p:poss prob="1/2">'
    return (
        certain + "<r>"
        + ("<p:prob>" + half + "<a>") * depth
        + certain + "<b>" + certain + "x</p:poss></p:prob></b></p:poss></p:prob>"
        + ("</a></p:poss>" + half + "</p:poss></p:prob>") * depth
        + "</r></p:poss></p:prob>"
    )


# -- fixtures ---------------------------------------------------------------------

@pytest.fixture
def address_books():
    return addressbook_documents()


@pytest.fixture
def address_dtd():
    return ADDRESSBOOK_DTD


@pytest.fixture
def generic_rules():
    return [DeepEqualRule(), LeafValueRule()]


@pytest.fixture
def generic_config(generic_rules):
    return IntegrationConfig(oracle=Oracle(generic_rules))


def make_leaf(tag: str, value: str) -> PXElement:
    """Helper used across pxml tests: certain leaf element."""
    return PXElement(tag, children=[certain_prob(PXText(value))])
