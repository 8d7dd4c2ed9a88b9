"""Each tree walk, written once on an explicit stack, against the
recursive walk it replaced.

``tests/model_reference.py`` holds the walks as they were: the model's
``copy``, ``node_count``, ``iter_prob_nodes`` and ``is_certain``,
``px_canonical_key``, ``validate_document``, world enumeration, sampling,
entropy, and xmlkit's ``copy``, ``iter``, ``node_count``, ``text`` and
``canonical_key``.  The program must agree with it:

* ``copy``: the same document text and the choice variables numbered in
  the same order (the kernel and conditioning break pivot ties by the
  smallest uid), for the document and for every subtree;
* the same ``node_count``, ``is_certain``, ``px_canonical_key`` and uid
  sequence from ``iter_prob_nodes``, at every node;
* ``validate_document``: the same ``ModelError`` message or none, also on
  documents mutated to break one invariant, or two at once;
* ``iter_worlds``: the same worlds with the same probabilities in the
  same order, and ``ExplosionError`` at limits 1, 5 and 50 exactly when
  the reference raises it;
* ``sample_worlds``: the same worlds for seeds 0-9;
* ``world_entropy`` within 1e-12 and the same ``expected_world_size``;
* xmlkit, on plain sources and sampled worlds: the same serialized copy,
  ``iter`` sequence, ``node_count``, ``text()`` and ``canonical_key`` with
  and without ``ignore_order``, at every element.

Inputs: hypothesis documents (up to depth 3 for the walks, the default
depth 2 for enumeration and sampling) with their first two feedback
posteriors, and integrated address books in every conflict-group shape
the benchmark corpus draws with all of theirs.  Sampling is the slow part
of the sweep (each draw limits a float's denominator), so a posterior is
sampled two worlds for each of two seeds, and the walks of a book's
posteriors are compared at the document only.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from repro.data.addressbook import addressbook_documents
from repro.errors import ExplosionError, FeedbackError, ModelError, QueryError
from repro.feedback.conditioning import condition_on_event
from repro.pxml.measures import world_entropy
from repro.pxml.model import (
    PXElement,
    PXText,
    Possibility,
    ProbNode,
    px_canonical_key,
    validate_document,
)
from repro.pxml.sampling import sample_worlds
from repro.pxml.serialize import pxml_to_text, pxml_to_xml
from repro.pxml.stats import expected_world_size
from repro.pxml.worlds import iter_worlds, world_count
from repro.query.engine import ProbQueryEngine
from repro.xmlkit.nodes import XElement, XText, canonical_key
from repro.xmlkit.serializer import serialize
from . import model_reference as reference
from .conftest import pxml_documents, record_documents, xml_documents
from .test_simplify_differential import SHAPES, uid_order
from .test_tree_pass import grouped_book

#: Documents with more worlds are enumerated only up to the small limits
#: (the reference copies every world's nodes for every combination).
FULL_ENUMERATION = 500

RANDOM = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def px_nodes(document):
    """Every node of a probabilistic document, pre-order (explicit stack)."""
    nodes = []
    stack = [document.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, ProbNode):
            stack.extend(reversed(node.possibilities))
        elif not isinstance(node, PXText):
            stack.extend(reversed(node.children))
    return nodes


def prob_uids(node):
    """The uids of the probability nodes under ``node``, in the
    reference's pre-order (a text node, which it did not walk, has none)."""
    if isinstance(node, PXText):
        return []
    return [prob.uid for prob in reference.iter_prob_nodes(node)]


def uid_ranks(node):
    """The rank of each probability node's uid under ``node``, the nodes
    taken in the reference's pre-order."""
    uids = prob_uids(node)
    ranks = {uid: rank for rank, uid in enumerate(sorted(uids))}
    return [ranks[uid] for uid in uids]


def written(node):
    """A subtree's serialized form (the codec's own view of it)."""
    if isinstance(node, (ProbNode, PXElement)):
        return serialize(pxml_to_xml(node))
    return reference.px_canonical_key(node)


def validation(validate, document, **options):
    try:
        validate(document, **options)
    except ModelError as error:
        return str(error)
    return None


def worlds(enumerate_worlds, document, limit):
    try:
        return [
            (serialize(world.document), world.probability)
            for world in enumerate_worlds(document, limit=limit)
        ]
    except ExplosionError:
        return ExplosionError


def samples(sample, document, seed, count):
    return [
        (serialize(world.document), world.probability)
        for world in sample(document, count, seed=seed)
    ]


def assert_copies_match(node):
    ours, theirs = node.copy(), reference.copy(node)
    assert written(ours) == written(theirs) == written(node)
    assert uid_ranks(ours) == uid_ranks(theirs)
    assert not set(prob_uids(ours)) & set(prob_uids(node))


def assert_walks_match(document, every_node=True):
    """Every model walk at the document and, if ``every_node``, at every
    node."""
    ours, theirs = document.copy(), reference.copy(document)
    assert pxml_to_text(ours) == pxml_to_text(theirs) == pxml_to_text(document)
    assert uid_order(ours) == uid_order(theirs)
    assert document.node_count() == reference.node_count(document)
    assert document.is_certain() is reference.is_certain(document)
    assert [node.uid for node in document.iter_prob_nodes()] == [
        node.uid for node in reference.iter_prob_nodes(document)
    ]
    for options in ({}, {"as_document": False}):
        assert validation(validate_document, document, **options) == validation(
            reference.validate_document, document, **options
        )
    for node in px_nodes(document) if every_node else ():
        assert node.node_count() == reference.node_count(node)
        assert px_canonical_key(node) == reference.px_canonical_key(node)
        assert_copies_match(node)
        assert [prob.uid for prob in node.iter_prob_nodes()] == prob_uids(node)
        if isinstance(node, (PXElement, ProbNode)):
            assert node.is_certain() is reference.is_certain(node)


def assert_semantics_match(document, seeds=10, per_seed=20, xml=True):
    """Enumeration (in full up to ``FULL_ENUMERATION`` worlds), sampling
    ``per_seed`` worlds for each of the first ``seeds`` seeds, and the
    measures; then, if ``xml``, xmlkit's walks on the sampled worlds."""
    limits = [1, 5, 50]
    if world_count(document) <= FULL_ENUMERATION:
        limits.append(None)
    for limit in limits:
        assert worlds(iter_worlds, document, limit) == worlds(
            reference.iter_worlds, document, limit
        ), limit
    sampled = []
    for seed in range(seeds):
        ours = samples(sample_worlds, document, seed, per_seed)
        assert ours == samples(reference.sample_worlds, document, seed, per_seed)
        if xml:
            sampled.append(next(sample_worlds(document, 1, seed=seed)).document)
    assert world_entropy(document) == pytest.approx(
        reference.world_entropy(document), abs=1e-12
    )
    assert expected_world_size(document) == reference.expected_world_size(document)
    for world in sampled:
        assert_xml_walks_match(world)


def xml_elements_of(root):
    elements = []
    stack = [root]
    while stack:
        element = stack.pop()
        elements.append(element)
        stack.extend(
            child for child in reversed(element.children) if isinstance(child, XElement)
        )
    return elements


def assert_parents(root):
    assert root.parent is None
    for element in xml_elements_of(root):
        assert all(child.parent is element for child in element.children)


def assert_xml_walks_match(document):
    """xmlkit's walks at the document and at every element."""
    assert serialize(document.copy()) == serialize(reference.xml_copy(document))
    assert document.node_count() == reference.xml_node_count(document)
    assert [id(node) for node in document.iter()] == [
        id(node) for node in reference.xml_iter(document)
    ]
    for element in xml_elements_of(document.root):
        copied = element.copy()
        assert serialize(copied) == serialize(reference.xml_copy(element))
        assert_parents(copied)
        assert element.node_count() == reference.xml_node_count(element)
        assert [id(node) for node in element.iter()] == [
            id(node) for node in reference.xml_iter(element)
        ]
        assert element.text() == reference.xml_text(element)
        for ignore_order in (True, False):
            assert canonical_key(element, ignore_order=ignore_order) == (
                reference.canonical_key(element, ignore_order=ignore_order)
            )
        for child in element.children:
            if isinstance(child, XText):
                assert serialize(child.copy()) == serialize(reference.xml_copy(child))
                assert child.node_count() == reference.xml_node_count(child)
                assert canonical_key(child) == reference.canonical_key(child)


def posteriors(document, plan):
    """The document conditioned on each answer value of ``plan``, observed
    and not (the observations that are possible), one at a time."""
    try:
        events = ProbQueryEngine(document).answer_events(plan)
    except QueryError:
        return
    for value in sorted(events):
        event, _ = events[value]
        for observed in (True, False):
            try:
                posterior = condition_on_event(document, event, observed=observed)
            except FeedbackError:
                continue
            yield posterior


# -- mutations ----------------------------------------------------------------------


def zero_probability(node):
    node.possibilities.append(Possibility(0))


def sum_below_one(node):
    node.possibilities[0].prob /= 2


def empty(node):
    node.possibilities.clear()


def probability_under_possibility(node):
    node.possibilities[-1].children.append(ProbNode())


def text_under_element(node):
    node.children.append(PXText("stray"))


BREAKS = {
    ProbNode: [zero_probability, sum_below_one, empty, probability_under_possibility],
    PXElement: [text_under_element],
}


def mutations(document, positions=4):
    """Copies of ``document`` that break one invariant each at up to
    ``positions`` nodes of each kind spread over the document, and copies
    that also break a second one, at a probability node counted from the
    end (so that the first violation in document order is sometimes the
    second made)."""
    nodes = px_nodes(document)
    for kind, breaks in BREAKS.items():
        count = sum(isinstance(node, kind) for node in nodes)
        for index in sorted({k * count // positions for k in range(positions)}):
            for break_ in breaks:
                for second in (None, sum_below_one):
                    copied = reference.copy(document)
                    targets = [node for node in px_nodes(copied) if isinstance(node, kind)]
                    break_(targets[index])
                    probs = [
                        n for n in px_nodes(copied) if isinstance(n, ProbNode) and n.possibilities
                    ]
                    if second is not None and probs:
                        second(probs[-1 - index % len(probs)])
                    yield copied


def assert_validation_matches(document):
    for mutated in mutations(document):
        for options in ({}, {"as_document": False}):
            expected = validation(reference.validate_document, mutated, **options)
            assert expected is not None
            assert validation(validate_document, mutated, **options) == expected


# -- inputs -------------------------------------------------------------------------


class TestRandomDocuments:
    @given(pxml_documents(max_depth=3))
    @RANDOM
    def test_walks_match_the_reference(self, document):
        assert_walks_match(document)
        assert_validation_matches(document)
        for posterior in itertools.islice(posteriors(document, "//a"), 2):
            assert_walks_match(posterior)

    @given(pxml_documents())
    @RANDOM
    def test_semantics_match_the_reference(self, document):
        assert_semantics_match(document)
        for posterior in itertools.islice(posteriors(document, "//a"), 2):
            assert_semantics_match(posterior, seeds=2, per_seed=2)

    @given(xml_documents())
    @RANDOM
    def test_xml_walks_match_the_reference(self, document):
        assert_xml_walks_match(document)

    @given(record_documents())
    @RANDOM
    def test_record_walks_match_the_reference(self, document):
        assert_xml_walks_match(document)


class TestAddressBooks:
    @pytest.mark.parametrize("shapes", SHAPES, ids=str)
    def test_book_and_its_posteriors(self, shapes):
        book = grouped_book(shapes)
        assert_walks_match(book)
        assert_validation_matches(book)
        assert_semantics_match(book)
        for posterior in posteriors(book, "//person/tel"):
            assert_walks_match(posterior, every_node=False)
            assert_semantics_match(posterior, seeds=2, per_seed=2, xml=False)

    def test_plain_sources(self):
        for source in addressbook_documents():
            assert_xml_walks_match(source)

    def test_mixed_content_keys(self):
        """Text runs merge across adjacent text nodes, whitespace-only
        runs drop, and with ``ignore_order=False`` order counts."""
        element = XElement("a", {"k": "1"}, [
            " ", "x", XElement("b", children=["y", "z"]), "  ",
            XElement("c"), "w", XElement("b", children=["yz"]),
        ])
        for ignore_order in (True, False):
            assert canonical_key(element, ignore_order=ignore_order) == (
                reference.canonical_key(element, ignore_order=ignore_order)
            )
        assert element.text() == reference.xml_text(element) == " xyz  wyz"
        assert canonical_key(element.children[2]) == canonical_key(element.children[6])


class TestInheritedWalks:
    """``PXText`` and ``Possibility`` inherit the walks they lacked."""

    def test_text_and_possibility(self):
        text = PXText("x")
        assert text.is_certain()
        assert list(text.iter_prob_nodes()) == []
        leaf = ProbNode([Possibility(Fraction(1, 2), ["x"]), Possibility(Fraction(1, 2), ["y"])])
        certain = Possibility(1, [PXElement("a", children=[ProbNode([Possibility(1, ["z"])])])])
        uncertain = Possibility(1, [PXElement("a", children=[leaf])])
        assert certain.is_certain() and not uncertain.is_certain()
        assert [node.uid for node in uncertain.iter_prob_nodes()] == [leaf.uid]
        assert uncertain.copy().node_count() == uncertain.node_count() == 7
