"""The tree walks as they were before each was written once on a stack.

A test-only reference: the recursive walks of the probabilistic tree
model, world enumeration, sampling and entropy, and xmlkit's node walks,
copied from the program.  Each method family (``copy``, ``node_count``,
``iter_prob_nodes``, ``is_certain`` on the model's node classes; ``copy``,
``iter``, ``node_count`` and ``text`` on xmlkit's) is one function here
whose branches are the per-class method bodies, and every call of a walk
on a node is turned into a call of the function here, so the reference
never runs the program's walks.  The structural-key constructors,
``world_count`` and the node classes themselves are the program's.
``tests/test_model_differential.py`` compares the program against this
module; the program never imports it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, Optional, Union

from repro.errors import ExplosionError, ModelError
from repro.probability import ONE, ZERO
from repro.pxml.model import (
    PXChild,
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
    _content_key,
    _element_key,
    _possibility_key,
    _prob_key,
    _text_key,
    _yields_top_text,
)
from repro.pxml.worlds import World, world_count
from repro.xmlkit.nodes import XChild, XDocument, XElement, XNode, XText


# -- repro/pxml/model.py: the per-class methods ----------------------------------

def copy(self):
    """``copy`` of PXText, PXElement, Possibility, ProbNode, PXDocument."""
    if isinstance(self, PXDocument):
        return PXDocument(copy(self.root))
    if isinstance(self, PXText):
        return PXText(self.value)
    if isinstance(self, PXElement):
        return PXElement(
            self.tag, dict(self.attributes), [copy(child) for child in self.children]
        )
    if isinstance(self, Possibility):
        clone = Possibility(self.prob)
        clone.children = [copy(child) for child in self.children]
        return clone
    return ProbNode([copy(possibility) for possibility in self.possibilities])


def node_count(self) -> int:
    """``node_count`` of PXText, PXElement, Possibility, ProbNode, PXDocument."""
    if isinstance(self, PXDocument):
        return node_count(self.root)
    if isinstance(self, PXText):
        return 1
    if isinstance(self, (PXElement, Possibility)):
        return 1 + sum(node_count(child) for child in self.children)
    return 1 + sum(node_count(p) for p in self.possibilities)


def iter_prob_nodes(self) -> Iterator[ProbNode]:
    """``iter_prob_nodes`` of PXElement, Possibility, ProbNode, PXDocument."""
    if isinstance(self, PXDocument):
        yield from iter_prob_nodes(self.root)
    elif isinstance(self, PXElement):
        for child in self.children:
            yield from iter_prob_nodes(child)
    elif isinstance(self, Possibility):
        for child in self.children:
            if isinstance(child, PXElement):
                yield from iter_prob_nodes(child)
    else:
        yield self
        for possibility in self.possibilities:
            yield from iter_prob_nodes(possibility)


def is_certain(self) -> bool:
    """``is_certain`` of PXElement, ProbNode, PXDocument."""
    if isinstance(self, PXDocument):
        return is_certain(self.root)
    if isinstance(self, PXElement):
        return all(is_certain(child) for child in self.children)
    if len(self.possibilities) != 1 or self.possibilities[0].prob != ONE:
        return False
    return all(
        is_certain(child)
        for child in self.possibilities[0].children
        if isinstance(child, PXElement)
    )


# -- repro/pxml/model.py: validation and keys ------------------------------------

def validate_document(
    document: PXDocument | ProbNode, *, as_document: bool = True
) -> None:
    """Check all layering and probability invariants; raise
    :class:`ModelError` on the first violation."""
    root = document.root if isinstance(document, PXDocument) else document
    if as_document:
        for possibility in root.possibilities:
            elements = [c for c in possibility.children if isinstance(c, PXElement)]
            if len(elements) != 1 or len(possibility.children) != 1:
                raise ModelError(
                    "each root possibility must hold exactly one element"
                )
    _validate_prob(root, path="/")


def _validate_prob(node: ProbNode, path: str) -> None:
    if not node.possibilities:
        raise ModelError(f"{path}: probability node without possibilities")
    total = node.total_probability()
    if total != 1:
        raise ModelError(f"{path}: possibilities sum to {total}, expected 1")
    for index, possibility in enumerate(node.possibilities):
        if possibility.prob <= 0:
            raise ModelError(f"{path}[{index}]: non-positive probability")
        for child in possibility.children:
            if isinstance(child, PXElement):
                _validate_element(child, f"{path}[{index}]/{child.tag}")
            elif not isinstance(child, PXText):
                raise ModelError(
                    f"{path}[{index}]: invalid child {type(child).__name__}"
                )


def _validate_element(element: PXElement, path: str) -> None:
    for child in element.children:
        if not isinstance(child, ProbNode):
            raise ModelError(
                f"{path}: element child must be a probability node,"
                f" got {type(child).__name__}"
            )
        _validate_prob(child, f"{path}/▽{child.uid}")


def px_canonical_key(node: Union[ProbNode, Possibility, PXChild]) -> tuple:
    """Hashable structural key for probabilistic subtrees."""
    if isinstance(node, PXText):
        return _text_key(node.value)
    if isinstance(node, PXElement):
        return _element_key(
            node,
            [px_canonical_key(child) for child in node.children],
            any(_yields_top_text(child) for child in node.children),
        )
    if isinstance(node, Possibility):
        elements = (
            px_canonical_key(child)
            for child in node.children
            if isinstance(child, PXElement)
        )
        return _possibility_key(
            node.prob, _content_key(node.children, elements, _text_key)
        )
    if isinstance(node, ProbNode):
        return _prob_key(px_canonical_key(p) for p in node.possibilities)
    raise ModelError(f"cannot key {type(node).__name__}")


# -- repro/pxml/worlds.py ----------------------------------------------------------

def _expand_element(
    element: PXElement, limit: Optional[int]
) -> list[tuple[XElement, Fraction]]:
    variants: list[tuple[XElement, Fraction]] = [
        (XElement(element.tag, dict(element.attributes)), ONE)
    ]
    for prob_child in element.children:
        child_variants = _expand_prob(prob_child, limit)
        merged: list[tuple[XElement, Fraction]] = []
        for base, base_prob in variants:
            for children, child_prob in child_variants:
                clone = xml_copy(base)
                for child in children:
                    clone.append(xml_copy(child))
                merged.append((clone, base_prob * child_prob))
                if limit is not None and len(merged) > limit:
                    raise ExplosionError(
                        f"world enumeration under <{element.tag}> exceeds"
                        f" the limit of {limit} variants",
                        estimated=world_count(element),
                    )
        variants = merged
    return variants


def _expand_prob(
    node: ProbNode, limit: Optional[int]
) -> list[tuple[list[XChild], Fraction]]:
    expansions: list[tuple[list[XChild], Fraction]] = []
    for possibility in node.possibilities:
        branch: list[tuple[list[XChild], Fraction]] = [([], possibility.prob)]
        for child in possibility.children:
            if isinstance(child, PXText):
                branch = [
                    (items + [XText(child.value)], prob) for items, prob in branch
                ]
            else:
                child_variants = _expand_element(child, limit)
                branch = [
                    (items + [variant], prob * variant_prob)
                    for items, prob in branch
                    for variant, variant_prob in child_variants
                ]
            if limit is not None and len(branch) > limit:
                raise ExplosionError(
                    f"world enumeration at ▽{node.uid} exceeds the limit"
                    f" of {limit} variants",
                    estimated=world_count(node),
                )
        expansions.extend(branch)
        if limit is not None and len(expansions) > limit:
            raise ExplosionError(
                f"world enumeration at ▽{node.uid} exceeds the limit"
                f" of {limit} variants",
                estimated=world_count(node),
            )
    return expansions


def iter_worlds(
    document: PXDocument, *, limit: Optional[int] = 200_000
) -> Iterator[World]:
    """Enumerate all possible worlds with their probabilities."""
    for children, prob in _expand_prob(document.root, limit):
        elements = [child for child in children if isinstance(child, XElement)]
        if len(elements) != 1:
            raise ExplosionError(
                "a root possibility expanded to"
                f" {len(elements)} root elements; not a document"
            )
        yield World(XDocument(elements[0]), prob)


# -- repro/pxml/sampling.py --------------------------------------------------------

def _draw(node: ProbNode, rng: random.Random) -> tuple[int, Possibility]:
    roll = Fraction(rng.random()).limit_denominator(10**12)
    cumulative = Fraction(0)
    for index, possibility in enumerate(node.possibilities):
        cumulative += possibility.prob
        if roll < cumulative:
            return index, possibility
    return len(node.possibilities) - 1, node.possibilities[-1]


def _sample_prob(node: ProbNode, rng: random.Random, prob_acc: list[Fraction]) -> list[XChild]:
    _, possibility = _draw(node, rng)
    prob_acc[0] *= possibility.prob
    children: list[XChild] = []
    for child in possibility.children:
        if isinstance(child, PXText):
            children.append(XText(child.value))
        else:
            children.append(_sample_element(child, rng, prob_acc))
    return children


def _sample_element(
    element: PXElement, rng: random.Random, prob_acc: list[Fraction]
) -> XElement:
    result = XElement(element.tag, dict(element.attributes))
    for prob_child in element.children:
        for child in _sample_prob(prob_child, rng, prob_acc):
            result.append(child)
    return result


def sample_world(document: PXDocument, rng: Optional[random.Random] = None) -> World:
    """Draw one world with probability proportional to its likelihood."""
    rng = rng or random.Random()
    prob_acc = [ONE]
    children = _sample_prob(document.root, rng, prob_acc)
    elements = [child for child in children if isinstance(child, XElement)]
    if len(elements) != 1:
        raise ModelError("a root possibility must expand to exactly one element")
    return World(XDocument(elements[0]), prob_acc[0])


def sample_worlds(
    document: PXDocument, count: int, *, seed: Optional[int] = None
) -> Iterator[World]:
    """Draw ``count`` independent worlds (deterministic under ``seed``)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_world(document, rng)


# -- repro/pxml/measures.py and stats.py -----------------------------------------

def _entropy_bits(probabilities: list[Fraction]) -> float:
    total = 0.0
    for prob in probabilities:
        if prob > 0:
            value = float(prob)
            total -= value * math.log2(value)
    return total


def _entropy_prob(node: ProbNode, reach: Fraction) -> float:
    total = float(reach) * _entropy_bits([p.prob for p in node.possibilities])
    for possibility in node.possibilities:
        branch_reach = reach * possibility.prob
        for child in possibility.children:
            if isinstance(child, PXElement):
                total += _entropy_element(child, branch_reach)
    return total


def _entropy_element(element: PXElement, reach: Fraction) -> float:
    return sum(_entropy_prob(child, reach) for child in element.children)


def world_entropy(document: Union[PXDocument, ProbNode]) -> float:
    """Entropy (bits) of the choice-world distribution."""
    root = document.root if isinstance(document, PXDocument) else document
    return _entropy_prob(root, ONE)


def expected_world_size(node) -> Fraction:
    """Expected number of plain-XML nodes of a random world."""
    total = ZERO
    stack = [(node.root if isinstance(node, PXDocument) else node, ONE)]
    while stack:
        current, reach = stack.pop()
        if isinstance(current, ProbNode):
            stack.extend((p, reach * p.prob) for p in current.possibilities)
        elif isinstance(current, Possibility):
            stack.extend((child, reach) for child in current.children)
        elif isinstance(current, PXElement):
            total += reach
            stack.extend((child, reach) for child in current.children)
        elif isinstance(current, PXText):
            total += reach
        else:
            raise TypeError(f"cannot size {type(current).__name__}")
    return total


# -- repro/xmlkit/nodes.py ---------------------------------------------------------

def xml_copy(self):
    """``copy`` of XText, XElement and XDocument."""
    if isinstance(self, XDocument):
        return XDocument(xml_copy(self.root))
    if isinstance(self, XText):
        return XText(self.value)
    clone = XElement(self.tag, dict(self.attributes))
    for child in self.children:
        clone.append(xml_copy(child))
    return clone


def xml_iter(self) -> Iterator[XNode]:
    """``iter`` of XElement and XDocument: depth-first pre-order."""
    if isinstance(self, XDocument):
        yield from xml_iter(self.root)
        return
    yield self
    for child in self.children:
        if isinstance(child, XElement):
            yield from xml_iter(child)
        else:
            yield child


def xml_node_count(self) -> int:
    """``node_count`` of XText, XElement and XDocument."""
    if isinstance(self, XDocument):
        return xml_node_count(self.root)
    if isinstance(self, XText):
        return 1
    return 1 + sum(xml_node_count(child) for child in self.children)


def xml_text(self) -> str:
    """``XElement.text``: the concatenated text of the subtree."""
    parts: list[str] = []
    for node in xml_iter(self):
        if isinstance(node, XText):
            parts.append(node.value)
    return "".join(parts)


def _normalized_children(element: XElement) -> list[XChild]:
    """Children with whitespace-only text dropped and adjacent text merged —
    the comparison view used by deep equality."""
    merged: list[XChild] = []
    buffer: list[str] = []
    for child in element.children:
        if isinstance(child, XText):
            buffer.append(child.value)
        else:
            text = "".join(buffer)
            if text.strip():
                merged.append(XText(text))
            buffer = []
            merged.append(child)
    text = "".join(buffer)
    if text.strip():
        merged.append(XText(text))
    return merged


def canonical_key(node: XChild, *, ignore_order: bool = True) -> tuple:
    """A hashable structural key: two nodes are deep-equal iff their keys
    are equal."""
    if isinstance(node, XText):
        return ("#text", node.value)
    child_keys = [
        canonical_key(child, ignore_order=ignore_order)
        for child in _normalized_children(node)
    ]
    if ignore_order:
        child_keys.sort()
    return ("#elem", node.tag, tuple(sorted(node.attributes.items())), tuple(child_keys))
