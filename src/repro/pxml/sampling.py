"""Monte-Carlo sampling of possible worlds.

When a document holds too many worlds to enumerate, queries and quality
measures can be estimated from samples.  Sampling walks the tree once per
world, drawing one possibility at every reachable probability node, so a
sample costs O(size of the sampled world).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Iterator, Optional

from ..probability import ONE
from ..xmlkit.nodes import XChild, XDocument, XElement, XText
from ..errors import ModelError
from .model import PXDocument, PXText, Possibility, ProbNode
from .worlds import World


def _draw(node: ProbNode, rng: random.Random) -> Possibility:
    roll = Fraction(rng.random()).limit_denominator(10**12)
    cumulative = Fraction(0)
    for possibility in node.possibilities:
        cumulative += possibility.prob
        if roll < cumulative:
            return possibility
    return node.possibilities[-1]


def sample_world(document: PXDocument, rng: Optional[random.Random] = None) -> World:
    """Draw one world with probability proportional to its likelihood.

    One pre-order stack draws at every reachable probability node in
    document order and puts each drawn node under its parent's copy.
    """
    rng = rng or random.Random()
    probability = ONE
    roots: list[XChild] = []
    stack: list[tuple[Any, Any]] = [(document.root, roots)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, ProbNode):
            possibility = _draw(node, rng)
            probability *= possibility.prob
            stack.extend((child, parent) for child in reversed(possibility.children))
        elif isinstance(node, PXText):
            parent.append(XText(node.value))
        else:
            element = XElement(node.tag, node.attributes)
            parent.append(element)
            stack.extend((child, element) for child in reversed(node.children))
    elements = [child for child in roots if isinstance(child, XElement)]
    if len(elements) != 1:
        raise ModelError("a root possibility must expand to exactly one element")
    return World(XDocument(elements[0]), probability)


def sample_worlds(
    document: PXDocument, count: int, *, seed: Optional[int] = None
) -> Iterator[World]:
    """Draw ``count`` independent worlds (deterministic under ``seed``)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield sample_world(document, rng)
