"""Uncertainty and size metrics for probabilistic trees.

The paper (§V) argues that the number of *nodes* used to represent the
possible worlds is the honest scalability measure (world counts grow
exponentially in the number of independent choices and therefore
"deceive").  Table I and Figure 5 are therefore node-count experiments;
:func:`tree_stats` produces everything those benchmarks report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from ..probability import ONE, ZERO
from .model import PXDocument, PXElement, PXText, Possibility, ProbNode

AnyPX = Union[PXDocument, ProbNode, Possibility, PXElement, PXText]


@dataclass(frozen=True)
class NodeStats:
    """Node census of a probabilistic tree."""

    probability_nodes: int
    possibility_nodes: int
    element_nodes: int
    text_nodes: int
    choice_points: int        # probability nodes with >1 possibility
    max_branching: int        # largest possibility count at one node
    world_count: int          # exact number of (choice) worlds

    @property
    def total(self) -> int:
        """Total node count — the paper's scalability measure."""
        return (
            self.probability_nodes
            + self.possibility_nodes
            + self.element_nodes
            + self.text_nodes
        )

    def summary(self) -> str:
        return (
            f"{self.total} nodes"
            f" ({self.probability_nodes}▽ {self.possibility_nodes}○"
            f" {self.element_nodes}elem {self.text_nodes}text),"
            f" {self.choice_points} choice points,"
            f" {self.world_count} worlds"
        )


def node_count(node: AnyPX) -> int:
    """Total number of nodes (probability + possibility + regular), read
    from :func:`tree_stats`'s one pass."""
    return tree_stats(node).total


def tree_stats(node: AnyPX) -> NodeStats:
    """Full census of a probabilistic tree, world count included, in one
    pass with an explicit stack (document depth is bounded by memory).

    >>> from repro.pxml import certain_document
    >>> from repro.xmlkit import parse_document
    >>> stats = tree_stats(certain_document(parse_document("<a><b>x</b></a>")))
    >>> (stats.total, stats.world_count)
    (9, 1)
    """
    probs = possibilities = elements = texts = choice_points = max_branching = 0
    order: list[ProbNode] = []
    stack: list[AnyPX] = [node.root if isinstance(node, PXDocument) else node]
    while stack:
        current = stack.pop()
        # Only the input itself can be something other than a probability
        # node: below it, possibilities and regular nodes are counted
        # where their probability node is.
        options: Sequence[Possibility] = ()
        if isinstance(current, ProbNode):
            order.append(current)
            options = current.possibilities
            probs += 1
            if len(options) > 1:
                choice_points += 1
            max_branching = max(max_branching, len(options))
        elif isinstance(current, Possibility):
            options = (current,)
        elif isinstance(current, PXElement):
            elements += 1
            stack.extend(current.children)
        elif isinstance(current, PXText):
            texts += 1
        else:
            raise TypeError(f"cannot census {type(current).__name__}")
        possibilities += len(options)
        for possibility in options:
            for child in possibility.children:
                if isinstance(child, PXElement):
                    elements += 1
                    stack.extend(child.children)
                else:
                    texts += 1
    # Every probability node was visited before its descendants, so in
    # reverse it finds the world counts of the probability nodes one
    # element below it on top of ``worlds``, its last possibility's
    # last; it sums over its possibilities the product of theirs.  What
    # is left belongs to the input's topmost probability nodes.
    worlds: list[int] = []
    for prob in reversed(order):
        total = 0
        for possibility in reversed(prob.possibilities):
            product = 1
            for child in possibility.children:
                if isinstance(child, PXElement):
                    for _ in child.children:
                        product *= worlds.pop()
            total += product
        worlds.append(total)
    return NodeStats(
        probability_nodes=probs,
        possibility_nodes=possibilities,
        element_nodes=elements,
        text_nodes=texts,
        choice_points=choice_points,
        max_branching=max_branching,
        world_count=math.prod(worlds),
    )


def _reaches(node: AnyPX) -> Iterator[tuple[AnyPX, Fraction]]:
    """Every node of ``node``'s subtree with the probability that a world
    keeps it: the product of the possibilities on its path.  One top-down
    pass with an explicit stack carries that product to every node."""
    stack = [(node.root if isinstance(node, PXDocument) else node, ONE)]
    while stack:
        current, reach = stack.pop()
        yield current, reach
        if isinstance(current, ProbNode):
            stack.extend((p, reach * p.prob) for p in current.possibilities)
        elif isinstance(current, (Possibility, PXElement)):
            stack.extend((child, reach) for child in current.children)
        elif not isinstance(current, PXText):
            raise TypeError(f"cannot walk {type(current).__name__}")


def expected_world_size(node: AnyPX) -> Fraction:
    """Expected number of plain-XML nodes of a random world: each regular
    node counts with the probability that a world keeps it."""
    regular = (PXElement, PXText)
    return sum((reach for item, reach in _reaches(node) if isinstance(item, regular)), ZERO)
