"""Possible-world semantics: enumeration and counting.

A world picks one possibility at every probability node it can reach from
the root; its probability is the product of the picked probabilities.
Worlds are *choice worlds*: two different combinations of choices count as
two worlds even when they produce identical documents (the paper calls the
raw number-of-worlds measure "deceiving" for exactly this kind of reason;
:func:`distinct_worlds` merges duplicates when a semantic census is
wanted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from ..errors import ExplosionError
from ..probability import ONE, exact_order_key
from ..xmlkit.nodes import XChild, XDocument, XElement, XText, canonical_key
from .model import (
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
    _fold,
    _PXNode,
)
from .stats import tree_stats

DEFAULT_WORLD_LIMIT = 200_000


@dataclass(frozen=True)
class World:
    """One possible world: a plain document and its probability."""

    document: XDocument
    probability: Fraction


def world_count(node: Union[PXDocument, ProbNode, PXElement, PXText]) -> int:
    """Exact number of (choice) worlds — a big integer, never enumerated.

    Read from :func:`repro.pxml.stats.tree_stats`'s one pass: a
    probability node sums over its possibilities, a possibility/element
    multiplies over its children.
    """
    return tree_stats(node).world_count


def _expand(node: _PXNode, parts: list, limit: Optional[int]) -> list:
    """One step of the children-first fold behind :func:`iter_worlds`:
    every way to fill ``node``'s place in a world, as a list of plain
    nodes with its probability.  A possibility hands its children's ways
    up to its probability node.  A plain node is shared by all the ways
    that hold it and copied only when it is placed a second time."""
    if isinstance(node, PXText):
        return [([XText(node.value)], ONE)]
    if isinstance(node, Possibility):
        return parts
    if isinstance(node, PXElement):
        return [
            ([XElement(node.tag, node.attributes, map(_placed, children))], prob)
            for children, prob in _combine(node, [([], ONE)], parts, limit)
        ]
    ways = []
    for possibility, results in zip(node.possibilities, parts):
        ways.extend(_combine(node, [([], possibility.prob)], results, limit))
        _guard(node, len(ways), limit)
    return ways


def _combine(node: _PXNode, ways: list, parts: list, limit: Optional[int]) -> list:
    """``ways`` extended by one way of each child in ``parts``, in every
    combination, the first child's ways varying slowest."""
    for results in parts:
        combined = (
            (items + more, _times(prob, more_prob))
            for items, prob in ways
            for more, more_prob in results
        )
        ways = list(itertools.islice(combined, None if limit is None else limit + 1))
        _guard(node, len(ways), limit)
    return ways


def _times(prob: Fraction, more_prob: Fraction) -> Fraction:
    """``prob · more_prob``, skipping the multiplication when a factor is
    1 (most ways are certain: a text or a certain child)."""
    if more_prob == 1:
        return prob
    if prob == 1:
        return more_prob
    return prob * more_prob


def _placed(child: XChild) -> XChild:
    """``child`` itself where it is placed first, a copy where again."""
    return child if child.parent is None else child.copy()


def _guard(node: _PXNode, count: int, limit: Optional[int]) -> None:
    """Raise :class:`ExplosionError` when ``node`` has more than ``limit``
    ways."""
    if limit is not None and count > limit:
        where = f"under <{node.tag}>" if isinstance(node, PXElement) else f"at ▽{node.uid}"
        raise ExplosionError(
            f"world enumeration {where} exceeds the limit of {limit} variants",
            estimated=world_count(node),
        )


def iter_worlds(
    document: PXDocument, *, limit: Optional[int] = DEFAULT_WORLD_LIMIT
) -> Iterator[World]:
    """Enumerate all possible worlds with their probabilities.

    Probabilities sum to exactly 1 over the enumeration.  Raises
    :class:`ExplosionError` when more than ``limit`` worlds would be
    produced (pass ``limit=None`` at your own risk — the count grows
    exponentially; check :func:`world_count` first).
    """
    expansions = _fold(document.root, lambda node, parts: _expand(node, parts, limit))
    for children, prob in expansions:
        elements = [child for child in children if isinstance(child, XElement)]
        if len(elements) != 1:
            raise ExplosionError(
                "a root possibility expanded to"
                f" {len(elements)} root elements; not a document"
            )
        yield World(XDocument(elements[0]), prob)


def distinct_worlds(
    document: PXDocument, *, limit: Optional[int] = DEFAULT_WORLD_LIMIT
) -> list[tuple[XDocument, Fraction]]:
    """Worlds merged by document equality (order-insensitive), with summed
    probabilities, most probable first; equal probabilities keep the
    order their first world was enumerated in, so a budget that cuts
    through a tie keeps the same worlds on every run."""
    merged: dict[tuple, tuple[XDocument, Fraction]] = {}
    for world in iter_worlds(document, limit=limit):
        key = canonical_key(world.document.root)
        if key in merged:
            doc, prob = merged[key]
            merged[key] = (doc, prob + world.probability)
        else:
            merged[key] = (world.document, world.probability)
    worlds = list(merged.values())
    order = exact_order_key(prob for _, prob in worlds)
    worlds.sort(key=lambda pair: -order(pair[1]))  # stable: ties stay put
    return worlds
