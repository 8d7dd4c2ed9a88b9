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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from ..errors import ExplosionError
from ..probability import ONE
from ..xmlkit.nodes import XChild, XDocument, XElement, XText, canonical_key
from .model import PXChild, PXDocument, PXElement, PXText, ProbNode
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
                clone = base.copy()
                for child in children:
                    clone.append(child.copy())
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
    document: PXDocument, *, limit: Optional[int] = DEFAULT_WORLD_LIMIT
) -> Iterator[World]:
    """Enumerate all possible worlds with their probabilities.

    Probabilities sum to exactly 1 over the enumeration.  Raises
    :class:`ExplosionError` when more than ``limit`` worlds would be
    produced (pass ``limit=None`` at your own risk — the count grows
    exponentially; check :func:`world_count` first).
    """
    for children, prob in _expand_prob(document.root, limit):
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
    probabilities, most probable first."""
    merged: dict[tuple, tuple[XDocument, Fraction]] = {}
    for world in iter_worlds(document, limit=limit):
        key = canonical_key(world.document.root)
        if key in merged:
            doc, prob = merged[key]
            merged[key] = (doc, prob + world.probability)
        else:
            merged[key] = (world.document, world.probability)
    return sorted(merged.values(), key=lambda pair: (-pair[1], id(pair[0])))
