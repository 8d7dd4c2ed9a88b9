"""Information-theoretic uncertainty measures for probabilistic XML.

The paper measures uncertainty in nodes and worlds; entropy gives a third,
probability-aware view: how many bits of real ambiguity a document holds.
Because choices at distinct probability nodes are independent, the entropy
of the world distribution decomposes over the tree:

    H(document) = Σ over probability nodes n of  P(n reachable) · H(n)

where ``H(n)`` is the entropy of n's possibility distribution.  This is
exact for *choice* worlds (distinct choices may yield equal documents, so
it upper-bounds the entropy of the distribution over distinct documents —
the same caveat as the paper's world counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .model import PXDocument, ProbNode
from .stats import _reaches, tree_stats


def _entropy_bits(probabilities: list[Fraction]) -> float:
    total = 0.0
    for prob in probabilities:
        if prob > 0:
            value = float(prob)
            total -= value * math.log2(value)
    return total


@dataclass(frozen=True)
class UncertaintyProfile:
    """A document's uncertainty, three ways."""

    nodes: int              # the paper's preferred scalability measure
    worlds: int             # the paper's "deceiving" measure
    entropy_bits: float     # probability-aware ambiguity
    choice_points: int

    def summary(self) -> str:
        return (
            f"{self.nodes:,} nodes, {self.worlds:,} worlds,"
            f" {self.entropy_bits:.2f} bits over {self.choice_points} choices"
        )


def world_entropy(document: Union[PXDocument, ProbNode]) -> float:
    """Entropy (bits) of the choice-world distribution.

    >>> from repro.pxml.build import certain_prob, choice_prob
    >>> from repro.pxml.model import PXDocument, PXElement, PXText
    >>> fifty_fifty = choice_prob([("1/2", [PXText("a")]), ("1/2", [PXText("b")])])
    >>> doc = PXDocument(certain_prob(PXElement("r", children=[fifty_fifty])))
    >>> world_entropy(doc)
    1.0
    """
    return sum(
        float(reach) * _entropy_bits([p.prob for p in node.possibilities])
        for node, reach in _reaches(document)
        if isinstance(node, ProbNode)
    )


def uncertainty_profile(document: PXDocument) -> UncertaintyProfile:
    """All three uncertainty views at once."""
    stats = tree_stats(document)
    return UncertaintyProfile(
        nodes=stats.total,
        worlds=stats.world_count,
        entropy_bits=world_entropy(document),
        choice_points=stats.choice_points,
    )
