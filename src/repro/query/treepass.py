"""Price every answer value of an anchored plan in one bottom-up pass.

The choice points of a probabilistic XML tree are independent and nested
(paper §II), so the probability that a value occurs in a query's answer
needs no formula over choice variables.  It is a mixture at every
probability node and an independent OR at every element: the shape the
aggregate convolution (:mod:`repro.query.aggregates`) already computes.
This module holds that shape once, on the shared bottom-up traversal
(:func:`repro.pxml.treefold.fold_tree`):

* :func:`convolve` and :func:`mixture` are the two batched Fraction
  folds: independent combination under a key operator, and a weighted
  mixture (:func:`repro.pxml.events.weighted_sum`);
* :func:`price_anchored` is the answer pass.

**The answer pass** prices an *anchored* plan
(:class:`repro.query.plan.Anchor`).  Its DP state at a node is the set
of the plan's leading steps the node's children may still match, kept
as a bitmask; a node whose children can match nothing is not visited.
Each element that matches the last state is an *anchor*, and
contributes, per value, the probability that the value is in the
anchor's answer given that the anchor exists:

* when the anchor is itself the answer node, its string-value
  distribution, computed by probability alone (no events);
* when the anchor carries predicates or later steps follow it, the OR of
  its anchor-local events — built by the engine's own walk from the
  anchor and priced through the document's
  :class:`~repro.pxml.events_cache.EventProbabilityCache`, both inside
  the caller's ``local`` callback, so predicate semantics stay written
  once, in :mod:`repro.query.engine`.

Above the anchors these per-value hit maps combine as 1 − ∏(1 − ·) over
the independent children of an element or a possibility, and as the
possibilities' weighted mixture at a probability node.  Occurrence
counts add up over anchors, as the walk counts them.  An anchor inside
another anchor's subtree would make two anchors' events dependent; the
pass detects it while it traverses and returns ``None``, and the caller
falls back to the walk.

**Each distinct anchor subtree is priced once per pass.**  Integration
copies a subtree into every possibility that keeps it, so an integrated
document repeats its anchors many times over.  An anchor's contribution
is a function of its subtree's structure alone: the anchor-local path
never leaves the subtree, the anchor's existence is given, and choice
nodes are independent, so which choice variables a copy carries does not
matter.  The pass keys each anchor by its DP mask and an exact structure
key of its subtree (:func:`_structure`); an anchor whose key the pass has
already priced reuses that contribution and is not visited, walked or
priced again.  The mask belongs to the key because it decides how the
subtree is descended, and so whether a nested anchor is met: an equal key
stands for a subtree already descended alike that held none.  Anchors
priced in one pass are disjoint, so the key walks read each node at most
once more.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, TypeVar

from ..deadline import checkpoint
from ..errors import QueryError
from ..probability import ONE
from ..pxml.events import product_of, weighted_sum
from ..pxml.events_cache import EventProbabilityCache
from ..pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from ..pxml.treefold import fold_tree
from ..xmlkit.xpath.ast import Path
from .plan import Anchor, QueryPlan

__all__ = [
    "MAX_VALUE_ALTERNATIVES",
    "PricedAnswer",
    "convolve",
    "mixture",
    "price_anchored",
    "too_many_values",
]

#: value -> (exact probability, occurrence count): a priced answer.
PricedAnswer = dict[str, tuple[Fraction, int]]

#: Prices the anchor-local path at one anchor element: the answer of
#: the path walked from the element, each probability given that the
#: element exists.
LocalPricing = Callable[[Path, PXElement], PricedAnswer]

#: Cap on the number of distinct string values tracked per element;
#: beyond it a query asks for a cross product of value variants that has
#: no compact answer.  A node never has more distinct values than its
#: document has worlds, so a document of at most this many worlds is
#: always answered.
MAX_VALUE_ALTERNATIVES = 1024


def too_many_values(element: PXElement) -> QueryError:
    """The error for an element whose values exceed the cap."""
    return QueryError(
        f"value of <{element.tag}> has more than"
        f" {MAX_VALUE_ALTERNATIVES} realisations;"
        " compare a more specific node instead"
    )


K = TypeVar("K")


# -- the folds -----------------------------------------------------------------

def convolve(
    a: dict[K, Fraction], b: dict[K, Fraction], op: Callable[[K, K], K]
) -> dict[K, Fraction]:
    """The distribution of ``op(x, y)`` for independent ``x ~ a`` and
    ``y ~ b``."""
    # Point-mass factors are the overwhelmingly common case (certain
    # subtrees contribute {k: 1}); mapping the other factor's keys skips
    # the quadratic loop and the Fraction multiplications by one.  The
    # mapped keys still accumulate — an op need not be injective, so two
    # source keys can land on one result key.
    if len(a) == 1:
        (key_a, prob_a), = a.items()
        if prob_a == 1:
            return _mapped(b, lambda key: op(key_a, key))
    if len(b) == 1:
        (key_b, prob_b), = b.items()
        if prob_b == 1:
            return _mapped(a, lambda key: op(key, key_b))
    # General case: batch the per-key accumulation.  Each result key
    # gathers its (prob_a, prob_b) term pairs and is summed in one
    # integer-accumulating pass (one Fraction normalization per key
    # instead of one per term — see weighted_sum).
    terms: dict[K, tuple[list[Fraction], list[Fraction]]] = {}
    for key_a, prob_a in a.items():
        for key_b, prob_b in b.items():
            key = op(key_a, key_b)
            entry = terms.get(key)
            if entry is None:
                entry = ([], [])
                terms[key] = entry
            entry[0].append(prob_a)
            entry[1].append(prob_b)
    return {
        key: weighted_sum(weights, values)
        for key, (weights, values) in terms.items()
    }


def _mapped(
    distribution: dict[K, Fraction], op: Callable[[K], K]
) -> dict[K, Fraction]:
    """The distribution of ``op(x)`` for ``x ~ distribution``."""
    result: dict[K, Fraction] = {}
    for key, prob in distribution.items():
        mapped = op(key)
        previous = result.get(mapped)
        result[mapped] = prob if previous is None else previous + prob
    return result


def mixture(parts: list[tuple[Fraction, dict[K, Fraction]]]) -> dict[K, Fraction]:
    """Σ weight · distribution, per key (a key absent from a part has
    probability 0 there)."""
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    # Mixture weights share the choice node's small common denominator;
    # accumulating each key's Σ weight·prob as integers over a running
    # lcm (weighted_sum) skips the per-term Fraction normalizations.
    terms: dict[K, tuple[list[Fraction], list[Fraction]]] = {}
    for weight, distribution in parts:
        for key, prob in distribution.items():
            entry = terms.get(key)
            if entry is None:
                entry = ([], [])
                terms[key] = entry
            entry[0].append(weight)
            entry[1].append(prob)
    return {
        key: weighted_sum(weights, probs)
        for key, (weights, probs) in terms.items()
    }


#: value -> P(the value is in the subtree's answer | the subtree's root
#: exists) — a hit map; below a string-value anchor the same shape holds
#: a node's string-value distribution.
_Hits = dict[str, Fraction]


def _either(maps: list[_Hits]) -> _Hits:
    """Per value, the probability that at least one of the independent
    ``maps`` hits it: 1 − ∏(1 − p)."""
    if len(maps) == 1:
        return maps[0]
    present = [hits for hits in maps if hits]
    if len(present) <= 1:
        return present[0] if present else {}
    gathered: dict[str, list[Fraction]] = {}
    for hits in present:
        for value, prob in hits.items():
            entry = gathered.get(value)
            if entry is None:
                gathered[value] = [prob]
            else:
                entry.append(prob)
    return {
        value: probs[0]
        if len(probs) == 1
        else ONE - product_of([ONE - prob for prob in probs])
        for value, probs in gathered.items()
    }


def _concat(left: str, right: str) -> str:
    return left + right


def _string_values(element: PXElement, children: list[_Hits]) -> _Hits:
    """An element's string-value distribution from its probability
    children's, merged in document order.  Raises the cap's
    :class:`QueryError` exactly where the walk's per-child merge does."""
    values: _Hits = {"": ONE}
    for branch in children:
        values = convolve(values, branch, _concat)
        if len(values) > MAX_VALUE_ALTERNATIVES:
            raise too_many_values(element)
    return values


def _possibility_values(possibility: Possibility, elements: list[_Hits]) -> _Hits:
    """The string-value distribution of one possibility's content: its
    text and element children concatenated in document order."""
    values: _Hits = {"": ONE}
    pending = iter(elements)
    for child in possibility.children:
        if isinstance(child, PXText):
            values = {text + child.value: prob for text, prob in values.items()}
        else:
            values = convolve(values, next(pending), _concat)
    return values


# -- the answer pass -----------------------------------------------------------

#: An exact structure key of an element's subtree (:func:`_structure`).
_Key = tuple[object, ...]


def _structure(element: PXElement) -> _Key:
    """A flat key of ``element``'s subtree, equal for two subtrees only if
    they match node for node: tags, sorted attributes, text values,
    possibility probabilities, and every node's children in order.

    Each element contributes its attributes and its choice layer: per
    probability node the possibility count, per possibility its
    probability as an integer pair (a :class:`Fraction` hashes slowly)
    and its child count, per child an element's tag, or ``None`` and a
    text node's value.  The child elements' own parts follow, in
    pre-order with siblings taken right to left.  Polls
    :func:`~repro.deadline.checkpoint` once per probability node, as
    :func:`~repro.pxml.treefold.fold_tree` does."""
    key: list[object] = [element.tag]
    push = key.append
    stack = [element]
    while stack:
        node = stack.pop()
        attributes = node.attributes
        push(tuple(sorted(attributes.items())) if attributes else ())
        push(len(node.children))
        for prob in node.children:
            checkpoint()
            push(len(prob.possibilities))
            for possibility in prob.possibilities:
                push(possibility.prob.as_integer_ratio())
                push(len(possibility.children))
                for child in possibility.children:
                    if isinstance(child, PXText):
                        push(None)
                        push(child.value)
                    else:
                        push(child.tag)
                        stack.append(child)
    return tuple(key)


#: An element's role in the answer pass: above the anchors, with
#: nothing matchable below, an anchor, or inside an anchor's subtree.
_LIVE, _DEAD, _ANCHOR, _BELOW = range(4)

#: (role, bitmask of the leading steps the element's children may match,
#: and for an anchor its memo key: that mask with the subtree's
#: :func:`_structure`)
_State = tuple[int, int, Optional[tuple[int, _Key]]]

#: One anchor's contribution: its hit map and its value occurrences.
_Priced = tuple[_Hits, dict[str, int]]


class _NestedAnchors(Exception):
    """An anchor lies inside another anchor's subtree."""


class _AnswerPass:
    """The answer fold of :func:`price_anchored` (see the module docstring).

    Results are hit maps above and at the anchors and, for a string-value
    anchor, value distributions inside its subtree."""

    def __init__(self, anchor: Anchor, local: LocalPricing) -> None:
        self.descendant = anchor.descendant
        self.names = anchor.names
        self.path = anchor.local
        self.local = local
        #: value -> occurrences, summed over anchors.
        self.counts: dict[str, int] = {}
        self._moves: dict[tuple[int, str], tuple[bool, int]] = {}
        #: memo key -> the contribution of the anchors priced under it;
        #: its hit maps are shared with every parent that receives them.
        self._priced: dict[tuple[int, _Key], _Priced] = {}

    def _move(self, active: int, tag: str) -> tuple[bool, int]:
        """(whether an element named ``tag`` under a node with ``active``
        steps is an anchor, the steps its own children may match)."""
        key = (active, tag)
        move = self._moves.get(key)
        if move is None:
            last = len(self.names) - 1
            anchor = False
            below = 0
            for index, name in enumerate(self.names):
                if not active >> index & 1:
                    continue
                if self.descendant[index]:
                    below |= 1 << index
                if name is None or name == tag:
                    if index == last:
                        anchor = True
                    else:
                        below |= 1 << (index + 1)
            move = (anchor, below)
            self._moves[key] = move
        return move

    def enter(self, element: PXElement, state: _State) -> tuple[_State, bool]:
        role, active, _ = state
        anchor, below = self._move(active, element.tag)
        # A string-value anchor needs its whole subtree; otherwise only
        # subtrees that may still hold an anchor are visited.
        values = self.path is None
        if role == _LIVE:
            if anchor:
                # An anchor equal to one priced under the same mask
                # contributes what that one did, and was descended alike
                # without meeting a nested anchor: it is not visited.
                key = (below, _structure(element))
                descend = key not in self._priced and (values or below != 0)
                return (_ANCHOR, below, key), descend
            if below == 0:
                return (_DEAD, 0, None), False
            return (_LIVE, below, None), True
        if anchor:
            raise _NestedAnchors
        return (_BELOW, below, None), values or below != 0

    def element(
        self, element: PXElement, state: _State, children: list[_Hits]
    ) -> _Hits:
        role, _, key = state
        if role == _LIVE:
            return _either(children)
        if key is not None:
            priced = self._priced.get(key)
            if priced is None:
                priced = self._priced[key] = self._anchor(element, children)
            hits, occurrences = priced
            counts = self.counts
            for value, count in occurrences.items():
                counts[value] = counts.get(value, 0) + count
            return hits
        if role == _BELOW and self.path is None:
            return _string_values(element, children)
        return {}

    def prob(
        self, node: ProbNode, state: _State, possibilities: list[list[_Hits]]
    ) -> _Hits:
        if state[0] == _LIVE:
            parts = [
                (possibility.prob, _either(results))
                for possibility, results in zip(node.possibilities, possibilities)
                if results
            ]
            return mixture(parts) if parts else {}
        if self.path is None:
            return mixture(
                [
                    (possibility.prob, _possibility_values(possibility, results))
                    for possibility, results in zip(
                        node.possibilities, possibilities
                    )
                ]
            )
        return {}

    def _anchor(self, element: PXElement, children: list[_Hits]) -> _Priced:
        """One anchor's hit map and occurrence counts."""
        hits: _Hits = {}
        counts: dict[str, int] = {}
        if self.path is None:
            for value, prob in _string_values(element, children).items():
                if value:
                    hits[value] = prob
                    counts[value] = 1
            return hits, counts
        for value, (prob, occurrences) in self.local(self.path, element).items():
            counts[value] = occurrences
            if prob:
                hits[value] = prob
        return hits, counts


def price_anchored(
    document: PXDocument,
    plan: QueryPlan,
    cache: EventProbabilityCache,
    local: LocalPricing,
) -> Optional[PricedAnswer]:
    """Every answer value of ``plan`` over ``document`` with its exact
    probability and occurrence count, priced in one pass — or ``None``
    when the plan is not anchored or the document nests an anchor inside
    another (the caller then walks).

    ``local`` prices the anchor-local path at an anchor element; it is
    called only for plans whose anchor carries predicates or later steps.
    The result is memoized per (document, plan fingerprint) in
    ``cache``'s answer side table; treat it as shared and read-only.  An
    interrupted pass (a deadline, a :class:`QueryError`) stores nothing.
    """
    anchor = plan.anchor
    if anchor is None:
        return None
    priced = cache.priced_answer(document, plan.fingerprint)
    if priced is not None:
        return priced
    fold = _AnswerPass(anchor, local)
    try:
        hits = fold_tree(document.root, fold, (_LIVE, 1, None))
    except _NestedAnchors:
        return None
    priced = {value: (prob, fold.counts[value]) for value, prob in hits.items()}
    cache.store_priced_answer(document, plan.fingerprint, priced)
    return priced
