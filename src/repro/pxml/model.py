"""The layered probabilistic XML tree (paper §II).

Layering invariants (checked by :func:`validate_document`):

* the document root is a probability node;
* children of probability nodes are possibility nodes (at least one);
* possibility probabilities lie in (0, 1] and sibling possibilities sum
  to exactly 1;
* children of possibility nodes are regular nodes (elements / text);
* children of element nodes are probability nodes;
* text nodes are leaves.

Every :class:`ProbNode` carries a unique ``uid`` — the identity of the
*choice variable* it represents.  Possible-world semantics: a world picks
one possibility per probability node, independently across nodes; the
world's probability is the product of the picked probabilities over the
nodes that are *reachable* under those picks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from ..errors import ModelError
from ..probability import ONE, ProbLike, as_probability

_UID_COUNTER = itertools.count(1)

PXChild = Union["PXElement", "PXText"]

K = TypeVar("K")
_R = TypeVar("_R")
_N = TypeVar("_N", bound="_PXNode")


class _PXNode:
    """What the four node kinds share: the walks over a subtree, each
    written once on an explicit stack, so document depth is bounded by
    memory and never by the interpreter stack.  ``node_count``,
    ``iter_prob_nodes`` and ``is_certain`` run on :func:`_preorder`;
    ``copy`` keeps its own top-down loop, since integration copies every
    merged pair it uses."""

    __slots__ = ()

    def copy(self: _N) -> _N:
        """Deep copy.  Its probability nodes are *new* choice variables:
        fresh uids, numbered children first, left to right."""
        probs: list[ProbNode] = []
        root = _bare(self)
        stack = [] if isinstance(self, PXText) else [(self, root)]
        while stack:
            source, clone = stack.pop()
            if isinstance(source, ProbNode):
                probs.append(clone)
                below, into = source.possibilities, clone.possibilities
            else:
                below, into = source.children, clone.children
            for child in below:
                copied = _bare(child)
                into.append(copied)
                if not isinstance(child, PXText):
                    stack.append((child, copied))
        # The stack took siblings right to left; reversed, that pre-order
        # is children first, left to right.
        for prob in reversed(probs):
            prob.uid = next(_UID_COUNTER)
        return root

    def node_count(self) -> int:
        """Number of nodes in this subtree, this node included."""
        return sum(1 for _ in _preorder(self))

    def iter_prob_nodes(self) -> Iterator["ProbNode"]:
        """The probability nodes of this subtree, this node included, in
        document pre-order."""
        return (node for node in _preorder(self) if isinstance(node, ProbNode))

    def is_certain(self) -> bool:
        """True when this subtree admits exactly one world."""
        return all(
            len(node.possibilities) == 1 and node.possibilities[0].prob == ONE
            for node in self.iter_prob_nodes()
        )


class PXText(_PXNode):
    """A regular text node (leaf)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise ModelError(f"text value must be str, got {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        return f"PXText({self.value!r})"


class PXElement(_PXNode):
    """A regular element node; its children are probability nodes."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[Sequence["ProbNode"]] = None,
    ):
        if not tag or not isinstance(tag, str):
            raise ModelError(f"invalid element tag: {tag!r}")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[ProbNode] = []
        for child in children or ():
            self.append(child)

    def append(self, child: "ProbNode") -> "ProbNode":
        if not isinstance(child, ProbNode):
            raise ModelError(
                f"children of elements must be probability nodes,"
                f" got {type(child).__name__} under <{self.tag}>"
            )
        self.children.append(child)
        return child

    def __repr__(self) -> str:
        return f"PXElement({self.tag!r}, children={len(self.children)})"


class Possibility(_PXNode):
    """One alternative (○) under a probability node."""

    __slots__ = ("prob", "children")

    def __init__(self, prob: ProbLike, children: Optional[Sequence[PXChild]] = None):
        self.prob: Fraction = as_probability(prob)
        self.children: list[PXChild] = []
        for child in children or ():
            self.append(child)

    def append(self, child: PXChild) -> PXChild:
        if isinstance(child, str):
            child = PXText(child)
        if not isinstance(child, (PXElement, PXText)):
            raise ModelError(
                f"children of possibilities must be regular nodes,"
                f" got {type(child).__name__}"
            )
        self.children.append(child)
        return child

    def __repr__(self) -> str:
        return f"Possibility(p={self.prob}, children={len(self.children)})"


class ProbNode(_PXNode):
    """A choice point (▽); children are mutually exclusive possibilities.

    Weak-referenceable so the event algebra's uid → node registry
    (:mod:`repro.pxml.events`) can resolve Shannon pivots without keeping
    dead documents alive.
    """

    __slots__ = ("uid", "possibilities", "__weakref__")

    def __init__(self, possibilities: Optional[Sequence[Possibility]] = None):
        self.uid: int = next(_UID_COUNTER)
        self.possibilities: list[Possibility] = []
        for possibility in possibilities or ():
            self.append(possibility)

    def append(self, possibility: Possibility) -> Possibility:
        if not isinstance(possibility, Possibility):
            raise ModelError(
                f"children of probability nodes must be possibilities,"
                f" got {type(possibility).__name__}"
            )
        self.possibilities.append(possibility)
        return possibility

    def total_probability(self) -> Fraction:
        return sum((p.prob for p in self.possibilities), Fraction(0))

    def __repr__(self) -> str:
        return f"ProbNode(uid={self.uid}, possibilities={len(self.possibilities)})"


class PXDocument:
    """A probabilistic XML document, rooted at a probability node.

    In strict form (enforced by :func:`validate_document` with
    ``as_document=True``) every root possibility holds exactly one element,
    so that each possible world is a well-formed XML document.

    Documents are weak-referenceable so that per-document caches (see
    :mod:`repro.pxml.events_cache`) can be garbage-collected with them.
    """

    __slots__ = ("root", "__weakref__")

    def __init__(self, root: ProbNode):
        if not isinstance(root, ProbNode):
            raise ModelError("document root must be a probability node")
        self.root = root

    def copy(self) -> "PXDocument":
        return PXDocument(self.root.copy())

    def node_count(self) -> int:
        return self.root.node_count()

    def iter_prob_nodes(self) -> Iterator[ProbNode]:
        return self.root.iter_prob_nodes()

    def is_certain(self) -> bool:
        return self.root.is_certain()

    def __repr__(self) -> str:
        return f"PXDocument(nodes={self.node_count()})"


# -- walks ---------------------------------------------------------------------

def _below(node: _PXNode) -> Sequence[_PXNode]:
    """The children of ``node`` in the layered tree."""
    if isinstance(node, (PXElement, Possibility)):
        return node.children
    if isinstance(node, ProbNode):
        return node.possibilities
    return ()


def _preorder(node: _PXNode, *, mirrored: bool = False) -> Iterator[_PXNode]:
    """Every node of ``node``'s subtree in document pre-order, or with
    siblings taken right to left when ``mirrored``."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        below = _below(current)
        stack.extend(below if mirrored else reversed(below))


def _fold(node: _PXNode, combine: Callable[[_PXNode, list[_R]], _R]) -> _R:
    """Fold ``node``'s subtree children first, left to right: ``combine``
    gets each node with its children's results, in document order.  That
    is the mirrored pre-order, reversed."""
    results: list[_R] = []
    for current in reversed(list(_preorder(node, mirrored=True))):
        cut = len(results) - len(_below(current))
        parts = results[cut:]
        del results[cut:]
        results.append(combine(current, parts))
    return results[0]


def _bare(node: _N) -> _N:
    """A copy of ``node`` without its children (nor its uid, if it is a
    probability node).  The node is valid already, so the constructors'
    checks are skipped."""
    clone = object.__new__(type(node))
    if isinstance(node, PXElement):
        clone.tag, clone.attributes, clone.children = node.tag, dict(node.attributes), []
    elif isinstance(node, Possibility):
        clone.prob, clone.children = node.prob, []
    elif isinstance(node, ProbNode):
        clone.possibilities = []
    else:
        clone.value = node.value
    return clone


# -- validation ---------------------------------------------------------------

def validate_document(
    document: PXDocument | ProbNode, *, as_document: bool = True
) -> None:
    """Check all layering and probability invariants; raise
    :class:`ModelError` on the first violation, in document order."""
    root = document.root if isinstance(document, PXDocument) else document
    if as_document:
        for possibility in root.possibilities:
            elements = [c for c in possibility.children if isinstance(c, PXElement)]
            if len(elements) != 1 or len(possibility.children) != 1:
                raise ModelError(
                    "each root possibility must hold exactly one element"
                )
    # Each entry holds a node, the path its parent reports it under and
    # the kind it must be: a child is checked when it comes off the
    # stack, after its elder siblings' subtrees.
    regular = (PXElement, PXText)
    stack: list[tuple[Any, str, Any]] = [(root, "", ProbNode)]
    while stack:
        node, path, kind = stack.pop()
        if not isinstance(node, kind):
            what = "invalid child" if kind is regular else (
                "element child must be a probability node, got"
            )
            raise ModelError(f"{path}: {what} {type(node).__name__}")
        if isinstance(node, ProbNode):
            path = f"{path}/▽{node.uid}" if path else "/"
            if not node.possibilities:
                raise ModelError(f"{path}: probability node without possibilities")
            total = node.total_probability()
            if total != 1:
                raise ModelError(f"{path}: possibilities sum to {total}, expected 1")
            below = [(p, f"{path}[{i}]", object) for i, p in enumerate(node.possibilities)]
            stack.extend(reversed(below))
        elif isinstance(node, Possibility):
            if node.prob <= 0:
                raise ModelError(f"{path}: non-positive probability")
            stack.extend((child, path, regular) for child in reversed(node.children))
        elif isinstance(node, PXElement):
            path = f"{path}/{node.tag}"
            stack.extend((child, path, ProbNode) for child in reversed(node.children))


# -- structural equality -------------------------------------------------------

def _yields_top_text(node: ProbNode) -> bool:
    """Whether any possibility of this node has a text child — i.e. the
    node's expansion can contribute a top-level text run."""
    return any(
        isinstance(child, PXText)
        for possibility in node.possibilities
        for child in possibility.children
    )


def _text_key(value: str) -> tuple:
    """The key of a text node, or of a run of adjacent text nodes."""
    return ("t", value)


def _content_key(
    children: Sequence[PXChild],
    element_keys: Iterator[K],
    run_key: Callable[[str], K],
) -> tuple:
    """The key of a possibility's content: *adjacent* text runs are merged
    and keyed by ``run_key``, element children take their keys from
    ``element_keys`` (one per element, in document order).  Pure element
    content is sorted: element order is not semantic.  Content with text
    keeps document order: a run at either end joins the text beside the
    possibility in a world, so ``x<a/>`` and ``<a/>x`` differ once text
    precedes them."""
    merged: list[K] = []
    buffer: list[str] = []
    text = False
    for child in children:
        if isinstance(child, PXText):
            buffer.append(child.value)
        else:
            if buffer:
                merged.append(run_key("".join(buffer)))
                buffer, text = [], True
            merged.append(next(element_keys))
    if buffer:
        merged.append(run_key("".join(buffer)))
        text = True
    return tuple(merged if text else sorted(merged))


def _element_key(element: PXElement, child_keys: list[K], ordered: bool) -> tuple:
    """The key of ``element`` from its probability children's keys, in
    document order.  Their order counts only when ``ordered``: when a
    child's expansion can produce text at this level (text runs
    concatenate in child order); pure element content is
    order-insensitive, like deep equality."""
    return (
        "e",
        element.tag,
        tuple(sorted(element.attributes.items())),
        tuple(child_keys if ordered else sorted(child_keys)),
    )


def _possibility_key(prob: Fraction, content: tuple) -> tuple:
    """The key of a possibility from its probability and content key."""
    return ("o", prob, content)


def _prob_key(possibility_keys: Iterable[tuple]) -> tuple:
    """The key of a probability node from its possibilities' keys."""
    return ("p", tuple(sorted(possibility_keys)))


def px_canonical_key(node: Union[ProbNode, Possibility, PXChild]) -> tuple:
    """Hashable structural key for probabilistic subtrees.

    Sibling *element* order is ignored (consistent with the oracle's
    order-insensitive deep equality); adjacent text runs are merged, then
    compared as units, and siblings among which text can stand keep
    document order, because a world joins text across them.  The key is
    *syntactic* — semantically equal trees with different factorings get
    different keys.  Run :mod:`repro.pxml.simplify` first when a semantic
    comparison is needed.
    The key rules are the constructors above, which compaction shares.
    """
    if not isinstance(node, _PXNode):
        raise ModelError(f"cannot key {type(node).__name__}")
    return _fold(node, _key_of)


def _key_of(node: _PXNode, keys: list[tuple]) -> tuple:
    """``node``'s key from its children's keys (see :func:`px_canonical_key`)."""
    if isinstance(node, PXText):
        return _text_key(node.value)
    if isinstance(node, PXElement):
        return _element_key(node, keys, any(map(_yields_top_text, node.children)))
    if isinstance(node, Possibility):
        elements = (k for c, k in zip(node.children, keys) if isinstance(c, PXElement))
        content = _content_key(node.children, elements, _text_key)
        return _possibility_key(node.prob, content)
    return _prob_key(keys)


def px_deep_equal(
    a: Union[ProbNode, Possibility, PXChild],
    b: Union[ProbNode, Possibility, PXChild],
) -> bool:
    """Structural equality of probabilistic subtrees (order-insensitive)."""
    return px_canonical_key(a) == px_canonical_key(b)
