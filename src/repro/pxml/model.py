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
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

from ..errors import ModelError
from ..probability import ONE, ProbLike, as_probability

_UID_COUNTER = itertools.count(1)

PXChild = Union["PXElement", "PXText"]

K = TypeVar("K")


class PXText:
    """A regular text node (leaf)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise ModelError(f"text value must be str, got {type(value).__name__}")
        self.value = value

    def copy(self) -> "PXText":
        return PXText(self.value)

    def node_count(self) -> int:
        return 1

    def __repr__(self) -> str:
        return f"PXText({self.value!r})"


class PXElement:
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

    def copy(self) -> "PXElement":
        return PXElement(
            self.tag, dict(self.attributes), [child.copy() for child in self.children]
        )

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def iter_prob_nodes(self) -> Iterator["ProbNode"]:
        for child in self.children:
            yield from child.iter_prob_nodes()

    def is_certain(self) -> bool:
        return all(child.is_certain() for child in self.children)

    def __repr__(self) -> str:
        return f"PXElement({self.tag!r}, children={len(self.children)})"


class Possibility:
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

    def copy(self) -> "Possibility":
        clone = Possibility(self.prob)
        clone.children = [child.copy() for child in self.children]
        return clone

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def iter_prob_nodes(self) -> Iterator["ProbNode"]:
        for child in self.children:
            if isinstance(child, PXElement):
                yield from child.iter_prob_nodes()

    def __repr__(self) -> str:
        return f"Possibility(p={self.prob}, children={len(self.children)})"


class ProbNode:
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

    def copy(self) -> "ProbNode":
        """Deep copy.  The copy is a *new* choice variable (fresh uid)."""
        return ProbNode([possibility.copy() for possibility in self.possibilities])

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.possibilities)

    def iter_prob_nodes(self) -> Iterator["ProbNode"]:
        """This node and all probability nodes below it, pre-order."""
        yield self
        for possibility in self.possibilities:
            yield from possibility.iter_prob_nodes()

    def is_certain(self) -> bool:
        """True when this subtree admits exactly one world."""
        if len(self.possibilities) != 1 or self.possibilities[0].prob != ONE:
            return False
        return all(
            child.is_certain()
            for child in self.possibilities[0].children
            if isinstance(child, PXElement)
        )

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


# -- validation ---------------------------------------------------------------

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
    ``element_keys`` (one per element, in document order), and the keys
    are sorted — text concatenation order is semantically meaningful (it
    is what worlds see), element order is not."""
    merged: list[K] = []
    buffer: list[str] = []
    for child in children:
        if isinstance(child, PXText):
            buffer.append(child.value)
        else:
            if buffer:
                merged.append(run_key("".join(buffer)))
                buffer = []
            merged.append(next(element_keys))
    if buffer:
        merged.append(run_key("".join(buffer)))
    return tuple(sorted(merged))


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
    compared as units.  The key is *syntactic* — semantically equal trees
    with different factorings get different keys.  Run
    :mod:`repro.pxml.simplify` first when a semantic comparison is needed.
    The key rules are the constructors above, which compaction shares.
    """
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


def px_deep_equal(
    a: Union[ProbNode, Possibility, PXChild],
    b: Union[ProbNode, Possibility, PXChild],
) -> bool:
    """Structural equality of probabilistic subtrees (order-insensitive)."""
    return px_canonical_key(a) == px_canonical_key(b)
