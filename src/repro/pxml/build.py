"""Converters between plain XML and probabilistic XML.

The central convention set here (and relied on throughout integration and
node counting): a *certain* plain element maps to a probabilistic element
where **each child gets its own certain probability node** — one choice
point per child position.  Choices that integration later introduces group
several children under a single shared probability node instead.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from ..errors import ModelError
from ..probability import ONE, ProbLike, as_probability
from ..xmlkit.nodes import XDocument, XElement, XText, XChild
from .model import PXChild, PXDocument, PXElement, PXText, Possibility, ProbNode


def certain_prob(children: Union[PXChild, Sequence[PXChild]]) -> ProbNode:
    """Wrap regular node(s) into a certain probability node (1 possibility,
    probability 1)."""
    if isinstance(children, (PXElement, PXText)):
        children = [children]
    return ProbNode([Possibility(ONE, list(children))])


def choice_prob(
    alternatives: Sequence[tuple[ProbLike, Sequence[PXChild]]]
) -> ProbNode:
    """Build a choice point from ``(probability, children)`` alternatives.

    >>> from repro.pxml import world_count, PXDocument
    >>> tel = choice_prob([("1/2", [PXText("1111")]), ("1/2", [PXText("2222")])])
    >>> len(tel.possibilities)
    2
    """
    if not alternatives:
        raise ModelError("a choice needs at least one alternative")
    node = ProbNode()
    for prob, children in alternatives:
        node.append(Possibility(as_probability(prob), list(children)))
    return node


def certain_element(element: XElement) -> PXElement:
    """Convert a plain element subtree into its certain probabilistic form.

    Depth-first on an explicit stack, so any depth converts: a child's
    certain wrapper is made once its subtree is converted, so choice
    variables are numbered children first, in document order."""
    root = PXElement(element.tag, dict(element.attributes))
    stack: list[tuple[PXElement, Iterator[XChild]]] = [(root, iter(element.children))]
    while stack:
        converted, pending = stack[-1]
        child = next(pending, None)
        if child is None:
            stack.pop()
            if stack:
                stack[-1][0].children.append(certain_prob(converted))
        elif isinstance(child, XText):
            if child.value.strip():
                converted.children.append(certain_prob(PXText(child.value)))
        else:
            stack.append(
                (PXElement(child.tag, dict(child.attributes)), iter(child.children))
            )
    return root


def certain_document(document: XDocument) -> PXDocument:
    """Wrap a plain document as a (certain) probabilistic document; its root
    probability node has a single possibility holding the root element."""
    return PXDocument(certain_prob(certain_element(document.root)))


def to_certain(node: Union[PXDocument, ProbNode, PXElement, PXText]) -> object:
    """Convert a *certain* probabilistic subtree back to plain XML.

    Raises :class:`ModelError` when any real choice remains (the first
    one in document order).  Documents map to :class:`XDocument`,
    elements to :class:`XElement`, text to :class:`XText`; a certain
    probability node maps to the list of plain children of its single
    possibility.
    """
    if isinstance(node, PXDocument):
        elements = [c for c in _plain_children(node.root) if isinstance(c, XElement)]
        if len(elements) != 1:
            raise ModelError("certain document must have exactly one root element")
        return XDocument(elements[0])
    if isinstance(node, ProbNode):
        return _plain_children(node)
    if isinstance(node, PXElement):
        return _plain_element(node)
    if isinstance(node, PXText):
        return XText(node.value)
    raise ModelError(f"cannot convert {type(node).__name__}")


def _certain_children(node: ProbNode) -> list[PXChild]:
    """The children of ``node``'s single certain possibility."""
    if len(node.possibilities) != 1 or node.possibilities[0].prob != ONE:
        raise ModelError(
            f"probability node ▽{node.uid} is uncertain"
            f" ({len(node.possibilities)} possibilities)"
        )
    return node.possibilities[0].children


def _regular_children(element: PXElement) -> Iterator[PXChild]:
    """``element``'s regular grandchildren, in document order; each
    probability child is checked when the walk reaches it."""
    for prob_child in element.children:
        yield from _certain_children(prob_child)


def _plain_children(node: ProbNode) -> list[XChild]:
    return [
        XText(child.value) if isinstance(child, PXText) else _plain_element(child)
        for child in _certain_children(node)
    ]


def _plain_element(element: PXElement) -> XElement:
    """``element`` as plain XML, depth-first on an explicit stack."""
    root = XElement(element.tag, dict(element.attributes))
    stack = [(root, _regular_children(element))]
    while stack:
        plain, pending = stack[-1]
        child = next(pending, None)
        if child is None:
            stack.pop()
        elif isinstance(child, PXText):
            plain.append(XText(child.value))
        else:
            converted = XElement(child.tag, dict(child.attributes))
            plain.append(converted)
            stack.append((converted, _regular_children(child)))
    return root
