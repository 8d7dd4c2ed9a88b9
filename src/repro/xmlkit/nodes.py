"""Plain XML node model.

A deliberately small, dependency-free document object model: elements with
string attributes, text nodes, and a document wrapper.  It exists (instead
of ``xml.etree``) because the probabilistic layer needs precise structural
control — node identity, stable child order, deep equality with an
order-insensitive mode, and exact node counting, all of which are awkward to
bolt onto ElementTree.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, TypeVar, Union

XChild = Union["XElement", "XText"]

_X = TypeVar("_X", bound="XNode")


class XNode:
    """Base class for plain XML nodes.  Its walks over a subtree are
    written once, here, on explicit stacks: document depth is bounded by
    memory, never by the interpreter stack."""

    parent: Optional["XElement"]

    def iter(self) -> Iterator["XNode"]:
        """Depth-first pre-order iteration over this subtree."""
        stack: list[XNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, XElement):
                stack.extend(reversed(node.children))

    def node_count(self) -> int:
        """Number of nodes in this subtree (this node included)."""
        return sum(1 for _ in self.iter())

    def copy(self: _X) -> _X:
        """Deep copy of this subtree; the copy has no parent.  Each element
        is copied top-down with all of its children at once."""
        if isinstance(self, XText):
            return XText(self.value)  # type: ignore[return-value]
        root = XElement(self.tag, self.attributes)  # type: ignore[attr-defined]
        stack = [(self, root)]
        while stack:
            source, clone = stack.pop()
            for child in source.children:
                if isinstance(child, XText):
                    copied = XText(child.value)
                else:
                    copied = XElement(child.tag, child.attributes)
                    stack.append((child, copied))
                copied.parent = clone
                clone.children.append(copied)
        return root  # type: ignore[return-value]


class XText(XNode):
    """A text node holding a string value."""

    __slots__ = ("value", "parent")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"text value must be str, got {type(value).__name__}")
        self.value = value
        self.parent = None

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"XText({self.value!r})"


class XElement(XNode):
    """An element node: tag, attributes, ordered children.

    Children are :class:`XElement` or :class:`XText`; the constructor also
    accepts plain strings as shorthand for text children.

    >>> person = XElement("person", children=[XElement("nm", children=["John"])])
    >>> person.find("nm").text()
    'John'
    """

    __slots__ = ("tag", "attributes", "children", "parent")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[Iterable[Union[XChild, str]]] = None,
    ):
        if not tag or not isinstance(tag, str):
            raise ValueError(f"invalid element tag: {tag!r}")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[XChild] = []
        self.parent = None
        for child in children or ():
            self.append(child)

    # -- construction -----------------------------------------------------

    def append(self, child: Union[XChild, str]) -> XChild:
        """Append a child (strings become text nodes) and return it."""
        if isinstance(child, str):
            child = XText(child)
        if not isinstance(child, (XElement, XText)):
            raise TypeError(f"cannot append {type(child).__name__} to an element")
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Union[XChild, str]]) -> None:
        for child in children:
            self.append(child)

    # -- navigation -------------------------------------------------------

    def child_elements(self, tag: Optional[str] = None) -> list["XElement"]:
        """Element children, optionally filtered by tag."""
        return [
            child
            for child in self.children
            if isinstance(child, XElement) and (tag is None or child.tag == tag)
        ]

    def find(self, tag: str) -> Optional["XElement"]:
        """First child element with the given tag, or None."""
        for child in self.children:
            if isinstance(child, XElement) and child.tag == tag:
                return child
        return None

    def iter_elements(self, tag: Optional[str] = None) -> Iterator["XElement"]:
        """Depth-first iteration over descendant-or-self elements."""
        for node in self.iter():
            if isinstance(node, XElement) and (tag is None or node.tag == tag):
                yield node

    def ancestors(self) -> Iterator["XElement"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- content ----------------------------------------------------------

    def text(self) -> str:
        """Concatenated text of all descendant text nodes (XPath string
        value of an element)."""
        parts: list[str] = []
        # The unread children of each open element, innermost last.
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, XText):
                    parts.append(child.value)
                else:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return "".join(parts)

    string_value = text

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"XElement({self.tag!r}, children={len(self.children)})"


class XDocument:
    """A document: a single root element.

    Kept separate from :class:`XElement` because the probabilistic layer
    distinguishes documents (whose pXML counterpart is rooted at a
    probability node, §II of the paper) from element subtrees.
    """

    __slots__ = ("root",)

    def __init__(self, root: XElement):
        if not isinstance(root, XElement):
            raise TypeError("document root must be an XElement")
        self.root = root

    def copy(self) -> "XDocument":
        return XDocument(self.root.copy())

    def node_count(self) -> int:
        return self.root.node_count()

    def iter(self) -> Iterator[XNode]:
        return self.root.iter()

    def __repr__(self) -> str:
        return f"XDocument(root={self.root.tag!r}, nodes={self.node_count()})"


def canonical_key(node: XChild, *, ignore_order: bool = True) -> tuple:
    """A hashable structural key: two nodes are deep-equal iff their keys
    are equal.  With ``ignore_order`` sibling order does not matter (the
    semantics used by the paper's *deep-equal* generic rule: two elements
    describe the same real-world object if they carry the same information,
    regardless of serialisation order).  Adjacent text is merged and
    whitespace-only text dropped.

    Keys fold children first: each open element has a frame with its
    unread children, its content's keys so far and the text run being
    merged, and is keyed into its parent's frame when its children are
    done.
    """
    if isinstance(node, XText):
        return ("#text", node.value)
    key: tuple = ()
    stack: list[tuple] = [(node, iter(node.children), [], [])]
    while stack:
        element, pending, keys, run = stack[-1]
        child = next(pending, None)
        if isinstance(child, XText):
            run.append(child.value)
            continue
        text = "".join(run)
        if text.strip():
            keys.append(("#text", text))
        run.clear()
        if child is not None:
            stack.append((child, iter(child.children), [], []))
            continue
        stack.pop()
        if ignore_order:
            keys.sort()
        key = ("#elem", element.tag, tuple(sorted(element.attributes.items())), tuple(keys))
        if stack:
            stack[-1][2].append(key)
    return key


def deep_equal(a: XChild, b: XChild, *, ignore_order: bool = True) -> bool:
    """Structural equality of two subtrees.

    Whitespace-only text is ignored; with ``ignore_order`` (the default,
    matching the generic oracle rule) sibling order is irrelevant.
    """
    return canonical_key(a, ignore_order=ignore_order) == canonical_key(
        b, ignore_order=ignore_order
    )


def element(tag: str, *children: Union[XChild, str], **attributes: str) -> XElement:
    """Terse element constructor for tests and examples.

    >>> movie = element("movie", element("title", "Jaws"), element("year", "1975"))
    >>> movie.find("title").text()
    'Jaws'
    """
    return XElement(tag, attributes=attributes or None, children=list(children))
