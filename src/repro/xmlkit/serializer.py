"""XML serialization for the plain node model.

Two renderers: :func:`serialize` (compact, canonical, round-trip safe with
the parser) and :func:`serialize_pretty` (indented, for humans; inserts
whitespace only around element-only content so it stays semantically
round-trip safe under the library's whitespace-insensitive deep equality).
Both walk the tree with an explicit stack, so depth is bounded by memory,
not by the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import Optional

from .nodes import XDocument, XElement, XText, XChild


def escape_text(value: str) -> str:
    """Escape character data."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def open_tag(tag: str, attributes: Optional[dict[str, str]]) -> str:
    """A start tag without its closing ``>`` or ``/>``, attributes sorted."""
    if not attributes:
        return "<" + tag
    parts = [tag]
    for name in sorted(attributes):
        parts.append(f'{name}="{escape_attribute(attributes[name])}"')
    return "<" + " ".join(parts)


def serialize(node: XChild | XDocument) -> str:
    """Compact canonical serialization (attributes sorted, no added
    whitespace).  ``parse_document(serialize(doc))`` reproduces ``doc``."""
    if isinstance(node, XDocument):
        node = node.root
    out: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif isinstance(item, XText):
            out.append(escape_text(item.value))
        elif item.children:
            out.append(open_tag(item.tag, item.attributes) + ">")
            stack.append(f"</{item.tag}>")
            stack.extend(reversed(item.children))
        else:
            out.append(open_tag(item.tag, item.attributes) + "/>")
    return "".join(out)


def serialize_pretty(node: XChild | XDocument, *, indent: str = "  ") -> str:
    """Human-readable indented serialization."""
    if isinstance(node, XDocument):
        node = node.root
    lines: list[str] = []
    stack: list = [(node, 0)]
    while stack:
        item, depth = stack.pop()
        pad = indent * depth
        if type(item) is str:
            lines.append(pad + item)
        elif isinstance(item, XText):
            if item.value.strip():
                lines.append(pad + escape_text(item.value))
        elif not item.children:
            lines.append(pad + open_tag(item.tag, item.attributes) + "/>")
        elif not any(isinstance(child, XElement) for child in item.children) or any(
            isinstance(child, XText) and child.value.strip()
            for child in item.children
        ):
            # Text-only content stays inline (<title>Jaws</title>), and so
            # does mixed content: indentation would alter its text values.
            lines.append(pad + serialize(item))
        else:
            lines.append(pad + open_tag(item.tag, item.attributes) + ">")
            stack.append((f"</{item.tag}>", depth))
            stack.extend((child, depth + 1) for child in reversed(item.children))
    return "\n".join(lines)
