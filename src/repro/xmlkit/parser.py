"""Hand-written XML parser: one iterative scanner feeding a tree builder.

Supports the XML subset the experiments need: elements, attributes (single
or double quoted), text, comments, CDATA sections, processing instructions
(skipped), an optional XML declaration and DOCTYPE (skipped), and the five
predefined entities plus decimal/hex character references.

:func:`scan` is the one place this syntax is written down.  It reads the
text in one pass: text runs are found with ``str.find("<")``, names with
precompiled patterns, and open elements are kept on an explicit stack, so
nesting depth is bounded by memory rather than by the interpreter's
recursion limit.  Each start tag and text run goes to a builder:
:func:`parse_document` builds :class:`XElement` trees, and
:func:`repro.pxml.serialize.parse_pxml` builds the probabilistic tree from
the same calls, with no plain tree in between.

The scanner checks well-formedness (tag balance, attribute uniqueness,
single root, character references naming a character UTF-8 can encode:
ASCII digits only, at most 0x10FFFF, no surrogate) and reports 1-based
line/column positions in every error, computed from the offset only when
an error is raised.  It is round-trip stable with
:mod:`repro.xmlkit.serializer` — a property the test suite enforces with
hypothesis.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from .nodes import XDocument, XElement, XText
from ..errors import XMLParseError

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_SPACE = re.compile(r"[ \t\r\n]*")
#: After leading zeros, at most 7 decimal or 6 hex digits: ``int`` never
#: sees a long string, and the range check rejects the rest.
_CHAR_REF = re.compile(r"#(?:0*([0-9]{1,7})|[xX]0*([0-9a-fA-F]{1,6}))")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
#: The start tags stored documents are made of: at most one double-quoted
#: attribute with nothing to decode.  :func:`_start_tag` reads any other
#: tag, and reports errors, one token at a time.
_SIMPLE_TAG = re.compile(
    r'<([A-Za-z_:][A-Za-z0-9_:.\-]*)'
    r'(?:[ \t\r\n]+([A-Za-z_:][A-Za-z0-9_:.\-]*)="([^"&<]*)")?(/?)>'
)

#: What ends a start tag's attribute list ("" is the end of the input).
_ATTRIBUTES_END = (">", "/", "?", "")

#: ``start(parent, tag, attributes) -> handle`` and ``text(parent, value)``.
StartHandler = Callable[[Any, str, dict], Any]
TextHandler = Callable[[Any, str], None]


def _error(text: str, message: str, pos: int) -> XMLParseError:
    """An :class:`XMLParseError` at offset ``pos``, with its 1-based line
    and column."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return XMLParseError(message, line=line, column=column)


def _until(text: str, pos: int, token: str, context: str) -> int:
    """Offset of the first ``token`` at or after ``pos``."""
    end = text.find(token, pos)
    if end < 0:
        raise _error(text, f"unterminated {context}: expected {token!r}", pos)
    return end


def _decode(text: str, start: int, end: int) -> str:
    """``text[start:end]`` with entity and character references replaced."""
    raw = text[start:end]
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            return "".join(parts)
        parts.append(raw[index:amp])
        semi = raw.find(";", amp)
        if semi < 0:
            raise _error(text, "unterminated entity reference", start + amp)
        name = raw[amp + 1 : semi]
        if name in _ENTITIES:
            parts.append(_ENTITIES[name])
        elif name.startswith("#"):
            match = _CHAR_REF.fullmatch(name)
            code = -1
            if match is not None:
                decimal, hexadecimal = match.groups()
                code = int(decimal) if decimal is not None else int(hexadecimal, 16)
            if code < 0 or code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise _error(
                    text, f"invalid character reference &{name};", start + amp
                )
            parts.append(chr(code))
        else:
            raise _error(text, f"unknown entity &{name};", start + amp)
        index = semi + 1


def _start_tag(text: str, pos: int) -> tuple[str, dict[str, str], int, bool]:
    """Read the start tag opening at ``text[pos] == "<"``.

    Returns ``(tag, attributes, end, empty)``, where ``end`` is the offset
    just after the tag and ``empty`` is true for ``<tag/>``."""
    simple = _SIMPLE_TAG.match(text, pos)
    if simple is not None:
        tag, key, value, slash = simple.groups()
        attributes = {} if key is None else {key: value}
        return tag, attributes, simple.end(), slash == "/"
    name = _NAME.match(text, pos + 1)
    if name is None:
        found = text[pos + 1 : pos + 2]
        raise _error(text, f"expected a name, found {found!r}", pos + 1)
    tag = name.group()
    attributes = {}
    pos = name.end()
    while True:
        pos = _SPACE.match(text, pos).end()
        char = text[pos : pos + 1]
        if char in _ATTRIBUTES_END:
            break
        name = _NAME.match(text, pos)
        if name is None:
            raise _error(text, f"expected a name, found {char!r}", pos)
        key = name.group()
        pos = _SPACE.match(text, name.end()).end()
        if text[pos : pos + 1] != "=":
            raise _error(text, f"expected '=' after attribute {key!r}", pos)
        pos = _SPACE.match(text, pos + 1).end()
        quote = text[pos : pos + 1]
        if quote not in ('"', "'"):
            raise _error(text, f"attribute {key!r} value must be quoted", pos)
        end = _until(text, pos + 1, quote, f"attribute {key!r}")
        if key in attributes:
            raise _error(text, f"duplicate attribute {key!r}", pos + 1)
        attributes[key] = _decode(text, pos + 1, end)
        pos = end + 1
    if char == ">":
        return tag, attributes, pos + 1, False
    if text.startswith("/>", pos):
        return tag, attributes, pos + 2, True
    raise _error(text, f"malformed start tag <{tag}>", pos)


def _end_tag(text: str, pos: int, tag: str) -> int:
    """Read the end tag at ``text[pos] == "<"`` that must close ``tag``;
    return the offset just after it."""
    name = _NAME.match(text, pos + 2)
    if name is None:
        found = text[pos + 2 : pos + 3]
        raise _error(text, f"expected a name, found {found!r}", pos + 2)
    closing = name.group()
    if closing != tag:
        raise _error(
            text, f"mismatched end tag </{closing}>, expected </{tag}>", name.end()
        )
    pos = _SPACE.match(text, name.end()).end()
    if text[pos : pos + 1] != ">":
        raise _error(text, f"malformed end tag </{closing}>", pos)
    return pos + 1


def _skip_prolog(text: str) -> int:
    """Offset after the XML declaration, DOCTYPE, comments and PIs that
    precede the root."""
    pos = 0
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith("<?", pos):
            pos = _until(text, pos + 2, "?>", "XML declaration") + 2
        elif text.startswith("<!--", pos):
            pos = _until(text, pos + 4, "-->", "comment") + 3
        elif text.startswith("<!DOCTYPE", pos):
            # Tolerate internal subsets by tracking bracket depth.
            depth = 0
            for mark in _DOCTYPE_MARK.finditer(text, pos + len("<!DOCTYPE")):
                char = mark.group()
                if char == ">" and depth <= 0:
                    pos = mark.end()
                    break
                depth += 1 if char == "[" else -1 if char == "]" else 0
            else:
                raise _error(text, "unterminated DOCTYPE", len(text))
        else:
            return pos


def scan(text: str, start: StartHandler, add_text: TextHandler) -> Any:
    """Check that ``text`` is one well-formed element and feed it to a
    builder; return the handle the builder made for the root.

    ``start(parent, tag, attributes)`` is called for each start tag in
    document order with its parent's handle (``None`` for the root) and
    returns the element's own handle.  ``add_text(parent, value)`` is
    called for each text run (split at comments and processing
    instructions, references decoded) and each CDATA section.  The first
    :class:`XMLParseError` ends the scan; an error a builder raises ends
    it too."""
    length = len(text)
    pos = _skip_prolog(text)
    if pos >= length:
        raise _error(text, "no element found in input", pos)
    if text[pos] != "<":
        raise _error(text, f"expected '<', found {text[pos]!r}", pos)
    tag, attributes, pos, empty = _start_tag(text, pos)
    root = parent = start(None, tag, attributes)
    # The end tag and the parent handle of each open element, innermost last.
    stack: list[tuple[str, Any]] = [] if empty else [(f"</{tag}>", None)]
    while stack:
        lt = text.find("<", pos)
        if lt < 0:
            tag = stack[-1][0][2:-1]
            raise _error(text, f"unterminated element <{tag}>", length)
        if lt > pos:
            add_text(parent, _decode(text, pos, lt))
        mark = text[lt + 1 : lt + 2]
        if mark == "/":
            end_tag, parent = stack.pop()
            if text.startswith(end_tag, lt):
                pos = lt + len(end_tag)
            else:
                pos = _end_tag(text, lt, end_tag[2:-1])
        elif mark == "?":
            pos = _until(text, lt + 2, "?>", "processing instruction") + 2
        elif mark == "!" and text.startswith("<!--", lt):
            pos = _until(text, lt + 4, "-->", "comment") + 3
        elif mark == "!" and text.startswith("<![CDATA[", lt):
            end = _until(text, lt + 9, "]]>", "CDATA section")
            add_text(parent, text[lt + 9 : end])
            pos = end + 3
        else:
            tag, attributes, pos, empty = _start_tag(text, lt)
            handle = start(parent, tag, attributes)
            if not empty:
                stack.append((f"</{tag}>", parent))
                parent = handle
    pos = _SPACE.match(text, pos).end()
    while text.startswith("<!--", pos):
        pos = _SPACE.match(text, _until(text, pos + 4, "-->", "comment") + 3).end()
    if pos < length:
        raise _error(text, "content after the root element", pos)
    return root


def _element(
    parent: Optional[XElement], tag: str, attributes: dict[str, str]
) -> XElement:
    element = XElement(tag, attributes)
    if parent is not None:
        parent.append(element)
    return element


def _text(parent: XElement, value: str) -> None:
    parent.append(XText(value))


def parse_element(text: str) -> XElement:
    """Parse ``text`` as a single XML element (prolog allowed)."""
    return scan(text, _element, _text)


def parse_document(text: str) -> XDocument:
    """Parse ``text`` as an XML document (single root element)."""
    return XDocument(parse_element(text))
