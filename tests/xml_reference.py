"""The XML and PXML codec as it was before the one-pass rewrite.

A test-only reference: the recursive, character-at-a-time parser
(``_Scanner``/``_parse_element``), the recursive writers, and the
decode/encode functions that went through a plain :class:`XElement` tree,
copied verbatim.  The differential tests and ``benchmarks/bench_codec.py``
compare the program's codec against it; the program never imports it.
"""

from __future__ import annotations

from repro.errors import ModelError, XMLParseError
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.xmlkit.nodes import XChild, XDocument, XElement, XText


# -- repro/xmlkit/parser.py ---------------------------------------------------

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the input text with line/column tracking."""

    __slots__ = ("text", "pos", "length")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def location(self, pos: int | None = None) -> tuple[int, int]:
        """1-based (line, column) of ``pos`` (default: current position)."""
        if pos is None:
            pos = self.pos
        prefix = self.text[:pos]
        line = prefix.count("\n") + 1
        column = pos - (prefix.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str, pos: int | None = None) -> XMLParseError:
        line, column = self.location(pos)
        return XMLParseError(message, line=line, column=column)

    def at_end(self) -> bool:
        return self.pos >= self.length

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < self.length else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, count: int = 1) -> None:
        self.pos += count

    def skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, token: str, *, context: str) -> str:
        """Consume text up to (and including) ``token``; return the text
        before the token."""
        end = self.text.find(token, self.pos)
        if end < 0:
            raise self.error(f"unterminated {context}: expected {token!r}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def read_name(self) -> str:
        if self.at_end() or self.peek() not in _NAME_START:
            raise self.error(f"expected a name, found {self.peek()!r}")
        start = self.pos
        while not self.at_end() and self.peek() in _NAME_CHARS:
            self.advance()
        return self.text[start : self.pos]


def _decode_references(raw: str, scanner: _Scanner, start_pos: int) -> str:
    """Replace entity and character references in ``raw``."""
    if "&" not in raw:
        return raw
    parts: list[str] = []
    index = 0
    while True:
        amp = raw.find("&", index)
        if amp < 0:
            parts.append(raw[index:])
            break
        parts.append(raw[index:amp])
        semi = raw.find(";", amp)
        if semi < 0:
            raise scanner.error("unterminated entity reference", pos=start_pos + amp)
        name = raw[amp + 1 : semi]
        if name.startswith("#x") or name.startswith("#X"):
            try:
                parts.append(chr(int(name[2:], 16)))
            except ValueError:
                raise scanner.error(
                    f"invalid character reference &{name};", pos=start_pos + amp
                ) from None
        elif name.startswith("#"):
            try:
                parts.append(chr(int(name[1:])))
            except ValueError:
                raise scanner.error(
                    f"invalid character reference &{name};", pos=start_pos + amp
                ) from None
        elif name in _ENTITIES:
            parts.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};", pos=start_pos + amp)
        index = semi + 1
    return "".join(parts)


def _parse_attributes(scanner: _Scanner) -> dict[str, str]:
    attributes: dict[str, str] = {}
    while True:
        scanner.skip_whitespace()
        char = scanner.peek()
        if char in (">", "/", "?", ""):
            return attributes
        name = scanner.read_name()
        scanner.skip_whitespace()
        if scanner.peek() != "=":
            raise scanner.error(f"expected '=' after attribute {name!r}")
        scanner.advance()
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise scanner.error(f"attribute {name!r} value must be quoted")
        scanner.advance()
        value_start = scanner.pos
        raw = scanner.read_until(quote, context=f"attribute {name!r}")
        if name in attributes:
            raise scanner.error(f"duplicate attribute {name!r}", pos=value_start)
        attributes[name] = _decode_references(raw, scanner, value_start)


def _parse_element(scanner: _Scanner) -> XElement:
    """Parse one element starting at '<'."""
    if scanner.peek() != "<":
        raise scanner.error(f"expected '<', found {scanner.peek()!r}")
    scanner.advance()
    tag = scanner.read_name()
    element = XElement(tag, attributes=_parse_attributes(scanner))
    scanner.skip_whitespace()
    if scanner.startswith("/>"):
        scanner.advance(2)
        return element
    if scanner.peek() != ">":
        raise scanner.error(f"malformed start tag <{tag}>")
    scanner.advance()

    text_start = scanner.pos
    buffer: list[str] = []

    def flush_text() -> None:
        raw = "".join(buffer)
        buffer.clear()
        if raw:
            element.append(XText(_decode_references(raw, scanner, text_start)))

    while True:
        if scanner.at_end():
            raise scanner.error(f"unterminated element <{tag}>")
        if scanner.startswith("</"):
            flush_text()
            scanner.advance(2)
            closing = scanner.read_name()
            if closing != tag:
                raise scanner.error(
                    f"mismatched end tag </{closing}>, expected </{tag}>"
                )
            scanner.skip_whitespace()
            if scanner.peek() != ">":
                raise scanner.error(f"malformed end tag </{closing}>")
            scanner.advance()
            return element
        if scanner.startswith("<!--"):
            flush_text()
            scanner.advance(4)
            scanner.read_until("-->", context="comment")
            text_start = scanner.pos
            continue
        if scanner.startswith("<![CDATA["):
            flush_text()
            scanner.advance(9)
            element.append(XText(scanner.read_until("]]>", context="CDATA section")))
            text_start = scanner.pos
            continue
        if scanner.startswith("<?"):
            flush_text()
            scanner.advance(2)
            scanner.read_until("?>", context="processing instruction")
            text_start = scanner.pos
            continue
        if scanner.peek() == "<":
            flush_text()
            element.append(_parse_element(scanner))
            text_start = scanner.pos
            continue
        buffer.append(scanner.peek())
        scanner.advance()


def _skip_prolog(scanner: _Scanner) -> None:
    """Skip XML declaration, DOCTYPE, comments and PIs before the root."""
    while True:
        scanner.skip_whitespace()
        if scanner.startswith("<?"):
            scanner.advance(2)
            scanner.read_until("?>", context="XML declaration")
        elif scanner.startswith("<!--"):
            scanner.advance(4)
            scanner.read_until("-->", context="comment")
        elif scanner.startswith("<!DOCTYPE"):
            # Tolerate internal subsets by tracking bracket depth.
            scanner.advance(len("<!DOCTYPE"))
            depth = 0
            while True:
                if scanner.at_end():
                    raise scanner.error("unterminated DOCTYPE")
                char = scanner.peek()
                scanner.advance()
                if char == "[":
                    depth += 1
                elif char == "]":
                    depth -= 1
                elif char == ">" and depth <= 0:
                    break
        else:
            return


def parse_element(text: str) -> XElement:
    """Parse ``text`` as a single XML element (prolog allowed)."""
    scanner = _Scanner(text)
    _skip_prolog(scanner)
    if scanner.at_end():
        raise scanner.error("no element found in input")
    element = _parse_element(scanner)
    scanner.skip_whitespace()
    while scanner.startswith("<!--"):
        scanner.advance(4)
        scanner.read_until("-->", context="comment")
        scanner.skip_whitespace()
    if not scanner.at_end():
        raise scanner.error("content after the root element")
    return element


def parse_document(text: str) -> XDocument:
    """Parse ``text`` as an XML document (single root element)."""
    return XDocument(parse_element(text))


# -- repro/xmlkit/serializer.py -----------------------------------------------

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


def _start_tag(element: XElement) -> str:
    parts = [element.tag]
    for name in sorted(element.attributes):
        parts.append(f'{name}="{escape_attribute(element.attributes[name])}"')
    return "<" + " ".join(parts) + ">"


def _serialize_node(node: XChild, out: list[str]) -> None:
    if isinstance(node, XText):
        out.append(escape_text(node.value))
        return
    if not node.children:
        out.append(_start_tag(node)[:-1] + "/>")
        return
    out.append(_start_tag(node))
    for child in node.children:
        _serialize_node(child, out)
    out.append(f"</{node.tag}>")


def serialize(node: XChild | XDocument) -> str:
    """Compact canonical serialization (attributes sorted, no added
    whitespace).  ``parse_document(serialize(doc))`` reproduces ``doc``."""
    if isinstance(node, XDocument):
        node = node.root
    out: list[str] = []
    _serialize_node(node, out)
    return "".join(out)


def _has_element_children(element: XElement) -> bool:
    return any(isinstance(child, XElement) for child in element.children)


def _pretty_node(node: XChild, out: list[str], depth: int, indent: str) -> None:
    pad = indent * depth
    if isinstance(node, XText):
        if node.value.strip():
            out.append(pad + escape_text(node.value))
        return
    if not node.children:
        out.append(pad + _start_tag(node)[:-1] + "/>")
        return
    if not _has_element_children(node):
        # Text-only content stays inline: <title>Jaws</title>
        text = "".join(
            escape_text(child.value)
            for child in node.children
            if isinstance(child, XText)
        )
        out.append(pad + _start_tag(node) + text + f"</{node.tag}>")
        return
    if any(
        isinstance(child, XText) and child.value.strip() for child in node.children
    ):
        # Mixed content: indentation would alter the text values, so this
        # subtree is rendered compactly instead.
        compact: list[str] = []
        _serialize_node(node, compact)
        out.append(pad + "".join(compact))
        return
    out.append(pad + _start_tag(node))
    for child in node.children:
        _pretty_node(child, out, depth + 1, indent)
    out.append(pad + f"</{node.tag}>")


def serialize_pretty(node: XChild | XDocument, *, indent: str = "  ") -> str:
    """Human-readable indented serialization."""
    if isinstance(node, XDocument):
        node = node.root
    out: list[str] = []
    _pretty_node(node, out, 0, indent)
    return "\n".join(out)


# -- repro/pxml/serialize.py --------------------------------------------------

PROB_TAG = "p:prob"
POSS_TAG = "p:poss"
PROB_ATTR = "prob"


def pxml_to_xml(node: PXDocument | ProbNode | PXElement) -> XElement:
    """Encode a probabilistic subtree as plain XML."""
    if isinstance(node, PXDocument):
        return _encode_prob(node.root)
    if isinstance(node, ProbNode):
        return _encode_prob(node)
    if isinstance(node, PXElement):
        element = XElement(node.tag, dict(node.attributes))
        for child in node.children:
            element.append(_encode_prob(child))
        return element
    raise ModelError(f"cannot serialize {type(node).__name__}")


def _encode_prob(node: ProbNode) -> XElement:
    wrapper = XElement(PROB_TAG)
    for possibility in node.possibilities:
        poss = XElement(POSS_TAG, {PROB_ATTR: str(possibility.prob)})
        buffer: list[str] = []
        for child in possibility.children:
            if isinstance(child, PXText):
                # Adjacent text runs merge on the wire (the parser cannot
                # tell them apart, and worlds concatenate them anyway).
                buffer.append(child.value)
                continue
            if buffer:
                poss.append(XText("".join(buffer)))
                buffer = []
            poss.append(pxml_to_xml(child))
        if buffer:
            poss.append(XText("".join(buffer)))
        wrapper.append(poss)
    return wrapper


def pxml_to_text(document: PXDocument, *, pretty: bool = False) -> str:
    """Serialize a probabilistic document to XML text."""
    encoded = _encode_prob(document.root)
    return serialize_pretty(encoded) if pretty else serialize(encoded)


def xml_to_pxml(element: XElement) -> ProbNode:
    """Decode the plain-XML encoding back into a probabilistic tree."""
    if element.tag != PROB_TAG:
        raise ModelError(f"expected <{PROB_TAG}> root, got <{element.tag}>")
    return _decode_prob(element)


def _decode_prob(element: XElement) -> ProbNode:
    node = ProbNode()
    for child in element.children:
        if isinstance(child, XText):
            if child.value.strip():
                raise ModelError(f"unexpected text inside <{PROB_TAG}>")
            continue
        if child.tag != POSS_TAG:
            raise ModelError(
                f"children of <{PROB_TAG}> must be <{POSS_TAG}>, got <{child.tag}>"
            )
        prob = child.attributes.get(PROB_ATTR)
        if prob is None:
            raise ModelError(f"<{POSS_TAG}> missing {PROB_ATTR!r} attribute")
        possibility = Possibility(prob)
        for grandchild in child.children:
            if isinstance(grandchild, XText):
                if grandchild.value.strip():
                    possibility.append(PXText(grandchild.value))
            else:
                possibility.append(_decode_element(grandchild))
        node.append(possibility)
    return node


def _decode_element(element: XElement) -> PXElement:
    if element.tag in (PROB_TAG, POSS_TAG):
        raise ModelError(f"misplaced <{element.tag}>")
    result = PXElement(element.tag, dict(element.attributes))
    for child in element.children:
        if isinstance(child, XText):
            if child.value.strip():
                raise ModelError(
                    f"text under <{element.tag}> must be wrapped in a"
                    f" possibility (found {child.value!r})"
                )
            continue
        result.append(_decode_prob(child))
    return result


def parse_pxml(text: str) -> PXDocument:
    """Parse the XML encoding of a probabilistic document.

    >>> doc = parse_pxml('<p:prob><p:poss prob="1"><a/></p:poss></p:prob>')
    >>> doc.is_certain()
    True
    """
    document = parse_document(text)
    return PXDocument(xml_to_pxml(document.root))
