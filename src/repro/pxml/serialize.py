"""Wire format for probabilistic XML.

Probabilistic trees round-trip through plain XML using two reserved tags
(the spelling MonetDB-era tools used namespaces for; our plain parser keeps
the prefix literal):

* ``<p:prob>`` — a probability node;
* ``<p:poss prob="1/3">`` — a possibility with its probability (exact
  fraction or decimal string).

Everything else is ordinary XML.  Example::

    <p:prob>
      <p:poss prob="1/2">
        <person>
          <p:prob><p:poss prob="1"><nm>John</nm></p:poss></p:prob>
        </person>
      </p:poss>
      ...
    </p:prob>

Each direction is one pass with no recursion.  :func:`parse_pxml` builds
the probabilistic tree straight from the XML scanner's start tags and text
runs (:func:`_start` and :func:`_text` hold the decode rules), and
:func:`pxml_to_text` walks the tree with an explicit stack, appending text
(:func:`_encode` holds the encode rules).  :func:`pxml_to_xml` and
:func:`xml_to_pxml` go through that text rather than restating the rules.
"""

from __future__ import annotations

import functools
from typing import Optional, Union

from ..errors import ModelError, ProbabilityError
from ..probability import as_probability
from ..xmlkit.nodes import XElement
from ..xmlkit.parser import parse_element, scan
from ..xmlkit.serializer import escape_text, open_tag, serialize, serialize_pretty
from .model import PXDocument, PXElement, PXText, Possibility, ProbNode

PROB_TAG = "p:prob"
POSS_TAG = "p:poss"
PROB_ATTR = "prob"

#: Probability strings remembered once parsed: a document repeats a few
#: ("1", "1/2", "1/13") about a thousand times.  Strings longer than the
#: key bound are parsed each time, so the cache stays small whatever
#: documents hold.
_PROBABILITY_CACHE_SIZE = 256
_PROBABILITY_KEY_LENGTH = 32

_probability = functools.lru_cache(maxsize=_PROBABILITY_CACHE_SIZE)(as_probability)

_Node = Union[ProbNode, Possibility, PXElement]


def _start(parent: Optional[_Node], tag: str, attributes: dict[str, str]) -> _Node:
    """Decode rule for a start tag: the node ``<tag>`` becomes under
    ``parent`` (``None`` for the root)."""
    kind = type(parent)
    if kind is PXElement:
        if tag != PROB_TAG:
            raise ModelError(
                f"children of <{parent.tag}> must be <{PROB_TAG}>, got <{tag}>"
            )
        node = ProbNode()
        parent.children.append(node)
        return node
    if kind is ProbNode:
        if tag != POSS_TAG:
            raise ModelError(
                f"children of <{PROB_TAG}> must be <{POSS_TAG}>, got <{tag}>"
            )
        prob = attributes.get(PROB_ATTR)
        if prob is None:
            raise ModelError(f"<{POSS_TAG}> missing {PROB_ATTR!r} attribute")
        short = len(prob) <= _PROBABILITY_KEY_LENGTH
        possibility = Possibility(_probability(prob) if short else prob)
        parent.possibilities.append(possibility)
        return possibility
    if kind is Possibility:
        if tag in (PROB_TAG, POSS_TAG):
            raise ModelError(f"misplaced <{tag}>")
        element = PXElement(tag, attributes)
        parent.children.append(element)
        return element
    if tag != PROB_TAG:
        raise ModelError(f"expected <{PROB_TAG}> root, got <{tag}>")
    return ProbNode()


def _text(parent: _Node, value: str) -> None:
    """Decode rule for a text run: whitespace-only runs are dropped, and
    other text is allowed only directly under a possibility."""
    if not value.strip():
        return
    if type(parent) is Possibility:
        parent.children.append(PXText(value))
    elif type(parent) is ProbNode:
        raise ModelError(f"unexpected text inside <{PROB_TAG}>")
    else:
        raise ModelError(
            f"text under <{parent.tag}> must be wrapped in a possibility"
            f" (found {value!r})"
        )


def _ignore(*_: object) -> None:
    return None


def parse_pxml(text: str) -> PXDocument:
    """Parse the XML encoding of a probabilistic document.

    A syntax error anywhere in ``text`` wins over a layering error
    (:class:`ModelError`) or a bad probability (:class:`ProbabilityError`):
    after the first of those, the text is scanned again, for syntax alone,
    before it is raised.

    >>> doc = parse_pxml('<p:prob><p:poss prob="1"><a/></p:poss></p:prob>')
    >>> doc.is_certain()
    True
    """
    try:
        return PXDocument(scan(text, _start, _text))
    except (ModelError, ProbabilityError) as error:
        failure = error
    scan(text, _ignore, _ignore)
    raise failure


def _encode(node: _Node) -> str:
    """The encode rules: the XML text of ``node``.  Adjacent text runs
    merge on the wire (the parser cannot tell them apart, and worlds
    concatenate them anyway)."""
    out: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        if kind is PXText:
            out.append(escape_text(item.value))
            continue
        if kind is Possibility:
            tag, attributes, children = POSS_TAG, {PROB_ATTR: str(item.prob)}, item.children
        elif kind is PXElement:
            tag, attributes, children = item.tag, item.attributes, item.children
        elif kind is ProbNode:
            tag, attributes, children = PROB_TAG, None, item.possibilities
        else:
            raise ModelError(f"cannot serialize {kind.__name__}")
        if children:
            out.append(open_tag(tag, attributes) + ">")
            stack.append(f"</{tag}>")
            stack.extend(reversed(children))
        else:
            out.append(open_tag(tag, attributes) + "/>")
    return "".join(out)


def pxml_to_text(document: PXDocument, *, pretty: bool = False) -> str:
    """Serialize a probabilistic document to XML text."""
    if pretty:
        return serialize_pretty(pxml_to_xml(document))
    return _encode(document.root)


def pxml_to_xml(node: PXDocument | ProbNode | PXElement) -> XElement:
    """Encode a probabilistic subtree as plain XML (the tree of the text
    the encoder writes)."""
    if isinstance(node, PXDocument):
        node = node.root
    if not isinstance(node, (ProbNode, PXElement)):
        raise ModelError(f"cannot serialize {type(node).__name__}")
    return parse_element(_encode(node))


def xml_to_pxml(element: XElement) -> ProbNode:
    """Decode the plain-XML encoding back into a probabilistic tree."""
    return parse_pxml(serialize(element)).root
