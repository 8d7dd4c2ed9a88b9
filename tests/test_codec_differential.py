"""Differential tests: the one-pass codec against the reference codec.

``tests/xml_reference.py`` is the codec as it was before the one-pass
rewrite: a recursive, character-at-a-time parser and writers that went
through a plain tree.  For every input, both readers must give
structurally identical trees (same node types, tags, attributes,
probabilities, text runs and child order) or the same error (class,
message, line and column), and every tree must be written back to the
same bytes.  The only differences allowed are the deliberate ones:

* a character reference must be ASCII digits (decimal, or hex after
  ``#x``) naming a character UTF-8 can encode; the reference also took
  ``&# 65;``, ``&#1_000;`` and lone surrogates, and crashed with a raw
  ``OverflowError`` on huge values;
* a child of a PXML element must be ``<p:prob>``; the reference decoded
  any child as a probability node and lost its tag;
* nesting depth is bounded by memory; the reference raised
  ``RecursionError``.

Inputs come from seeded 1-3 character edits of an integrated document,
its pretty form, a document using the rest of the syntax, and hypothesis
documents.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import integrate
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.errors import ModelError, ProbabilityError, XMLParseError
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.pxml.serialize import parse_pxml, pxml_to_text
from repro.xmlkit.nodes import XDocument, XElement, XText
from repro.xmlkit.parser import parse_document
from repro.xmlkit.serializer import serialize, serialize_pretty

from . import xml_reference as reference
from .conftest import pxml_documents, xml_documents

#: What the edits insert or substitute: markup, quoting, reference and
#: comment characters, and letters.
EDIT_ALPHABET = "<>/=\"' &;#!-?[]" + "abpxAZ"

#: A document using the syntax the integrated documents do not: prolog,
#: DOCTYPE with an internal subset, comments, a PI, CDATA, single quotes,
#: whitespace inside tags, and entity and character references.
SYNTAX_SAMPLE = (
    '<?xml version="1.0"?>\n<!DOCTYPE p:prob [<!ELEMENT a (b)>]>\n'
    "<!-- head --><p:prob k = 'v' >\n"
    '  <p:poss prob="1/3"><a x="&lt;&#65;&#x42;"><p:prob>'
    '<p:poss prob="1">t&amp;<!-- c -->u<?pi x?><![CDATA[<raw>]]></p:poss>'
    "</p:prob></a></p:poss>\n"
    '  <p:poss prob="2/3"><b/></p:poss>\n</p:prob ><!-- tail -->\n'
)


def integrated_document() -> PXDocument:
    a, b = addressbook_documents()
    return integrate(
        a, b, rules=[DeepEqualRule(), LeafValueRule()], dtd=ADDRESSBOOK_DTD
    ).document


def shape(node) -> list:
    """A pre-order listing of the tree under ``node`` that two trees share
    exactly when they are structurally identical."""
    out: list = []
    stack = [node]
    while stack:
        item = stack.pop()
        kind = type(item).__name__
        if isinstance(item, (XDocument, PXDocument)):
            out.append(kind)
            stack.append(item.root)
        elif isinstance(item, (XText, PXText)):
            out.append((kind, item.value))
        elif isinstance(item, ProbNode):
            out.append((kind, len(item.possibilities)))
            stack.extend(reversed(item.possibilities))
        elif isinstance(item, Possibility):
            out.append((kind, item.prob, len(item.children)))
            stack.extend(reversed(item.children))
        else:
            assert isinstance(item, (XElement, PXElement))
            attributes = list(item.attributes.items())
            out.append((kind, item.tag, attributes, len(item.children)))
            stack.extend(reversed(item.children))
    return out


def outcome(parse, text):
    """``("tree", shape)`` or ``("error", class, message, line, column)``."""
    try:
        tree = parse(text)
    except Exception as error:  # the reference can also raise raw errors
        return (
            "error",
            type(error),
            str(error),
            getattr(error, "line", None),
            getattr(error, "column", None),
        )
    return ("tree", shape(tree))


_CHAR_REF_ERROR = re.compile(r"invalid character reference &(.*);")
_LAYER_ERROR = re.compile(r"children of <(.+)> must be <p:prob>, got <.+>")


def reference_takes_char_ref(name: str) -> bool:
    """Whether the reference decoder let ``&name;`` through (or crashed)."""
    try:
        if name.startswith(("#x", "#X")):
            chr(int(name[2:], 16))
        else:
            chr(int(name[1:]))
    except ValueError:
        return False
    except OverflowError:
        return True
    return True


def deliberate_change(new, old) -> bool:
    """Whether ``new`` differs from ``old`` only by a deliberate rule."""
    if new[0] != "error":
        return old[0] == "error" and old[1] is RecursionError
    message = new[2]
    char_ref = _CHAR_REF_ERROR.match(message)
    if new[1] is XMLParseError and char_ref is not None:
        return reference_takes_char_ref(char_ref.group(1))
    layer = _LAYER_ERROR.match(message.split(" (line")[0])
    if new[1] is ModelError and layer is not None and layer.group(1) != "p:prob":
        return old[0] == "tree" or old[1] in (ModelError, ProbabilityError)
    return False


def assert_same(text: str) -> str:
    """Check both readers (and, on success, all writers) on ``text``;
    return ``"same"`` or ``"deliberate"``."""
    verdicts = []
    for new_parse, old_parse in (
        (parse_document, reference.parse_document),
        (parse_pxml, reference.parse_pxml),
    ):
        new, old = outcome(new_parse, text), outcome(old_parse, text)
        if new == old:
            verdicts.append("same")
        else:
            assert deliberate_change(new, old), (text, new, old)
            verdicts.append("deliberate")
    if verdicts == ["same", "same"]:
        assert_writers_agree(text)
    return "same" if verdicts == ["same", "same"] else "deliberate"


def assert_writers_agree(text: str) -> None:
    try:
        plain = parse_document(text)
    except XMLParseError:
        return
    old_plain = reference.parse_document(text)
    assert serialize(plain) == reference.serialize(old_plain)
    assert serialize_pretty(plain) == reference.serialize_pretty(old_plain)
    try:
        document = parse_pxml(text)
    except (ModelError, ProbabilityError):
        return
    old_document = reference.parse_pxml(text)
    for pretty in (False, True):
        assert pxml_to_text(document, pretty=pretty) == reference.pxml_to_text(
            old_document, pretty=pretty
        )


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with 1-3 random single-character edits."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        where = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 or not chars:
            chars.insert(where, rng.choice(EDIT_ALPHABET))
        elif edit == 1:
            del chars[min(where, len(chars) - 1)]
        else:
            chars[min(where, len(chars) - 1)] = rng.choice(EDIT_ALPHABET)
    return "".join(chars)


def sweep(bases: list, count: int, rng: random.Random) -> dict:
    verdicts = {"same": 0, "deliberate": 0}
    for index in range(count):
        verdicts[assert_same(mutate(bases[index % len(bases)], rng))] += 1
    return verdicts


class TestSeededSweep:
    def test_bases_parse_identically(self):
        document = integrated_document()
        for text in (
            pxml_to_text(document),
            pxml_to_text(document, pretty=True),
            SYNTAX_SAMPLE,
        ):
            assert assert_same(text) == "same"

    def test_edits_of_an_integrated_document(self):
        document = integrated_document()
        bases = [
            pxml_to_text(document),
            pxml_to_text(document, pretty=True),
            SYNTAX_SAMPLE,
        ]
        verdicts = sweep(bases, 800, random.Random(20261018))
        assert sum(verdicts.values()) == 800
        assert verdicts["same"] > 750

    @given(pxml_documents(), xml_documents(), st.randoms(use_true_random=False))
    @settings(
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    @seed(20261019)
    def test_edits_of_hypothesis_documents(self, document, plain, rng):
        bases = [pxml_to_text(document), serialize(plain)]
        sweep(bases, 10, rng)


def corpus(pairs: int, persons: int) -> list:
    """Integrated address books and their sources, built the way
    ``benchmarks/bench_fusion.py`` builds its dataspace."""
    documents = []
    rules = [DeepEqualRule(), LeafValueRule()]
    for pair in range(pairs):
        book_a, book_b = addressbook_documents(
            [(f"p{pair}{i}", f"1{pair}{i}") for i in range(persons)],
            [(f"p{pair}{i}", f"2{pair}{i}") for i in range(persons)],
        )
        merged = integrate(book_a, book_b, rules=rules, dtd=ADDRESSBOOK_DTD)
        documents += [book_a, book_b, merged.document]
    return documents


class TestCorpus:
    @pytest.mark.parametrize("pretty", [False, True])
    def test_writers_and_readers_match_the_reference(self, pretty):
        for document in corpus(pairs=2, persons=3):
            if isinstance(document, PXDocument):
                text = pxml_to_text(document, pretty=pretty)
                assert text == reference.pxml_to_text(document, pretty=pretty)
                assert shape(parse_pxml(text)) == shape(reference.parse_pxml(text))
            else:
                write = serialize_pretty if pretty else serialize
                old_write = (
                    reference.serialize_pretty if pretty else reference.serialize
                )
                text = write(document)
                assert text == old_write(document)
            assert shape(parse_document(text)) == shape(
                reference.parse_document(text)
            )


class TestDeliberateChanges:
    @pytest.mark.parametrize(
        "reference_text",
        ["&# 65;", "&#1_000;", "&#+65;", "&#x 41;", "&#xD800;", "&#55296;",
         "&#99999999999999999999;"],
    )
    def test_reference_took_what_is_now_rejected(self, reference_text):
        text = f"<a>{reference_text}</a>"
        new = outcome(parse_document, text)
        old = outcome(reference.parse_document, text)
        assert new[1] is XMLParseError
        assert new[2] == f"invalid character reference {reference_text} (line 1, column 4)"
        assert old[0] == "tree" or old[1] is OverflowError
        assert deliberate_change(new, old)

    def test_reference_lost_a_mislayered_tag(self):
        text = '<p:prob><p:poss prob="1"><a><b/></a></p:poss></p:prob>'
        assert outcome(reference.parse_pxml, text)[0] == "tree"
        new = outcome(parse_pxml, text)
        assert new[1:3] == (ModelError, "children of <a> must be <p:prob>, got <b>")
