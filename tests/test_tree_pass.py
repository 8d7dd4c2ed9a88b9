"""The tree pass (:mod:`repro.query.treepass`) against its references.

``QueryEngine.query`` prices an anchored plan in one bottom-up pass over
the tree; the walk + kernel (``use_cache=False``) and per-world
enumeration (:func:`query_enumeration`) are the references.  Three parts:

* **differential** — every (value, probability, occurrences) triple of
  the pass equals the walk's, and every (value, probability) pair equals
  enumeration's (enumeration counts worlds, not tree occurrences), on
  hypothesis documents, integrated address books with conflict groups
  from 2x2 to 3x3, and the §VI movie document;
* **fallback** — plans outside the pass's scope, and documents that nest
  one anchor inside another, take the walk and still agree;
* **anchor memo** — the pass prices each distinct anchor subtree once, so
  the copies integration makes of a person are walked once, and an
  anchor that differs from a priced one in any single detail is priced
  on its own;
* **deadline** — a budget interrupts the pass itself, and an interrupted
  pass leaves no memo row.
"""

import gc
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import integrate
from repro.core.rules import Decision, DeepEqualRule, LeafValueRule, PredicateRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.deadline import Deadline, active
from repro.errors import DeadlineExceededError, QueryError
from repro.experiments import section6_document
from repro.pxml.build import certain_document, certain_prob, choice_prob
from repro.pxml.model import PXDocument, PXElement, PXText, Possibility, ProbNode
from repro.query import treepass
from repro.query.engine import ProbQueryEngine, QueryEngine, query_enumeration
from repro.query.plan import compile_plan
from repro.query.treepass import MAX_VALUE_ALTERNATIVES
from repro.xmlkit.parser import parse_document
from .conftest import pxml_documents

#: The plans the differential part prices on every address book.
BOOK_PLANS = [
    "//person/tel",
    "//person/nm",
    '//person[contains(tel, "1")]/nm',
    '//person[nm="n0"]/tel',
    "/addressbook/person/tel",
    "//tel/text()",
    "//person/node()",
    "//person/@*",
    "//*",
]

#: The §VI queries, and two plain paths over the same document.
MOVIE_PLANS = [
    '//movie[.//genre="Horror"]/title',
    '//movie[some $d in .//director satisfies contains($d,"John")]/title',
    "//movie/title",
    "//title/text()",
]

#: Plans over the tags of the hypothesis documents (conftest.TAGS).
RANDOM_PLANS = [
    "//a",
    "//a/b",
    "/x/item",
    "//rec/text()",
    "//b/node()",
    "//*",
    "//item[x]/a",
    '//a[. = "alpha"]',
    '//x[some $v in .//rec satisfies contains($v, "l")]/b',
]


def snapshot(answer):
    """The exact shape of a ranked answer: value, Fraction probability and
    occurrence count, in rank order."""
    return [(item.value, item.probability, item.occurrences) for item in answer]


def ranked_map(answer):
    return {item.value: item.probability for item in answer}


def priced_by_pass(engine, query):
    """Whether ``engine`` holds a tree-pass memo row for ``query``."""
    plan = compile_plan(query)
    return engine.cache.priced_answer(engine.document, plan.fingerprint) is not None


def assert_agrees(document, query):
    """The cached engine's answer against the walk + kernel and against
    enumeration; returns the cached engine.  A document beyond the value
    cap must be refused by both engines with the same message, and then
    enumeration is not asked."""
    engine = QueryEngine(document)
    try:
        answer = engine.query(query)
    except QueryError as refusal:
        if f"more than {MAX_VALUE_ALTERNATIVES} realisations" not in str(refusal):
            raise
        with pytest.raises(QueryError) as caught:
            QueryEngine(document, use_cache=False).query(query)
        assert str(caught.value) == str(refusal), query
        return engine
    assert snapshot(answer) == snapshot(
        QueryEngine(document, use_cache=False).query(query)
    ), query
    assert ranked_map(answer) == ranked_map(query_enumeration(document, query)), query
    return engine


def _different_names_differ(a, b, context):
    name_a, name_b = a.find("nm"), b.find("nm")
    if name_a is None or name_b is None:
        return None
    return Decision.NO_MATCH if name_a.text() != name_b.text() else None


def grouped_book(shapes):
    """An integrated address-book pair with one conflict group per
    ``(persons in A, persons in B)`` shape: group ``g``'s persons are all
    named ``n{g}``, and each source's first person per group has a phone
    containing "1"."""
    entries_a, entries_b = [], []
    serial = 0
    for group, (size_a, size_b) in enumerate(shapes):
        for entries, size, first in ((entries_a, size_a, "1"), (entries_b, size_b, "2")):
            for person in range(size):
                serial += 1
                phone = (first if person == 0 else "5") + f"{serial:03d}"
                entries.append((f"n{group}", phone))
    book_a, book_b = addressbook_documents(entries_a, entries_b)
    rules = [
        DeepEqualRule(),
        PredicateRule("names", _different_names_differ, tags=("person",)),
        LeafValueRule(),
    ]
    return integrate(book_a, book_b, rules=rules, dtd=ADDRESSBOOK_DTD).document


def merged_book(persons):
    """Two books of ``persons`` persons each, every pair confusable: the
    merged n x n book whose pricing the walk pays most for."""
    book_a, book_b = addressbook_documents(
        [(f"p{i}", f"1{i}") for i in range(persons)],
        [(f"p{i}", f"2{i}") for i in range(persons)],
    )
    return integrate(
        book_a, book_b, rules=[DeepEqualRule(), LeafValueRule()], dtd=ADDRESSBOOK_DTD
    ).document


def attributed_document():
    """A small uncertain document whose persons carry attributes."""
    def person(key, name, phones):
        return PXElement(
            "person",
            {"id": key, "src": "a"},
            [
                certain_prob(PXElement("nm", children=[certain_prob(PXText(name))])),
                choice_prob(
                    [
                        (prob, [PXElement("tel", children=[certain_prob(PXText(tel))])])
                        for prob, tel in phones
                    ]
                ),
            ],
        )

    half, quarter = Fraction(1, 2), Fraction(1, 4)
    people = choice_prob(
        [
            (Fraction(2, 3), [person("1", "ann", [(half, "11"), (half, "12")])]),
            (Fraction(1, 3), [
                person("1", "ann", [(Fraction(1), "11")]),
                person("2", "bob", [(quarter, "11"), (1 - quarter, "21")]),
            ]),
        ]
    )
    return PXDocument(certain_prob(PXElement("addressbook", children=[people])))


# -- differential ----------------------------------------------------------------

class TestDifferential:
    @pytest.mark.parametrize(
        "shapes", [[(2, 2)], [(2, 3)], [(3, 3)], [(2, 2), (3, 2)]], ids=str
    )
    def test_grouped_address_books(self, shapes):
        document = grouped_book(shapes)
        for query in BOOK_PLANS:
            engine = assert_agrees(document, query)
            # Every anchored plan but //* (whose anchors nest) is priced
            # by the pass itself, not by its fallback.
            assert priced_by_pass(engine, query) == (query != "//*"), query

    def test_attributes_and_uncertain_anchors(self):
        document = attributed_document()
        for query in BOOK_PLANS + ["//person/@id", '//person[@id="2"]/tel']:
            engine = assert_agrees(document, query)
            assert priced_by_pass(engine, query) == (query != "//*"), query
        assert ranked_map(QueryEngine(document).query("//person/@id")) == {
            "1": Fraction(1), "2": Fraction(1, 3),
        }

    def test_movie_document(self):
        document = section6_document().document
        for query in MOVIE_PLANS:
            engine = assert_agrees(document, query)
            assert priced_by_pass(engine, query), query

    @given(document=pxml_documents())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_documents(self, document):
        for query in RANDOM_PLANS:
            assert_agrees(document, query)

    def test_documents_beyond_the_value_cap_are_refused_alike(self):
        """An <a> over eleven independent 1/2 choices has 2,048 string
        values, more than the cap: both engines refuse every plan that
        values it, with the same message."""
        half = Fraction(1, 2)
        bits = [
            choice_prob([(half, [PXText("0")]), (half, [PXText("1")])])
            for _ in range(11)
        ]
        a = PXElement("a", children=bits)
        document = PXDocument(
            certain_prob(PXElement("r", children=[certain_prob(a)]))
        )
        for query in RANDOM_PLANS:
            assert_agrees(document, query)
        with pytest.raises(QueryError, match="realisations"):
            QueryEngine(document).query("//a")

    def test_merged_book_matches_the_walk(self):
        document = merged_book(3)
        for query in BOOK_PLANS[:4]:
            engine = QueryEngine(document)
            assert snapshot(engine.query(query)) == snapshot(
                QueryEngine(document, use_cache=False).query(query)
            ), query
            assert priced_by_pass(engine, query), query


# -- fallback --------------------------------------------------------------------

class TestFallback:
    @pytest.mark.parametrize(
        "query",
        [
            '//person[../person/nm="n1"]/tel',  # parent axis in a predicate
            '//person[/addressbook/person/nm="n1"]/tel',  # absolute path
            "//person/nm | //person/tel",  # a union plan
            # $t is bound outside the predicate of nm that reads it.
            '//person[some $t in tel satisfies nm[contains($t, "1")]]/nm',
        ],
    )
    def test_plans_outside_the_scope_take_the_walk(self, query):
        document = grouped_book([(2, 3)])
        assert compile_plan(query).anchor is None
        engine = assert_agrees(document, query)
        plan = compile_plan(query)
        assert engine.cache.answer_events(document, plan.fingerprint) is not None
        assert not priced_by_pass(engine, query)

    def test_nested_anchor_falls_back_to_the_walk(self):
        choice = choice_prob(
            [
                (Fraction(1, 3), [PXElement("a", children=[certain_prob(PXText("x"))])]),
                (Fraction(2, 3), [PXText("z")]),
            ]
        )
        outer = PXElement("a", children=[choice, certain_prob(PXText("y"))])
        document = PXDocument(certain_prob(outer))
        plan = compile_plan("//a")
        assert plan.anchor is not None  # anchored: the document decides
        engine = assert_agrees(document, "//a")
        assert engine.cache.answer_events(document, plan.fingerprint) is not None
        assert not priced_by_pass(engine, "//a")
        assert ranked_map(engine.query("//a")) == {
            "xy": Fraction(1, 3), "x": Fraction(1, 3), "zy": Fraction(2, 3),
        }

    def test_nested_anchor_of_a_plain_document(self):
        document = certain_document(parse_document("<a><a>x</a>y</a>"))
        engine = assert_agrees(document, "//a")
        assert not priced_by_pass(engine, "//a")

    def test_too_many_values_still_raises(self):
        bits = [
            choice_prob([(Fraction(1, 2), [PXText("0")]), (Fraction(1, 2), [PXText("1")])])
            for _ in range(11)
        ]
        document = PXDocument(certain_prob(PXElement("r", children=bits)))
        with pytest.raises(QueryError, match="more than 1024 realisations"):
            QueryEngine(document).query("//r")
        with pytest.raises(QueryError, match="more than 1024 realisations"):
            QueryEngine(document, use_cache=False).query("//r")
        assert QueryEngine(document).cache_stats()["answers"] == 0


# -- anchor memo -----------------------------------------------------------------

#: The single change a near-duplicate anchor makes (see near_duplicate).
CHANGES = [
    "swapped siblings",
    "probability",
    "attribute",
    "text",
    "split text",
    "text to element",
    "swapped possibilities",
]

#: Plans over near-duplicate anchors: a string value, a text() step, an
#: attribute predicate and a predicate on the anchor's string value.
NEAR_DUPLICATE_PLANS = [
    "//r",
    "//r[b]/text()",
    '//r[@k="x"]/b',
    '//r[contains(., "12")]/b',
]


def count_local_walks(monkeypatch):
    """Record the engine's anchor-local walks; returns the list each walk
    appends its arguments to."""
    walks = []
    local_answer = ProbQueryEngine._local_answer

    def counted(self, *args):
        walks.append(args)
        return local_answer(self, *args)

    monkeypatch.setattr(ProbQueryEngine, "_local_answer", counted)
    return walks


def near_duplicate(change=None):
    """``<r k="x">`` over ▽[<a>1</a> <b>2</b>] ▽[1/3: "3" | 2/3: "4"]
    ▽["56"] ▽["b"], or a copy of it that makes one of :data:`CHANGES`.
    Each change alters at least one answer of
    :data:`NEAR_DUPLICATE_PLANS`."""
    def leaf(tag, text):
        return PXElement(tag, children=[certain_prob(PXText(text))])

    siblings = [leaf("a", "7" if change == "text" else "1"), leaf("b", "2")]
    if change == "swapped siblings":
        siblings.reverse()
    weights = (
        [Fraction(1, 4), Fraction(3, 4)]
        if change == "probability"
        else [Fraction(1, 3), Fraction(2, 3)]
    )
    # Swapped possibilities trade their contents; the weights stay put.
    contents = [[PXText("3")], [PXText("4")]]
    if change == "swapped possibilities":
        contents.reverse()
    run = [PXText("5"), PXText("6")] if change == "split text" else [PXText("56")]
    last = PXElement("b") if change == "text to element" else PXText("b")
    return PXElement(
        "r",
        {"k": "z" if change == "attribute" else "x"},
        [
            certain_prob(siblings),
            choice_prob(list(zip(weights, contents))),
            certain_prob(run),
            certain_prob(last),
        ],
    )


class TestAnchorMemo:
    def test_each_distinct_anchor_is_walked_once(self, monkeypatch):
        """Integration copies every person into each matching it keeps:
        the 141 person anchors of the 3x3 group hold 15 distinct
        subtrees, and the pass walks each once."""
        document = grouped_book([(3, 3)])
        query = '//person[nm="n0"]/tel'
        walks = count_local_walks(monkeypatch)
        answer = QueryEngine(document).query(query)
        assert len(walks) == 15
        assert snapshot(answer) == snapshot(
            QueryEngine(document, use_cache=False).query(query)
        )

    @pytest.mark.parametrize("change", CHANGES)
    def test_a_near_duplicate_is_priced_on_its_own(self, change, monkeypatch):
        """A choice holds an anchor, a copy of it with one change, and the
        original again: the pass walks the first two and reuses the
        first for the third, and answers as the walk does."""
        document = PXDocument(
            certain_prob(
                PXElement(
                    "doc",
                    children=[
                        choice_prob(
                            [
                                (Fraction(1, 2), [near_duplicate()]),
                                (Fraction(1, 3), [near_duplicate(change)]),
                                (Fraction(1, 6), [near_duplicate()]),
                            ]
                        )
                    ],
                )
            )
        )
        walks = count_local_walks(monkeypatch)
        for query in NEAR_DUPLICATE_PLANS:
            engine = QueryEngine(document)
            walks.clear()
            answer = engine.query(query)
            assert priced_by_pass(engine, query), query
            assert len(walks) == (0 if query == "//r" else 2), query
            assert snapshot(answer) == snapshot(
                QueryEngine(document, use_cache=False).query(query)
            ), query

    @given(
        document=pxml_documents(),
        weights=st.sampled_from(
            [
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 3), Fraction(2, 3)),
                (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
            ]
        ),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_documents_under_a_choice_of_copies(self, document, weights):
        """A root choice between copies of one random document, each
        under its own ``<x>``: equal anchors recur in every copy."""
        root = ProbNode(
            [
                Possibility(weight, [PXElement("x", children=[document.root.copy()])])
                for weight in weights
            ]
        )
        copies = PXDocument(root)
        for query in RANDOM_PLANS:
            assert snapshot(QueryEngine(copies).query(query)) == snapshot(
                QueryEngine(copies, use_cache=False).query(query)
            ), query


# -- deadline --------------------------------------------------------------------

class TestDeadline:
    def test_budget_interrupts_the_pass(self):
        """A 20 ms budget on the merged 5x5 book, whose unbudgeted pass
        takes hundreds of milliseconds, raises inside the pass within a
        small multiple of the budget and leaves no memo row."""
        document = merged_book(5)
        engine = QueryEngine(document)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError) as raised:
            with active(Deadline.from_ms(20)):
                engine.query("//person/tel")
        elapsed = time.perf_counter() - started
        assert elapsed < 0.2, f"20 ms budget ran {elapsed * 1000:.0f} ms"
        assert any(
            entry.path.name == "treepass.py" for entry in raised.traceback
        ), "the deadline fired outside the pass"
        assert engine.cache_stats()["answers"] == 0

    def test_deadline_inside_a_key_walk(self, monkeypatch):
        """The plan's one anchor is the whole document: the deadline
        fires in the walk that keys it, surfaces from the pass, and
        leaves no memo row."""
        document = grouped_book([(2, 3)])
        query = "/addressbook[person]/person/nm"

        def expired():
            raise DeadlineExceededError("deadline exceeded in a key walk")

        monkeypatch.setattr(treepass, "checkpoint", expired)
        engine = QueryEngine(document)
        with pytest.raises(DeadlineExceededError) as raised:
            engine.query(query)
        frames = [entry.name for entry in raised.traceback]
        assert frames[-2:] == ["_structure", "expired"], frames
        assert "price_anchored" in frames
        assert not priced_by_pass(engine, query)
        assert engine.cache_stats()["answers"] == 0

    def test_active_deadline_keeps_older_objects_out_of_collections(self):
        """While a deadline is active on any thread, the objects older
        than the request are frozen, so no full collection walks them
        inside the budget; the last scope to close unfreezes them."""
        assert gc.get_freeze_count() == 0
        opened, release = threading.Event(), threading.Event()

        def other_request():
            with active(Deadline.from_ms(60_000)):
                opened.set()
                release.wait(10)

        other = threading.Thread(target=other_request)
        with active(Deadline.from_ms(60_000)):
            assert gc.get_freeze_count() > 0
            with active(None):
                assert gc.get_freeze_count() > 0
            other.start()
            assert opened.wait(10)
        assert gc.get_freeze_count() > 0
        release.set()
        other.join(10)
        assert gc.get_freeze_count() == 0
