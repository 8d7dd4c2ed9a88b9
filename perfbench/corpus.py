"""The seeded workload generator shared by ``cold``, ``warm`` and ``churn``.

Everything the program under test receives is made here from one
``random.Random(seed)``: the address-book source pairs, the integrated
corpus, the plan set and each workload's op order.  Only the public
library API is used, so the generator itself never depends on internals
a later change might move.

Documents are integrated address books whose persons fall into *conflict
groups*: every group has 2 or 3 persons of one name in each source, so
the Oracle (different names never match; equal names stay uncertain)
leaves an uncertain matching inside each group.  The group-size range is
deliberately narrow: a single 4x4 group makes pricing dominate and one
such document owns the latency tail, which turns seed-to-seed spread
into noise.  For the same reason every seed prices the same mix:

* group shapes come from shuffled blocks that hold each of the four
  shapes (2x2, 2x3, 3x2, 3x3) once; the groups of one book pair take
  neighbouring shapes of a block, so a pair never repeats a shape, and
  over four pairs every group name (the one an equality predicate
  selects too) takes every shape once;
* in every group, each source's first person has a phone number that
  contains "1" and the others have none, so the ``contains`` predicate
  selects the same share of persons in every document;
* phones are distinct within a book pair (see :func:`book_entries`).
"""

from __future__ import annotations

import os
import platform
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.rules import Decision, DeepEqualRule, LeafValueRule, PredicateRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.xmlkit.nodes import XDocument

#: Persons per conflict group and source.
GROUP_SIZES = (2, 3)

#: Every (persons in source A, persons in source B) group shape.
SHAPES = tuple((a, b) for a in GROUP_SIZES for b in GROUP_SIZES)

#: The query plans every workload prices: two child paths, a
#: ``contains`` predicate and an equality predicate.  Names ``n0``,
#: ``n1``, ... recur in every document, so one plan set applies to the
#: whole corpus and ``/search`` fuses overlapping values.
PLANS = (
    "//person/tel",
    "//person/nm",
    '//person[contains(tel, "1")]/nm',
    '//person[nm="n0"]/tel',
)

#: The aggregate every workload prices: ``count person``.
AGGREGATE = ("count", "person")

#: The plan ``/search`` and ``query_all`` fan out.
SEARCH_PLAN = PLANS[0]

#: Integrated documents are named ``doc00``, ``doc01``, ...; this glob
#: selects exactly them (source books live beside them under ``src-*``).
CORPUS_GLOB = "doc*"


def _different_names_differ(a, b, context) -> Optional[Decision]:
    """Different names are different people; equal names stay uncertain."""
    name_a, name_b = a.find("nm"), b.find("nm")
    if name_a is None or name_b is None:
        return None
    if name_a.text() != name_b.text():
        return Decision.NO_MATCH
    return None


def integration_rules() -> list:
    """The Oracle's rule list for address-book pairs."""
    return [
        DeepEqualRule(),
        PredicateRule(
            "name-discriminates", _different_names_differ, tags=("person",)
        ),
        LeafValueRule(),
    ]


DTD = ADDRESSBOOK_DTD


def doc_name(index: int) -> str:
    return f"doc{index:02d}"


def group_shapes(label: str, index: int, groups: int) -> list[tuple[int, int]]:
    """The shapes of groups ``n0 .. n{groups-1}`` in book pair ``index``.

    Pairs ``4k .. 4k+3`` share one shuffled block of :data:`SHAPES`,
    seeded on its own so any pair can be drawn without drawing the pairs
    before it; group ``g`` of pair ``i`` takes block element
    ``(i + g) mod 4``."""
    block, position = divmod(index, len(SHAPES))
    order = list(SHAPES)
    random.Random(f"{label}:{block}").shuffle(order)
    return [order[(position + group) % len(SHAPES)] for group in range(groups)]


def _phone(rng: random.Random, with_one: bool) -> str:
    digits = [rng.choice("023456789") for _ in range(4)]
    if with_one:
        digits[rng.randrange(4)] = "1"
    return "".join(digits)


def book_entries(
    rng: random.Random, shapes: list[tuple[int, int]]
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The (name, phone) entries of two address books with one conflict
    group per shape; group ``g``'s persons are named ``n{g}``.

    Phones are distinct within the pair.  A phone shared by persons of two
    groups ties both groups into one event: confirming such a phone once
    cost a ``churn`` op 55 times the median, so a chance collision would
    decide which runs are slow."""
    entries_a: list[tuple[str, str]] = []
    entries_b: list[tuple[str, str]] = []
    used: set[str] = set()
    for group, (size_a, size_b) in enumerate(shapes):
        name = f"n{group}"
        for entries, size in ((entries_a, size_a), (entries_b, size_b)):
            for person in range(size):
                phone = _phone(rng, with_one=person == 0)
                while phone in used:
                    phone = _phone(rng, with_one=person == 0)
                used.add(phone)
                entries.append((name, phone))
    return entries_a, entries_b


def book_pair(
    rng: random.Random, shapes: list[tuple[int, int]]
) -> tuple[XDocument, XDocument]:
    """Two address books with one conflict group per shape."""
    return addressbook_documents(*book_entries(rng, shapes))


@dataclass(frozen=True)
class Sizes:
    """How big one workload run is."""

    documents: int
    groups: int


def corpus_books(seed: int, sizes: Sizes) -> list[tuple[XDocument, XDocument]]:
    """The source pairs of a corpus, one per document, from ``seed``."""
    rng = random.Random(f"corpus:{seed}")
    return [
        book_pair(rng, group_shapes(f"corpus:{seed}", index, sizes.groups))
        for index in range(sizes.documents)
    ]


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: how fast this machine runs
    right now.  Recorded beside every result so that drift in machine
    speed shows as drift, not as a change in the program."""
    start = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return time.perf_counter() - start


def run_record(seed: int, workload: str, sizes: Sizes, ops: int) -> dict:
    """What every run prints before its result line."""
    return {
        "workload": workload,
        "seed": seed,
        "documents": sizes.documents,
        "groups": sizes.groups,
        "ops": ops,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": round(calibration_seconds(), 6),
    }
