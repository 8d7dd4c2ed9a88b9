"""Tests for incremental (multi-source) integration."""

import random
from fractions import Fraction

import pytest

from repro.core.engine import IntegrationConfig, Integrator
from repro.core.incremental import IncrementalIntegrator, integrate_many
from repro.core.oracle import Oracle
from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.errors import IntegrationError
from repro.pxml.model import validate_document
from repro.pxml.serialize import pxml_to_text
from repro.pxml.worlds import distinct_worlds, world_count
from repro.xmlkit.nodes import canonical_key
from repro.xmlkit.parser import parse_document

GENERIC = [DeepEqualRule(), LeafValueRule()]


def config():
    return IntegrationConfig(oracle=Oracle(GENERIC), dtd=ADDRESSBOOK_DTD)


def book(*entries):
    persons = "".join(
        f"<person><nm>{name}</nm><tel>{tel}</tel></person>" for name, tel in entries
    )
    return parse_document(f"<addressbook>{persons}</addressbook>")


class TestTwoSources:
    def test_matches_pairwise_engine(self):
        """Folding two sources must equal the ordinary pairwise result."""
        book_a, book_b = addressbook_documents()
        folded, _ = integrate_many([book_a, book_b], config())
        pairwise = Integrator(config()).integrate(book_a, book_b).document
        folded_worlds = {
            canonical_key(d.root): p for d, p in distinct_worlds(folded)
        }
        pairwise_worlds = {
            canonical_key(d.root): p for d, p in distinct_worlds(pairwise)
        }
        assert folded_worlds == pairwise_worlds

    def test_single_source_is_certain(self):
        document, history = integrate_many([book(("Ann", "1"))], config())
        assert document.is_certain()
        assert history[0].is_exact


class TestThreeSources:
    def test_three_books_fold(self):
        sources = [book(("John", "1111")), book(("John", "2222")),
                   book(("John", "3333"))]
        document, history = integrate_many(sources, config())
        validate_document(document)
        assert all(step.is_exact for step in history)
        total = sum(p for _, p in distinct_worlds(document, limit=None))
        assert total == 1

    def test_third_source_grows_uncertainty(self):
        two, _ = integrate_many(
            [book(("John", "1111")), book(("John", "2222"))], config()
        )
        three, _ = integrate_many(
            [book(("John", "1111")), book(("John", "2222")),
             book(("John", "3333"))],
            config(),
        )
        assert world_count(three) > world_count(two)

    def test_identical_sources_stay_certain(self):
        same = book(("Ann", "1"), ("Bo", "2"))
        document, _ = integrate_many([same, same.copy(), same.copy()], config())
        assert document.is_certain()


class TestBudget:
    def test_budget_truncates_and_reports(self):
        sources = [book(("John", "1111")), book(("John", "2222")),
                   book(("John", "3333"))]
        integrator = IncrementalIntegrator(config=config(), world_budget=2)
        for source in sources:
            report = integrator.add_source(source)
        assert not report.is_exact
        assert report.retained_mass < 1
        assert report.worlds_retained == 2
        # The approximate posterior is still a proper distribution.
        total = sum(p for _, p in distinct_worlds(integrator.document, limit=None))
        assert total == 1

    def test_a_budget_through_a_tie_keeps_the_same_worlds(self):
        """After the second source the worlds are at 1/2, 1/4 and 1/4, so
        a budget of 2 keeps one of the tied pair.  It is the first one
        enumerated whatever the heap looks like, so every run folds the
        third source into the same worlds."""
        sources = [book(("John", "1111")), book(("John", "2222")),
                   book(("John", "3333"))]
        rng = random.Random(20261020)
        texts = set()
        held = []
        for _ in range(12):
            churn = [book(("Ann", str(i))) for i in range(rng.randrange(20, 200))]
            rng.shuffle(churn)
            held.append(churn[: len(churn) // 2])
            document, history = integrate_many(sources, config(), world_budget=2)
            assert history[-1].worlds_retained == 2
            texts.add(pxml_to_text(document))
        assert len(texts) == 1

    def test_zero_budget_rejected(self):
        integrator = IncrementalIntegrator(config=config(), world_budget=0)
        with pytest.raises(IntegrationError):
            integrator.add_source(book(("Ann", "1")))

    def test_empty_sources_rejected(self):
        with pytest.raises(IntegrationError):
            integrate_many([], config())

    def test_history_accumulates(self):
        integrator = IncrementalIntegrator(config=config())
        integrator.add_source(book(("Ann", "1")))
        integrator.add_source(book(("Ann", "2")))
        assert len(integrator.history) == 2
        assert "worlds" in integrator.history[-1].summary()
