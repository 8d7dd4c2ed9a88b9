"""Differential harness for rank fusion (`repro.query.fusion`).

Pins both fusion strategies Fraction-identical to naive reference
implementations over the concatenated per-document answer sets —
``prob`` against brute-force probability-mass accumulation, ``rrf``
against the literal reciprocal-rank formula — plus the fusion
invariants: permutation invariance across document order, monotonicity
in source weight, single-document fan-out ≡ plain ``query``.  The
service-level sweep drives :meth:`DataspaceService.query_all` over
seeded random documents in raw, simplified, and feedback-conditioned
states, with per-document answers cross-checked against the
world-enumeration reference backend.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.dbms.service import DataspaceService
from repro.errors import MissingDocumentError, QueryError
from repro.feedback.conditioning import condition_on_event
from repro.probability import ONE, ZERO
from repro.pxml.build import certain_prob, choice_prob
from repro.pxml.events import lit
from repro.pxml.model import PXDocument, PXElement, PXText
from repro.pxml.simplify import simplify
from repro.pxml.worlds import world_count
from repro.query.engine import query_enumeration
from repro.query.fusion import (
    DEFAULT_RRF_K,
    FUSION_STRATEGIES,
    fuse_aggregates,
    fuse_answers,
    fusion_weights,
)
from repro.query.aggregates import aggregate_distribution_enumerated
from repro.query.ranking import RankedAnswer, RankedItem
from .conftest import LARGE_PRIMES

WORLD_LIMIT = 300

VALUES = ("ada", "bob", "cyd", "dee", "eli", "fay")
DOCUMENTS = ("alpha", "beta", "gamma", "delta")


# -- naive references ---------------------------------------------------------


def reference_prob(answers, weights):
    """Brute force over the concatenated per-document answer sets:
    accumulate each document's exact probability mass under its weight."""
    scores = {}
    for name, answer in answers.items():
        for item in answer.items:
            scores[item.value] = (
                scores.get(item.value, ZERO) + weights[name] * item.probability
            )
    return scores


def reference_rrf(answers, weights, k):
    """The reciprocal-rank formula, literally: w_d / (k + rank_d(v))."""
    scores = {}
    for name, answer in answers.items():
        for rank, item in enumerate(answer.items, start=1):
            scores[item.value] = scores.get(item.value, ZERO) + weights[
                name
            ] / (Fraction(k) + rank)
    return scores


def reference_order(scores):
    """Expected fused order: descending score, ties broken by value."""
    return sorted(scores, key=lambda value: (-scores[value], value))


def assert_matches_reference(fused, answers, weights, *, strategy, k=DEFAULT_RRF_K):
    expected = (
        reference_prob(answers, weights)
        if strategy == "prob"
        else reference_rrf(answers, weights, k)
    )
    assert fused.values() == reference_order(expected)
    for item in fused.items:
        assert item.score == expected[item.value], (strategy, item)
    # Provenance: exactly the contributing documents, in sorted order,
    # with the value's true local rank and exact local probability.
    for item in fused.items:
        expected_sources = sorted(
            name for name in answers if item.value in answers[name].values()
        )
        assert [s.document for s in item.sources] == expected_sources
        for source in item.sources:
            local = answers[source.document]
            assert local.values()[source.rank - 1] == item.value
            assert source.probability == local.probability_of(item.value)


# -- synthetic answer generators ----------------------------------------------


@st.composite
def ranked_answers(draw):
    count = draw(st.integers(min_value=0, max_value=len(VALUES)))
    values = draw(
        st.lists(
            st.sampled_from(VALUES), min_size=count, max_size=count, unique=True
        )
    )
    items = [
        RankedItem(
            value,
            Fraction(
                draw(st.integers(min_value=1, max_value=8)),
                draw(st.integers(min_value=8, max_value=16)),
            ),
        )
        for value in values
    ]
    return RankedAnswer(items)


@st.composite
def fanouts(draw, min_documents=1):
    names = draw(
        st.lists(
            st.sampled_from(DOCUMENTS),
            min_size=min_documents,
            max_size=len(DOCUMENTS),
            unique=True,
        )
    )
    return {name: draw(ranked_answers()) for name in names}


@st.composite
def sparse_weights(draw, names):
    chosen = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    return {
        name: Fraction(
            draw(st.integers(min_value=1, max_value=5)),
            draw(st.integers(min_value=1, max_value=3)),
        )
        for name in chosen
    }


@st.composite
def wide_fanouts(draw):
    """Fan-outs whose probabilities come from a small pool (so many
    values tie, within and across documents) over large coprime
    denominators, including the closest pair two of them allow."""
    p, q = draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=2, max_size=2, unique=True))
    n = draw(st.integers(min_value=1, max_value=p - 1))
    pool = [Fraction(n, p), Fraction(n * q + 1, p * q), ONE, Fraction(1, 2)]
    pool += draw(
        st.lists(
            st.builds(
                lambda prime, share: Fraction(share % prime + 1, prime),
                st.sampled_from(LARGE_PRIMES),
                st.integers(min_value=0, max_value=2**130),
            ),
            max_size=3,
        )
    )
    names = draw(
        st.lists(st.sampled_from(DOCUMENTS), min_size=1, max_size=len(DOCUMENTS), unique=True)
    )
    answers = {}
    for name in names:
        values = draw(st.lists(st.sampled_from(VALUES), max_size=len(VALUES), unique=True))
        answers[name] = RankedAnswer(
            [RankedItem(value, draw(st.sampled_from(pool))) for value in values]
        )
    return answers


# -- property tests: strategies vs references ---------------------------------


class TestAgainstReference:
    @given(fanouts())
    @settings(max_examples=120, deadline=None)
    @seed(20260801)
    def test_prob_matches_brute_force(self, answers):
        fused = fuse_answers(answers, strategy="prob")
        weights = fusion_weights(sorted(answers))
        assert_matches_reference(fused, answers, weights, strategy="prob")
        # prob scores are genuine probabilities.
        assert all(ZERO < item.score <= ONE for item in fused.items)

    @given(fanouts(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=120, deadline=None)
    @seed(20260802)
    def test_rrf_matches_naive(self, answers, k):
        fused = fuse_answers(answers, strategy="rrf", rrf_k=k)
        weights = fusion_weights(sorted(answers))
        assert_matches_reference(fused, answers, weights, strategy="rrf", k=k)
        assert fused.rrf_k == Fraction(k)

    @given(fanouts(min_documents=2))
    @settings(max_examples=80, deadline=None)
    @seed(20260803)
    def test_weighted_prob_matches_brute_force(self, answers):
        names = sorted(answers)
        raw = {names[0]: Fraction(3), names[-1]: Fraction(1, 2)}
        weights = fusion_weights(names, raw)
        assert sum(weights.values()) == ONE
        fused = fuse_answers(answers, weights=raw)
        assert_matches_reference(fused, answers, weights, strategy="prob")


class TestWideDenominators:
    """Ties and large coprime denominators: fused scores stay exact and
    the fused order is the Fraction sort's, under both strategies."""

    @given(wide_fanouts())
    @settings(max_examples=150, deadline=None)
    @seed(20261020)
    def test_prob_matches_brute_force(self, answers):
        fused = fuse_answers(answers, strategy="prob")
        weights = fusion_weights(sorted(answers))
        assert_matches_reference(fused, answers, weights, strategy="prob")

    @given(wide_fanouts(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=150, deadline=None)
    @seed(20261021)
    def test_rrf_matches_naive(self, answers, k):
        fused = fuse_answers(answers, strategy="rrf", rrf_k=k)
        weights = fusion_weights(sorted(answers))
        assert_matches_reference(fused, answers, weights, strategy="rrf", k=k)

    @given(wide_fanouts())
    @settings(max_examples=100, deadline=None)
    @seed(20261022)
    def test_weighted_over_a_large_prime(self, answers):
        names = sorted(answers)
        raw = {names[0]: Fraction(LARGE_PRIMES[0], LARGE_PRIMES[1])}
        weights = fusion_weights(names, raw)
        for strategy in FUSION_STRATEGIES:
            fused = fuse_answers(answers, strategy=strategy, weights=raw)
            assert_matches_reference(fused, answers, weights, strategy=strategy)


class TestInvariants:
    @given(fanouts(min_documents=2), st.randoms(use_true_random=False))
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @seed(20260804)
    def test_permutation_invariance(self, answers, rng):
        """Fusing the same answers in any insertion order is identical —
        items, scores, provenance, membership order."""
        names = list(answers)
        rng.shuffle(names)
        shuffled = {name: answers[name] for name in names}
        for strategy in FUSION_STRATEGIES:
            assert fuse_answers(shuffled, strategy=strategy) == fuse_answers(
                answers, strategy=strategy
            )

    @given(fanouts(min_documents=2))
    @settings(max_examples=80, deadline=None)
    @seed(20260805)
    def test_weight_monotonicity(self, answers):
        """Raising one document's weight strictly raises the fused score
        of every value only that document contributes (and of no value
        the document does not contribute)."""
        names = sorted(answers)
        boosted = names[0]
        only_here = [
            item.value
            for item in answers[boosted].items
            if not any(
                item.value in answers[other].values()
                for other in names
                if other != boosted
            )
        ]
        low = fuse_answers(answers, weights={boosted: Fraction(1, 2)})
        high = fuse_answers(answers, weights={boosted: Fraction(4)})
        for value in only_here:
            assert high.score_of(value) > low.score_of(value)
        for name in names:
            for item in answers[name].items:
                if name != boosted and item.value not in answers[boosted].values():
                    assert high.score_of(item.value) < low.score_of(item.value)

    @given(ranked_answers())
    @settings(max_examples=80, deadline=None)
    @seed(20260806)
    def test_single_document_prob_equals_plain_query(self, answer):
        """A one-document ``prob`` fan-out *is* the plain query: weight
        normalizes to 1, so fused scores equal the local probabilities
        and the order is the RankedAnswer's own."""
        fused = fuse_answers({"solo": answer})
        assert fused.values() == answer.values()
        for item in fused.items:
            assert item.score == answer.probability_of(item.value)
            assert item.sources == fused.sources_of(item.value)
            (source,) = item.sources
            assert source.document == "solo"

    @given(ranked_answers())
    @settings(max_examples=40, deadline=None)
    @seed(20260807)
    def test_single_document_rrf_preserves_order(self, answer):
        fused = fuse_answers({"solo": answer}, strategy="rrf")
        assert fused.values() == answer.values()


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(QueryError, match="unknown fusion strategy"):
            fuse_answers({"a": RankedAnswer()}, strategy="borda")

    def test_empty_fanout(self):
        with pytest.raises(QueryError, match="empty document selection"):
            fuse_answers({})

    def test_unknown_weight_name(self):
        with pytest.raises(QueryError, match="outside the fan-out"):
            fuse_answers({"a": RankedAnswer()}, weights={"typo": 1})

    @pytest.mark.parametrize("bad", [0, -1, "0/3", True, "x", None])
    def test_bad_weight(self, bad):
        with pytest.raises(QueryError):
            fuse_answers({"a": RankedAnswer()}, weights={"a": bad})

    @pytest.mark.parametrize("bad", [-1, "-1/2", "x", None, True, 2.5])
    def test_bad_rrf_k(self, bad):
        with pytest.raises(QueryError):
            fuse_answers({"a": RankedAnswer()}, strategy="rrf", rrf_k=bad)

    def test_rational_rrf_k_accepted(self):
        answer = RankedAnswer([RankedItem("v", Fraction(1, 2))])
        fused = fuse_answers({"a": answer}, strategy="rrf", rrf_k="121/2")
        assert fused.score_of("v") == Fraction(1, Fraction(121, 2) + 1)

    def test_weights_ignored_names_rejected_for_aggregates(self):
        with pytest.raises(QueryError, match="outside the fan-out"):
            fuse_aggregates({"a": {1: ONE}}, weights={"b": 1})


class TestAggregateMixture:
    def test_mixture_is_weighted_sum(self):
        mixed = fuse_aggregates(
            {
                "a": {1: Fraction(1, 2), 2: Fraction(1, 2)},
                "b": {2: Fraction(1, 3), None: Fraction(2, 3)},
            },
            weights={"a": 3},
        )
        assert mixed == {
            None: Fraction(1, 4) * Fraction(2, 3),
            1: Fraction(3, 4) * Fraction(1, 2),
            2: Fraction(3, 4) * Fraction(1, 2) + Fraction(1, 4) * Fraction(1, 3),
        }
        # Pinned key order: None first, then ascending.
        assert list(mixed) == [None, 1, 2]
        assert sum(mixed.values()) == ONE


# -- service-level sweep: real documents, all three states --------------------


def random_document(rng):
    """A small random probabilistic document over <m> value leaves:
    certain and choice-valued leaves, some optional (structural
    uncertainty), so per-document answers genuinely differ."""
    children = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            value = rng.choice(VALUES)
            leaf = PXElement("m", children=[certain_prob(PXText(value))])
        else:
            values = rng.sample(VALUES, rng.randint(1, 3))
            weights = [rng.randint(1, 3) for _ in values]
            total = sum(weights)
            leaf = PXElement(
                "m",
                children=[
                    choice_prob(
                        [
                            (Fraction(w, total), [PXText(v)])
                            for w, v in zip(weights, values)
                        ]
                    )
                ],
            )
        if rng.random() < 0.3:
            # Optional element: present in half the worlds.
            children.append(
                choice_prob([(Fraction(1, 2), [leaf]), (Fraction(1, 2), [])])
            )
        else:
            children.append(certain_prob(leaf))
    return PXDocument(certain_prob(PXElement("r", children=children)))


def first_choice_event(document):
    for node in document.iter_prob_nodes():
        if len(node.possibilities) >= 2:
            return lit(node, 0)
    return None


def apply_state(document, state):
    if state == "simplify":
        simplified, _ = simplify(document)
        return simplified
    if state == "condition":
        event = first_choice_event(document)
        return document if event is None else condition_on_event(document, event)
    return document


class TestServiceSweep:
    """`query_all` over K stored documents is Fraction-identical to the
    reference fusion of per-document *enumeration* answers — both
    strategies, raw/simplified/feedback-conditioned documents."""

    @pytest.mark.parametrize("state", ["raw", "simplify", "condition"])
    def test_query_all_matches_enumeration_reference(self, state):
        rng = random.Random(0xF05E + len(state))
        for round_index in range(6):
            documents = {}
            for index in range(rng.randint(2, 4)):
                doc = apply_state(random_document(rng), state)
                if world_count(doc) > WORLD_LIMIT:
                    continue
                documents[f"doc{index}"] = doc
            if not documents:
                continue
            with DataspaceService() as service:
                for name, doc in documents.items():
                    service.load_document(name, doc)
                answers = {
                    name: query_enumeration(doc, "//m")
                    for name, doc in documents.items()
                }
                weights = fusion_weights(sorted(documents))
                fused_prob = service.query_all("//m")
                assert_matches_reference(
                    fused_prob, answers, weights, strategy="prob"
                )
                fused_rrf = service.query_all("//m", strategy="rrf", rrf_k=7)
                assert_matches_reference(
                    fused_rrf, answers, weights, strategy="rrf", k=7
                )
                assert fused_prob.documents == tuple(sorted(documents))

    def test_query_all_single_document_equals_plain_query(self):
        rng = random.Random(0x51)
        with DataspaceService() as service:
            doc = random_document(rng)
            service.load_document("only", doc)
            plain = service.query("only", "//m")
            fused = service.query_all("//m", names=["only"])
            assert fused.values() == plain.values()
            for item in fused.items:
                assert item.score == plain.probability_of(item.value)

    def test_query_all_weighted_and_globbed(self):
        rng = random.Random(0x9B)
        with DataspaceService() as service:
            for name in ("pair.a", "pair.b", "other"):
                service.load_document(name, random_document(rng))
            fused = service.query_all(
                "//m", glob="pair.*", weights={"pair.a": 3}
            )
            assert fused.documents == ("pair.a", "pair.b")
            assert fused.weights == {
                "pair.a": Fraction(3, 4),
                "pair.b": Fraction(1, 4),
            }
            answers = {
                name: service.query(name, "//m") for name in fused.documents
            }
            assert_matches_reference(
                fused, answers, fused.weights, strategy="prob"
            )

    def test_aggregate_all_matches_enumerated_mixture(self):
        rng = random.Random(0xA66)
        with DataspaceService() as service:
            documents = {}
            for index in range(3):
                doc = random_document(rng)
                documents[f"doc{index}"] = doc
                service.load_document(f"doc{index}", doc)
            mixed = service.aggregate_all("count", "m")
            reference = fuse_aggregates(
                {
                    name: aggregate_distribution_enumerated(doc, "count", "m")
                    for name, doc in documents.items()
                }
            )
            assert mixed == reference
            assert sum(mixed.values()) == ONE

    def test_empty_selection_raises(self):
        with DataspaceService() as service:
            with pytest.raises(MissingDocumentError):
                service.query_all("//m")
            service.load("a", "<r><m>1</m></r>")
            with pytest.raises(MissingDocumentError):
                service.query_all("//m", glob="zzz*")
            with pytest.raises(MissingDocumentError):
                service.query_all("//m", names=["missing"])

    def test_names_and_glob_are_exclusive(self):
        with DataspaceService() as service:
            service.load("a", "<r><m>1</m></r>")
            with pytest.raises(Exception, match="not both"):
                service.query_all("//m", names=["a"], glob="a*")
