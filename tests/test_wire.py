"""Property-based round-trip tests for the exact-Fraction wire format.

Stdlib-only "property testing": a seeded :class:`random.Random` drives
thousands of generated Fractions, count distributions and ranked-answer
payloads through ``encode → json → decode`` and asserts bit-identity.
The seed is fixed, so a failure reproduces deterministically; crank
``WIRE_CASES`` up locally for a deeper sweep.
"""

import json
import math
import os
import random
from fractions import Fraction

import pytest

from repro.dbms.cache_store import _decode_answer, _encode_answer
from repro.errors import WireFormatError
from repro.feedback.conditioning import FeedbackStep
from repro.pxml.stats import NodeStats
from repro.query.fusion import fuse_answers
from repro.query.ranking import RankedAnswer, RankedItem
from repro.server import wire

#: Fractions per property sweep (distributions/answers derive from it).
WIRE_CASES = int(os.environ.get("WIRE_CASES", "2000"))

RNG_SEED = 0x1337


def random_fraction(rng: random.Random) -> Fraction:
    """Probability-shaped and adversarial Fractions alike: tiny, huge
    (hundreds of digits), negative, integral, and exact-float values."""
    shape = rng.randrange(6)
    if shape == 0:  # plain small probability
        denominator = rng.randrange(1, 1000)
        return Fraction(rng.randrange(0, denominator + 1), denominator)
    if shape == 1:  # huge numerator/denominator (SQLite/JSON carry strings)
        bits = rng.randrange(64, 1024)
        return Fraction(rng.getrandbits(bits), rng.getrandbits(bits) + 1)
    if shape == 2:  # negative (the format is general, not probability-only)
        return Fraction(-rng.getrandbits(48), rng.getrandbits(48) + 1)
    if shape == 3:  # integral values keep their /1 denominator
        return Fraction(rng.randrange(-5, 6))
    if shape == 4:  # exact binary floats (the decay the format prevents)
        return Fraction(rng.random()).limit_denominator(10**12)
    # products of many small factors — the Shannon-expansion shape
    value = Fraction(1)
    for _ in range(rng.randrange(1, 12)):
        denominator = rng.randrange(1, 30)
        value *= Fraction(rng.randrange(0, denominator + 1), denominator)
    return value


def random_value(rng: random.Random) -> str:
    """Answer values: ASCII, unicode (CJK/emoji/combining), JSON-hostile
    quotes/backslashes/control characters, empty strings."""
    alphabets = [
        "abcdefghijklmnopqrstuvwxyz0123456789 _-",
        "äöüßéèêñçживётフランス語中文字汉字",
        "\"\\'/<>&{}[]:,\n\t\r",
        "😀🎬🍿⭐🔬",
    ]
    pieces = []
    for _ in range(rng.randrange(0, 12)):
        alphabet = rng.choice(alphabets)
        pieces.append(rng.choice(alphabet))
    return "".join(pieces)


def random_answer(rng: random.Random) -> RankedAnswer:
    values = set()
    items = []
    for _ in range(rng.randrange(0, 12)):
        value = random_value(rng)
        if value in values:
            continue  # RankedAnswer values are distinct by construction
        values.add(value)
        probability = abs(random_fraction(rng))
        items.append(RankedItem(value, probability, rng.randrange(1, 5)))
    return RankedAnswer(items)


def random_distribution(rng: random.Random) -> dict:
    return {
        count: abs(random_fraction(rng))
        for count in rng.sample(range(0, 10**6), rng.randrange(0, 20))
    }


def random_aggregate_distribution(rng: random.Random) -> dict:
    """Aggregate-shaped keys: ints, non-integral Fractions, and the
    min/max no-match outcome (``None``)."""
    distribution: dict = {}
    for _ in range(rng.randrange(0, 16)):
        shape = rng.randrange(3)
        if shape == 0:
            key = rng.randrange(-10**6, 10**6)
        elif shape == 1:
            value = random_fraction(rng)
            if value.denominator == 1:
                value += Fraction(1, 2)  # keep it non-integral
            key = value
        else:
            key = None
        distribution[key] = abs(random_fraction(rng))
    return distribution


class TestFractionRoundTrip:
    def test_thousands_of_fractions(self):
        rng = random.Random(RNG_SEED)
        for _ in range(WIRE_CASES):
            value = random_fraction(rng)
            encoded = wire.encode_fraction(value)
            # Survives a real JSON hop (string in, string out).
            hopped = json.loads(json.dumps(encoded))
            decoded = wire.decode_fraction(hopped)
            assert decoded == value
            assert isinstance(decoded, Fraction)
            # Exactness, not closeness: numerator/denominator identity.
            assert (decoded.numerator, decoded.denominator) == (
                value.numerator,
                value.denominator,
            )

    def test_canonical_form_is_reduced(self):
        assert wire.encode_fraction(Fraction(2, 4)) == "1/2"
        assert wire.encode_fraction(Fraction(3)) == "3/1"
        assert wire.decode_fraction("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize(
        "garbage",
        ["", "1", "1/", "/2", "a/b", "1/0", "1.5/2", "1/2/3", "0x1/2",
         "1 /2", "∞/1", None, 0.5, ["1", "2"], {"n": 1, "d": 2}],
    )
    def test_malformed_fraction_raises(self, garbage):
        with pytest.raises(WireFormatError):
            wire.decode_fraction(garbage)


class TestAnswerRoundTrip:
    def test_hundreds_of_answers(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(max(WIRE_CASES // 5, 50)):
            answer = random_answer(rng)
            payload = json.loads(json.dumps(wire.encode_answer(answer)))
            decoded = wire.decode_answer(payload)
            assert [
                (item.value, item.probability, item.occurrences)
                for item in decoded.items
            ] == [
                (item.value, item.probability, item.occurrences)
                for item in answer.items
            ]

    def test_order_survives(self):
        """RankedAnswer orders by (-probability, value); the wire keeps
        that order so a decoded answer ranks identically."""
        rng = random.Random(RNG_SEED + 2)
        for _ in range(200):
            answer = random_answer(rng)
            decoded = wire.decode_answer(wire.encode_answer(answer))
            assert decoded.values() == answer.values()

    def test_cache_store_payload_is_the_same_format(self):
        """The persistent cache rows and the HTTP wire share one
        encoding — a row payload decodes through the wire module and
        vice versa."""
        rng = random.Random(RNG_SEED + 3)
        for _ in range(100):
            answer = random_answer(rng)
            row = _encode_answer(answer)                  # cache row text
            via_wire = wire.decode_answer(json.loads(row))
            via_store = _decode_answer(json.dumps(wire.encode_answer(answer)))
            for decoded in (via_wire, via_store):
                assert [
                    (item.value, item.probability, item.occurrences)
                    for item in decoded.items
                ] == [
                    (item.value, item.probability, item.occurrences)
                    for item in answer.items
                ]

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            "items",
            {"items": []},
            [["only-two", "1/2"]],
            [["v", "1/2", 1, "extra"]],
            [[1, "1/2", 1]],            # non-string value
            [["v", 0.5, 1]],            # float probability
            [["v", "1/2", "1"]],        # non-int occurrences
            [["v", "1/2", True]],       # bool is not an occurrence count
        ],
    )
    def test_malformed_answer_raises(self, garbage):
        with pytest.raises(WireFormatError):
            wire.decode_answer(garbage)


class TestDistributionRoundTrip:
    def test_hundreds_of_distributions(self):
        rng = random.Random(RNG_SEED + 4)
        for _ in range(max(WIRE_CASES // 5, 50)):
            distribution = random_distribution(rng)
            payload = json.loads(json.dumps(wire.encode_distribution(distribution)))
            decoded = wire.decode_distribution(payload)
            assert decoded == distribution
            # Counts stay ints (no "2" vs 2 decay through JSON objects).
            assert all(isinstance(count, int) for count in decoded)

    def test_encoded_form_is_sorted(self):
        encoded = wire.encode_distribution(
            {3: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}
        )
        assert [entry[0] for entry in encoded] == [1, 2, 3]

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            {"1": "1/2"},
            [[1, "1/2"], [1, "1/3"]],   # duplicate count
            [["1", "1/2"]],             # string count
            [[1.0, "1/2"]],             # float count
            [[1]],
        ],
    )
    def test_malformed_distribution_raises(self, garbage):
        with pytest.raises(WireFormatError):
            wire.decode_distribution(garbage)


class TestAggregateDistributionRoundTrip:
    def test_hundreds_of_aggregate_distributions(self):
        rng = random.Random(RNG_SEED + 5)
        for _ in range(max(WIRE_CASES // 5, 50)):
            distribution = random_aggregate_distribution(rng)
            payload = json.loads(
                json.dumps(wire.encode_aggregate_distribution(distribution))
            )
            decoded = wire.decode_aggregate_distribution(payload)
            assert decoded == distribution
            # Canonical key types survive: integral values are ints,
            # non-integral exact Fractions, the no-match outcome None.
            for key in decoded:
                if isinstance(key, Fraction):
                    assert key.denominator != 1
                else:
                    assert key is None or isinstance(key, int)

    def test_count_distributions_share_the_wire_shape(self):
        """A pure count distribution encodes to exactly the
        encode_distribution payload — one wire shape for both codecs."""
        distribution = {0: Fraction(1, 3), 2: Fraction(2, 3)}
        assert wire.encode_aggregate_distribution(distribution) == \
            wire.encode_distribution(distribution)

    def test_canonical_order_none_first(self):
        encoded = wire.encode_aggregate_distribution(
            {Fraction(5, 2): Fraction(1, 4), None: Fraction(1, 4),
             1: Fraction(1, 2)}
        )
        assert [entry[0] for entry in encoded] == [None, 1, "5/2"]

    def test_integral_fraction_keys_normalize(self):
        encoded = wire.encode_aggregate_distribution(
            {Fraction(4, 2): Fraction(1, 2)}
        )
        assert encoded == [[2, "1/2"]]
        decoded = wire.decode_aggregate_distribution([["4/1", "1/2"]])
        assert decoded == {4: Fraction(1, 2)}
        assert all(isinstance(key, int) for key in decoded)

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            {"1": "1/2"},
            [[1, "1/2"], ["1/1", "1/3"]],  # duplicate value after normalize
            [[1.5, "1/2"]],                # float value
            [[True, "1/2"]],               # bool value
            [["x", "1/2"]],                # malformed fraction value
            [[None, 0.5]],                 # float probability
            [[1]],
        ],
    )
    def test_malformed_aggregate_distribution_raises(self, garbage):
        with pytest.raises(WireFormatError):
            wire.decode_aggregate_distribution(garbage)


def random_fused_answer(rng: random.Random):
    """A structurally honest FusedAnswer: built by actually fusing
    random per-document ranked answers, so scores, provenance and the
    normalized weights obey the fusion invariants."""
    documents = rng.sample(
        ["alpha", "beta", "gamma", "delta", "epsilon"], rng.randrange(1, 5)
    )
    answers = {}
    for name in documents:
        seen: set = set()
        items = []
        for _ in range(rng.randrange(0, 6)):
            value = random_value(rng)
            if not value or value in seen:
                continue
            seen.add(value)
            denominator = rng.randrange(2, 50)
            probability = Fraction(rng.randrange(1, denominator + 1), denominator)
            items.append(RankedItem(value, probability, rng.randrange(1, 4)))
        answers[name] = RankedAnswer(items)
    strategy = rng.choice(["prob", "rrf"])
    kwargs: dict = {"strategy": strategy}
    if rng.randrange(2):
        boosted = rng.sample(documents, rng.randrange(0, len(documents) + 1))
        kwargs["weights"] = {name: rng.randrange(1, 5) for name in boosted}
    if strategy == "rrf":
        kwargs["rrf_k"] = rng.choice([0, 7, 60, Fraction(121, 2)])
    return fuse_answers(answers, **kwargs)


class TestFusedAnswerRoundTrip:
    def test_hundreds_of_fused_answers(self):
        rng = random.Random(RNG_SEED + 7)
        for _ in range(max(WIRE_CASES // 5, 50)):
            fused = random_fused_answer(rng)
            payload = json.loads(json.dumps(wire.encode_fused_answer(fused)))
            decoded = wire.decode_fused_answer(payload)
            # Dataclass equality: strategy, exact scores, provenance
            # triples, membership order, normalized weights and k.
            assert decoded == fused
            assert decoded.values() == fused.values()
            for item in decoded.items:
                assert isinstance(item.score, Fraction)
                for source in item.sources:
                    assert isinstance(source.probability, Fraction)
                    assert isinstance(source.rank, int)

    def test_k_only_present_for_rrf(self):
        rng = random.Random(RNG_SEED + 8)
        answers = {"a": random_answer(rng)}
        prob = wire.encode_fused_answer(fuse_answers(answers))
        rrf = wire.encode_fused_answer(
            fuse_answers(answers, strategy="rrf", rrf_k=9)
        )
        assert "k" not in prob
        assert rrf["k"] == "9/1"

    @pytest.mark.parametrize(
        "garbage",
        [
            None,
            [],
            {},
            {"strategy": "borda", "documents": [], "weights": {}, "items": []},
            {"strategy": "prob", "weights": {}, "items": []},   # no documents
            {"strategy": "prob", "documents": "a", "weights": {}, "items": []},
            {"strategy": "prob", "documents": [1], "weights": {}, "items": []},
            {"strategy": "prob", "documents": [], "weights": [], "items": []},
            {"strategy": "prob", "documents": [],
             "weights": {"a": 0.5}, "items": []},               # float weight
            {"strategy": "prob", "documents": [], "weights": {}, "items": {}},
            {"strategy": "prob", "documents": [], "weights": {},
             "items": [{"value": "v", "score": "1/2"}]},        # no sources
            {"strategy": "prob", "documents": [], "weights": {},
             "items": [{"value": "v", "score": 0.5, "sources": []}]},
            {"strategy": "prob", "documents": [], "weights": {},
             "items": [{"value": "v", "score": "1/2",
                        "sources": [["a", 1]]}]},               # short triple
            {"strategy": "prob", "documents": [], "weights": {},
             "items": [{"value": "v", "score": "1/2",
                        "sources": [["a", True, "1/2"]]}]},     # bool rank
            {"strategy": "prob", "documents": [], "weights": {},
             "items": [{"value": "v", "score": "1/2",
                        "sources": [["a", 1, 0.5]]}]},          # float prob
        ],
    )
    def test_malformed_fused_answer_raises(self, garbage):
        with pytest.raises(WireFormatError):
            wire.decode_fused_answer(garbage)


def fused_payload(score="1/2", probability="1/2", weight="1/1"):
    """A one-document, two-item fused answer whose fraction strings
    repeat: the second item's ``score`` and ``probability`` slots take
    the given (possibly malformed) values."""
    return {
        "strategy": "prob",
        "documents": ["a"],
        "weights": {"a": weight},
        "items": [
            {"value": "x", "score": "1/2", "sources": [["a", 1, "1/2"]]},
            {"value": "y", "score": score, "sources": [["a", 2, probability]]},
        ],
    }


class TestRepeatedFractionStrings:
    """The answer and fused-answer decoders parse each distinct fraction
    string once per payload; every entry is still checked, and bad
    input raises exactly the message it always raised."""

    def test_repeated_strings_decode_to_equal_fractions(self):
        decoded = wire.decode_answer(
            [["a", "1/3", 1], ["b", "1/3", 2], ["c", "2/6", 1], ["d", "1/3", 1]]
        )
        assert [item.probability for item in decoded.items] == [Fraction(1, 3)] * 4
        assert [item.occurrences for item in decoded.items] == [1, 2, 1, 1]
        fused = wire.decode_fused_answer(fused_payload())
        assert [item.score for item in fused.items] == [Fraction(1, 2)] * 2
        assert [source.probability for item in fused.items for source in item.sources] == [
            Fraction(1, 2)
        ] * 2
        assert fused.weights == {"a": Fraction(1)}

    @pytest.mark.parametrize(
        "fraction, message",
        [
            ("1/2 ", "malformed fraction '1/2 '"),
            ("1/0", "malformed fraction '1/0': zero denominator"),
            (1, "fraction must be a string, got int"),
            (True, "fraction must be a string, got bool"),
            (["1/2"], "fraction must be a string, got list"),
        ],
    )
    def test_bad_fraction_after_a_good_one(self, fraction, message):
        payloads = [
            lambda: wire.decode_answer(
                [["a", "1/2", 1], ["b", "1/2", 1], ["c", fraction, 1]]
            ),
            lambda: wire.decode_fused_answer(fused_payload(score=fraction)),
            lambda: wire.decode_fused_answer(fused_payload(probability=fraction)),
            lambda: wire.decode_fused_answer(
                {**fused_payload(), "weights": {"a": "1/2", "b": fraction}}
            ),
            lambda: wire.decode_fused_answer({**fused_payload(), "k": fraction}),
        ]
        for decode in payloads:
            with pytest.raises(WireFormatError) as raised:
                decode()
            assert str(raised.value) == message

    def test_malformed_string_repeated(self):
        with pytest.raises(WireFormatError) as raised:
            wire.decode_answer([["a", "1/2", 1], ["b", "x", 1], ["c", "x", 1]])
        assert str(raised.value) == "malformed fraction 'x'"


class TestStructRoundTrip:
    def test_node_stats(self):
        rng = random.Random(RNG_SEED + 5)
        for _ in range(200):
            stats = NodeStats(
                probability_nodes=rng.randrange(10**6),
                possibility_nodes=rng.randrange(10**6),
                element_nodes=rng.randrange(10**6),
                text_nodes=rng.randrange(10**6),
                choice_points=rng.randrange(10**4),
                max_branching=rng.randrange(1, 100),
                world_count=rng.randrange(1, 10**12),
            )
            payload = json.loads(json.dumps(wire.encode_node_stats(stats)))
            assert payload["total"] == stats.total
            assert wire.decode_node_stats(payload) == stats

    def test_feedback_step(self):
        rng = random.Random(RNG_SEED + 6)
        for _ in range(200):
            step = FeedbackStep(
                kind=rng.choice(["confirm", "reject"]),
                expression="//person/tel",
                value=random_value(rng),
                prior=abs(random_fraction(rng)),
                nodes_before=rng.randrange(10**6),
                nodes_after=rng.randrange(10**6),
                worlds_before=rng.randrange(1, 10**9),
                worlds_after=rng.randrange(1, 10**9),
            )
            payload = json.loads(json.dumps(wire.encode_feedback_step(step)))
            assert wire.decode_feedback_step(payload) == step

    @pytest.mark.parametrize("codec", ["node_stats", "feedback_step"])
    def test_missing_fields_raise(self, codec):
        decode = getattr(wire, f"decode_{codec}")
        with pytest.raises(WireFormatError):
            decode({})
        with pytest.raises(WireFormatError):
            decode(None)


def test_sweep_is_not_degenerate():
    """The generators actually cover the interesting regions (guards the
    property tests against silently shrinking)."""
    rng = random.Random(RNG_SEED)
    fractions = [random_fraction(rng) for _ in range(1000)]
    assert any(value < 0 for value in fractions)
    assert any(value.denominator == 1 for value in fractions)
    assert any(value.denominator > 10**18 for value in fractions)
    assert any(math.gcd(value.numerator, value.denominator) == 1 and
               value.numerator > 10**18 for value in fractions)
    values = [random_value(rng) for _ in range(500)]
    assert any('"' in value or "\\" in value for value in values)
    assert any(any(ord(ch) > 0x2000 for ch in value) for value in values)
