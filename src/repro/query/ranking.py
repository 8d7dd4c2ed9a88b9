"""Amalgamated ranked answers.

A probabilistic query returns, for each distinct answer *value*, the exact
probability that the value occurs in the answer of a randomly drawn world.
The paper displays these as percentage-ranked lists::

    100% Die Hard: With a Vengeance
     96% Mission: Impossible II
     21% Mission: Impossible
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..probability import (
    ProbLike,
    as_probability,
    exact_order_key,
    format_percent,
)


@dataclass(frozen=True)
class RankedItem:
    """One answer value with its probability of appearing in the answer."""

    value: str
    probability: Fraction
    occurrences: int = 1  # distinct tree occurrences contributing the value

    def __str__(self) -> str:
        return f"{format_percent(self.probability):>4} {self.value}"


@dataclass
class RankedAnswer:
    """All answer values, most probable first (ties broken by value)."""

    items: list[RankedItem] = field(default_factory=list)

    def __post_init__(self):
        key = exact_order_key(item.probability for item in self.items)
        self.items.sort(key=lambda item: (-key(item.probability), item.value))

    def __iter__(self) -> Iterator[RankedItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def values(self) -> list[str]:
        return [item.value for item in self.items]

    def probability_of(self, value: str) -> Fraction:
        for item in self.items:
            if item.value == value:
                return item.probability
        return Fraction(0)

    def top(self, count: int) -> list[RankedItem]:
        return self.items[:count]

    def above(self, threshold: ProbLike) -> list[RankedItem]:
        """Items with probability ≥ threshold (crisp answer extraction).

        The threshold is coerced through
        :func:`repro.probability.as_probability`, so a float ``0.3``
        means the decimal 3/10 — the reading the rest of the library
        gives float probabilities — never the binary float it parses to.
        """
        limit = as_probability(threshold)
        return [item for item in self.items if item.probability >= limit]

    def as_table(self) -> str:
        """The paper's display format (§VI)."""
        if not self.items:
            return "(empty answer)"
        return "\n".join(str(item) for item in self.items)


def ranked_from_probabilities(
    contributions: Mapping[str, tuple[object, int]],
    probabilities: Sequence[Fraction],
) -> RankedAnswer:
    """Build a ranked answer from an answer-event map and its already
    computed probabilities (aligned with the map's iteration order).

    The single place where answer items are materialized — the
    zero-probability drop (a value priced at 0 occurs in no world and is
    not an answer) lives here so single-query and batch paths cannot
    diverge."""
    items = [
        RankedItem(value, probability, contributions[value][1])
        for value, probability in zip(contributions, probabilities)
        if probability > 0
    ]
    return RankedAnswer(items)


def ranked_from_events(
    contributions: Mapping[str, tuple[object, int]],
    probabilities_of: Callable[[Sequence[object]], Sequence[Fraction]],
) -> RankedAnswer:
    """Build a ranked answer from an answer-event map.

    ``contributions`` maps each answer value to ``(event, occurrences)``
    (the shape of ``ProbQueryEngine.answer_events``); ``probabilities_of``
    prices all events in one bulk call — engines pass their document's
    shared :class:`~repro.pxml.events_cache.EventProbabilityCache` here so
    ranking rides the same digest-keyed memo as every other consumer of
    the hash-consed event algebra."""
    events = [event for event, _ in contributions.values()]
    return ranked_from_probabilities(contributions, probabilities_of(events))


def merge_ranked(items: Iterable[RankedItem]) -> RankedAnswer:
    """Merge items sharing a value by summing probabilities (used by the
    enumeration backend, where each world contributes its own items)."""
    merged: dict[str, tuple[Fraction, int]] = {}
    for item in items:
        probability, occurrences = merged.get(item.value, (Fraction(0), 0))
        merged[item.value] = (
            probability + item.probability,
            occurrences + item.occurrences,
        )
    return RankedAnswer(
        [
            RankedItem(value, probability, occurrences)
            for value, (probability, occurrences) in merged.items()
        ]
    )
