"""Rank fusion: one answer for a query fanned across many documents.

IMPrECISE's premise is that a dataspace is queryable *as a whole* — yet a
:class:`~repro.query.ranking.RankedAnswer` describes one document.  This
module fuses the per-document answers of a fan-out (see
:meth:`repro.dbms.service.DataspaceService.query_all`) into a single
ranked result, under two pluggable strategies:

``prob`` — probability-weighted fusion
    Each document ``d`` carries a prior weight ``w_d`` (defaulting to a
    uniform prior, normalized to sum exactly 1 — the same convention as
    :attr:`repro.core.engine.IntegrationConfig.source_weights`).  The
    fused score of a value ``v`` is the exact probability that ``v``
    occurs in the answer of a document drawn from that prior::

        score(v) = Σ_d  w_d · P_d(v ∈ answer)

``rrf`` — reciprocal rank fusion
    The classic retrieval combinator, computed in exact rationals
    (never the floats of the usual implementations)::

        score(v) = Σ_d  w_d / (k + rank_d(v))

    where ``rank_d(v)`` is ``v``'s 1-based position in document ``d``'s
    ranked answer (most probable first, ties broken by value — the
    deterministic order :class:`RankedAnswer` pins) and ``k`` is the
    usual dampening constant (default :data:`DEFAULT_RRF_K` = 60).
    Values missing from a document contribute nothing.

Every score is an exact :class:`~fractions.Fraction` end to end; this
module is in ``impreciselint``'s float-taint scope, so no float can creep
into fusion arithmetic.  Fusion is deterministic and permutation
invariant: documents are processed in sorted-name order and fused items
sort by ``(-score, value)``, so the result does not depend on the order
the per-document answers arrived in.

Each fused item keeps its provenance — which documents contributed the
value, at what local rank, with what exact local probability — so a
fused result can always be traced back to its sources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from ..errors import QueryError
from ..probability import (
    ONE,
    ZERO,
    as_probability,
    exact_order_key,
    format_percent,
    normalize,
)
from ..pxml.events import weighted_sum
from .aggregates import AggregateDistribution
from .ranking import RankedAnswer

__all__ = [
    "DEFAULT_RRF_K",
    "FUSION_STRATEGIES",
    "DocumentContribution",
    "FusedItem",
    "FusedAnswer",
    "fusion_weights",
    "fuse_answers",
    "fuse_aggregates",
]

#: The pluggable fusion strategies :func:`fuse_answers` accepts.
FUSION_STRATEGIES = ("prob", "rrf")

#: Standard reciprocal-rank-fusion dampening constant (k in the formula
#: above); 60 is the value the retrieval literature settled on.
DEFAULT_RRF_K = 60

#: Weight values accepted by :func:`fusion_weights`: exact rationals
#: (``Fraction``, ``int``, or a string such as ``"2/3"``) pass through
#: exactly; floats are read decimally via
#: :func:`repro.probability.as_probability` and must lie in (0, 1].
WeightLike = Union[Fraction, int, str, float]


@dataclass(frozen=True)
class DocumentContribution:
    """One document's contribution to a fused value: where the value
    ranked locally (1-based) and its exact local probability."""

    document: str
    rank: int
    probability: Fraction

    def __str__(self) -> str:
        return f"{self.document}#{self.rank}"


@dataclass(frozen=True)
class FusedItem:
    """One fused answer value with its exact score and provenance
    (contributions sorted by document name)."""

    value: str
    score: Fraction
    sources: tuple[DocumentContribution, ...]


@dataclass
class FusedAnswer:
    """The fused result of a fan-out, highest score first.

    ``documents`` is the fan-out membership in the pinned sorted order
    ranks were computed under; ``weights`` the normalized per-document
    prior (sums to exactly 1); ``rrf_k`` the dampening constant used
    (``None`` unless the strategy is ``rrf``).

    ``omitted`` is the graceful-degradation marker: document names the
    fan-out selected but did not fuse because a deadline expired before
    they finished (``allow_partial`` mode — see
    :meth:`repro.dbms.service.DataspaceService.query_all`).  A partial
    answer is *explicitly* partial, never silently smaller: every fused
    item is still exact, and ``partial`` is how callers must check
    before treating the result as the whole dataspace's answer.
    """

    strategy: str
    items: list[FusedItem] = field(default_factory=list)
    documents: tuple[str, ...] = ()
    weights: dict[str, Fraction] = field(default_factory=dict)
    rrf_k: Optional[Fraction] = None
    omitted: tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        """Whether any selected document was cut off by the deadline."""
        return bool(self.omitted)

    def __iter__(self) -> Iterator[FusedItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def values(self) -> list[str]:
        """Fused answer values, best first."""
        return [item.value for item in self.items]

    def score_of(self, value: str) -> Fraction:
        """The fused score of ``value`` (0 when absent)."""
        for item in self.items:
            if item.value == value:
                return item.score
        return ZERO

    def sources_of(self, value: str) -> tuple[DocumentContribution, ...]:
        """Provenance of ``value`` (empty when absent)."""
        for item in self.items:
            if item.value == value:
                return item.sources
        return ()

    def top(self, count: int) -> list[FusedItem]:
        return self.items[:count]

    def as_table(self) -> str:
        """Display table: score, value, contributing ``document#rank``
        provenance.  ``prob`` scores are probabilities and render as the
        paper's percentages; ``rrf`` scores render as exact fractions."""
        if not self.items:
            if self.partial:
                return f"(empty answer; omitted: {', '.join(self.omitted)})"
            return "(empty answer)"
        lines = []
        for item in self.items:
            if self.strategy == "prob":
                score = format_percent(item.score)
            else:
                score = str(item.score)
            origin = ", ".join(str(source) for source in item.sources)
            lines.append(f"{score:>4} {item.value}  [{origin}]")
        if self.partial:
            lines.append(
                f"(partial: deadline omitted {', '.join(self.omitted)})"
            )
        return "\n".join(lines)


def _as_weight(value: WeightLike, document: str) -> Fraction:
    """Coerce one prior weight to a positive exact rational."""
    if isinstance(value, bool):
        raise QueryError(f"weight for {document!r} must be a number, not a bool")
    if isinstance(value, (int, Fraction)):
        weight = Fraction(value)
    elif isinstance(value, str):
        try:
            weight = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise QueryError(
                f"weight for {document!r} must be rational, got {value!r}"
            ) from None
    else:
        # Floats (and anything else numeric) go through the library's
        # one decimal-reading coercion; (0, 1] is enough for a prior.
        try:
            weight = as_probability(value, allow_zero=False)
        except Exception:
            raise QueryError(
                f"weight for {document!r} must be rational, got {value!r}"
            ) from None
    if weight <= 0:
        raise QueryError(
            f"weight for {document!r} must be positive, got {value!r}"
        )
    return weight


def fusion_weights(
    documents: Sequence[str],
    weights: Optional[Mapping[str, WeightLike]] = None,
) -> dict[str, Fraction]:
    """The normalized per-document prior for a fan-out.

    ``weights`` maps document names to relative weights (see
    :data:`WeightLike`); unnamed documents default to 1, so a sparse
    mapping boosts or dampens a few sources against a uniform rest.
    Naming a document outside the fan-out is an error (almost certainly
    a typo).  The result sums to exactly 1 — the same exact
    normalization :func:`repro.probability.normalize` gives integration
    source weights.

    >>> fusion_weights(["a", "b"], {"a": 3})
    {'a': Fraction(3, 4), 'b': Fraction(1, 4)}
    """
    names = list(documents)
    if not names:
        raise QueryError("cannot fuse over an empty document selection")
    if len(set(names)) != len(names):
        raise QueryError(f"duplicate documents in fan-out selection: {names!r}")
    raw: dict[str, Fraction] = {name: ONE for name in names}
    if weights is not None:
        unknown = sorted(set(weights) - set(names))
        if unknown:
            raise QueryError(
                f"weights name documents outside the fan-out: {unknown!r}"
            )
        for name, value in weights.items():
            raw[name] = _as_weight(value, name)
    normalized = normalize(raw[name] for name in names)
    return dict(zip(names, normalized))


def _as_rank_offset(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce the RRF ``k`` constant to a non-negative exact rational.

    Floats are rejected outright — ``k`` feeds exact score arithmetic,
    and ``"121/2"`` says what ``60.5`` only approximates."""
    if isinstance(value, bool):
        raise QueryError(f"rrf k must be a number, not {value!r}")
    if isinstance(value, (int, Fraction)):
        k = Fraction(value)
    elif isinstance(value, str):
        try:
            k = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise QueryError(f"rrf k must be rational, got {value!r}") from None
    else:
        raise QueryError(
            f"rrf k must be an int, Fraction or rational string, got {value!r}"
        )
    if k < 0:
        raise QueryError(f"rrf k must be >= 0, got {value!r}")
    return k


def fuse_answers(
    answers: Mapping[str, RankedAnswer],
    *,
    strategy: str = "prob",
    weights: Optional[Mapping[str, WeightLike]] = None,
    rrf_k: Union[int, str, Fraction] = DEFAULT_RRF_K,
) -> FusedAnswer:
    """Fuse per-document ranked answers into one :class:`FusedAnswer`.

    ``answers`` maps document names to their
    :class:`~repro.query.ranking.RankedAnswer` for one query; iteration
    order does not matter (documents are processed sorted by name).
    ``strategy`` is one of :data:`FUSION_STRATEGIES`; ``weights`` the
    optional per-document prior (see :func:`fusion_weights`); ``rrf_k``
    the dampening constant, used only by ``rrf``.

    >>> from repro.query.ranking import RankedAnswer, RankedItem
    >>> fused = fuse_answers({
    ...     "a": RankedAnswer([RankedItem("x", Fraction(1))]),
    ...     "b": RankedAnswer([RankedItem("x", Fraction(1, 2))]),
    ... })
    >>> fused.score_of("x")
    Fraction(3, 4)
    """
    if strategy not in FUSION_STRATEGIES:
        raise QueryError(
            f"unknown fusion strategy {strategy!r}"
            f" (expected one of {', '.join(FUSION_STRATEGIES)})"
        )
    names = sorted(answers)
    prior = fusion_weights(names, weights)
    k = _as_rank_offset(rrf_k) if strategy == "rrf" else None
    # rrf's gain at each local rank, 1 / (k + rank), made once per rank.
    reciprocals: list[Fraction] = []
    if k is not None:
        longest = max(len(answers[name].items) for name in names)
        for rank in range(1, longest + 1):
            depth = k + rank  # > 0: k >= 0 and ranks are 1-based
            reciprocals.append(Fraction(depth.denominator, depth.numerator))
    # Each value's (weight, gain) terms, priced once below by
    # weighted_sum: integer adds over a running common denominator and
    # one normalization per value.
    terms: dict[str, tuple[list[Fraction], list[Fraction]]] = {}
    sources: dict[str, list[DocumentContribution]] = {}
    for name in names:
        weight = prior[name]
        for rank, item in enumerate(answers[name].items, start=1):
            gain = item.probability if k is None else reciprocals[rank - 1]
            entry = terms.get(item.value)
            if entry is None:
                entry = terms[item.value] = ([], [])
                sources[item.value] = []
            entry[0].append(weight)
            entry[1].append(gain)
            sources[item.value].append(
                DocumentContribution(name, rank, item.probability)
            )
    items = [
        FusedItem(value, weighted_sum(*entry), tuple(sources[value]))
        for value, entry in terms.items()
    ]
    key = exact_order_key(item.score for item in items)
    items.sort(key=lambda item: (-key(item.score), item.value))
    return FusedAnswer(
        strategy=strategy,
        items=items,
        documents=tuple(names),
        weights=prior,
        rrf_k=k,
    )


def _aggregate_sort_key(
    entry: tuple[Optional[Union[int, Fraction]], Fraction]
) -> tuple[int, Fraction]:
    value = entry[0]
    return (0, ZERO) if value is None else (1, Fraction(value))


def fuse_aggregates(
    distributions: Mapping[str, AggregateDistribution],
    *,
    weights: Optional[Mapping[str, WeightLike]] = None,
) -> AggregateDistribution:
    """Fuse per-document aggregate distributions into their exact
    mixture under the per-document prior: ``P(v) = Σ_d w_d · P_d(v)``.

    This is the distribution of the aggregate over a document drawn
    from the prior — total mass exactly 1 when every input sums to 1.
    Keys are returned in pinned order (the no-match ``None`` outcome
    first, then ascending values).

    >>> fuse_aggregates({"a": {2: Fraction(1)}, "b": {3: Fraction(1)}})
    {2: Fraction(1, 2), 3: Fraction(1, 2)}
    """
    names = sorted(distributions)
    prior = fusion_weights(names, weights)
    mixture: AggregateDistribution = {}
    for name in names:
        weight = prior[name]
        for value, probability in distributions[name].items():
            mixture[value] = mixture.get(value, ZERO) + weight * probability
    return dict(sorted(mixture.items(), key=_aggregate_sort_key))
