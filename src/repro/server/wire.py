"""Exact-Fraction JSON wire format for the HTTP dataspace front.

Probabilities in this repository are exact :class:`~fractions.Fraction`
values, and the whole serving stack's contract is *bit-identical*
answers no matter which layer served them (engine, persistent cache,
network).  JSON has no rational type and its numbers decay to floats, so
every probability crosses the wire as the ``"numerator/denominator"``
string the persistent :class:`~repro.dbms.cache_store.AnswerCacheStore`
already uses — this module reuses that encoding (one code path, one
on-disk/on-wire format) and layers the remaining payload shapes on top:

* ranked answers — ``[[value, "num/den", occurrences], ...]``
  (:func:`encode_answer` / :func:`decode_answer`, re-exported from the
  cache store);
* aggregate count distributions — ``[[count, "num/den"], ...]`` sorted
  by count (:func:`encode_distribution` / :func:`decode_distribution`);
* general aggregate distributions (``sum``/``min``/``max``/``exists``
  values: ints, exact Fractions, or the ``None`` no-match outcome) —
  :func:`encode_aggregate_distribution` /
  :func:`decode_aggregate_distribution`, re-exported from the cache
  store (the persisted rows and the wire share one codec);
* fused fan-out answers (``POST /search``) with per-document
  provenance — each fused item carries ``[document, local rank, local
  probability as "num/den"]`` source triples —
  :func:`encode_fused_answer` / :func:`decode_fused_answer`;
* node statistics, feedback steps and integration reports
  (:func:`encode_node_stats`, :func:`encode_feedback_step`,
  :func:`decode_feedback_step`, :func:`encode_report`).

Decoders are **strict**: they validate shapes and types and raise
:class:`~repro.errors.WireFormatError` on anything off-contract, because
they face network input.  Every decoder is the exact inverse of its
encoder — ``decode(encode(x)) == x`` including Fraction exactness — and
``tests/test_wire.py`` checks that property over thousands of seeded
random payloads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ..core.engine import IntegrationReport
from ..dbms.cache_store import (
    decode_aggregate_distribution,
    decode_answer,
    decode_fraction,
    encode_aggregate_distribution,
    encode_answer,
    encode_fraction,
    fraction_decoder,
)
from ..errors import WireFormatError
from ..feedback.conditioning import FeedbackStep
from ..pxml.stats import NodeStats
from ..query.aggregates import AggregateDistribution
from ..query.fusion import (
    FUSION_STRATEGIES,
    DocumentContribution,
    FusedAnswer,
    FusedItem,
)

__all__ = [
    "WIRE_VERSION",
    "encode_fraction",
    "decode_fraction",
    "encode_answer",
    "decode_answer",
    "encode_distribution",
    "decode_distribution",
    "encode_aggregate_distribution",
    "decode_aggregate_distribution",
    "encode_fused_answer",
    "decode_fused_answer",
    "encode_node_stats",
    "decode_node_stats",
    "encode_feedback_step",
    "decode_feedback_step",
    "encode_report",
]

#: Version of the payload shapes this module layers on top of the
#: cache-store codecs (those are fenced by ``SCHEMA_VERSION``).  Bump on
#: any field addition/removal in the encoders below, and refresh the
#: surface pin — ``impreciselint`` blocks codec edits until both happen
#: together (see docs/development.md).
WIRE_VERSION = 3  # impreciselint: schema-surface=b50b41c9f584


def _require_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise WireFormatError(f"{what} must be a string, got {value!r}")
    return value


def encode_fused_answer(fused: FusedAnswer) -> dict[str, object]:
    """Wire form of a :class:`~repro.query.fusion.FusedAnswer` (the
    ``POST /search`` result): the strategy, the fan-out membership in
    pinned order, the normalized per-document prior, the ``rrf`` ``k``
    constant when the strategy used one, and the fused items — each with
    its exact ``"num/den"`` score and its provenance as ``[document,
    rank, "num/den"]`` source triples (local rank 1-based, local
    probability exact).  A partial answer (deadline expired under
    ``allow_partial``) additionally carries ``omitted`` — the selected
    document names that did not finish — so partiality survives the
    wire explicitly; the field is absent on complete answers."""
    payload: dict[str, object] = {
        "strategy": fused.strategy,
        "documents": list(fused.documents),
        "weights": {
            name: encode_fraction(weight)
            for name, weight in fused.weights.items()
        },
        "items": [
            {
                "value": item.value,
                "score": encode_fraction(item.score),
                "sources": [
                    [
                        source.document,
                        source.rank,
                        encode_fraction(source.probability),
                    ]
                    for source in item.sources
                ],
            }
            for item in fused.items
        ],
    }
    if fused.rrf_k is not None:
        payload["k"] = encode_fraction(fused.rrf_k)
    if fused.omitted:
        payload["omitted"] = list(fused.omitted)
    return payload


def decode_fused_answer(payload: object) -> FusedAnswer:
    """Inverse of :func:`encode_fused_answer`; strict.  Each distinct
    fraction string is parsed once (the sources repeat each document's
    local probabilities; see
    :func:`~repro.dbms.cache_store.fraction_decoder`)."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"fused answer must be an object, got {type(payload).__name__}"
        )
    fraction_of = fraction_decoder()
    try:
        strategy = _require_str(payload["strategy"], "strategy")
        if strategy not in FUSION_STRATEGIES:
            raise WireFormatError(f"unknown fusion strategy {strategy!r}")
        raw_documents = payload["documents"]
        raw_weights = payload["weights"]
        raw_items = payload["items"]
    except KeyError as missing:
        raise WireFormatError(f"fused answer missing field {missing}") from None
    if not isinstance(raw_documents, list):
        raise WireFormatError(f"documents must be a list, got {raw_documents!r}")
    documents = tuple(
        _require_str(name, "document name") for name in raw_documents
    )
    if not isinstance(raw_weights, dict):
        raise WireFormatError(f"weights must be an object, got {raw_weights!r}")
    weights = {
        _require_str(name, "weight name"): fraction_of(weight)
        for name, weight in raw_weights.items()
    }
    if not isinstance(raw_items, list):
        raise WireFormatError(f"items must be a list, got {raw_items!r}")
    items = []
    for entry in raw_items:
        if not isinstance(entry, dict):
            raise WireFormatError(f"malformed fused item {entry!r}")
        try:
            value = _require_str(entry["value"], "value")
            score = fraction_of(entry["score"])
            raw_sources = entry["sources"]
        except KeyError as missing:
            raise WireFormatError(
                f"fused item missing field {missing}"
            ) from None
        if not isinstance(raw_sources, list):
            raise WireFormatError(f"sources must be a list, got {raw_sources!r}")
        sources = []
        for triple in raw_sources:
            if not isinstance(triple, list) or len(triple) != 3:
                raise WireFormatError(
                    f"source must be [document, rank, probability],"
                    f" got {triple!r}"
                )
            sources.append(
                DocumentContribution(
                    document=_require_str(triple[0], "source document"),
                    rank=_require_int(triple[1], "source rank"),
                    probability=fraction_of(triple[2]),
                )
            )
        items.append(FusedItem(value, score, tuple(sources)))
    rrf_k = fraction_of(payload["k"]) if "k" in payload else None
    omitted: tuple[str, ...] = ()
    if "omitted" in payload:
        raw_omitted = payload["omitted"]
        if not isinstance(raw_omitted, list):
            raise WireFormatError(
                f"omitted must be a list, got {raw_omitted!r}"
            )
        omitted = tuple(
            _require_str(name, "omitted document") for name in raw_omitted
        )
    return FusedAnswer(
        strategy=strategy,
        items=items,
        documents=documents,
        weights=weights,
        rrf_k=rrf_k,
        omitted=omitted,
    )


def encode_distribution(
    distribution: Mapping[int, Fraction],
) -> list[list[object]]:
    """Wire form of an aggregate count distribution
    (:data:`repro.query.aggregates.CountDistribution`): ``[[count,
    "num/den"], ...]`` sorted by count.

    A list of pairs rather than a JSON object — object keys are strings,
    and round-tripping ``{2: p}`` through ``{"2": p}`` is exactly the
    silent type decay this format exists to prevent.  The count subset
    of :func:`encode_aggregate_distribution` (integer values encode
    identically), kept as the typed entry point for count payloads."""
    general: AggregateDistribution = {
        count: probability for count, probability in distribution.items()
    }
    return encode_aggregate_distribution(general)


def decode_distribution(payload: object) -> dict[int, Fraction]:
    """Inverse of :func:`encode_distribution`; strict — the general
    aggregate decode plus an integers-only check (a count distribution
    has no ``None`` outcome and no fractional values)."""
    distribution = decode_aggregate_distribution(payload)
    counts: dict[int, Fraction] = {}
    for count, probability in distribution.items():
        if not isinstance(count, int):
            raise WireFormatError(
                f"distribution count must be an integer, got {count!r}"
            )
        counts[count] = probability
    return counts


_NODE_STATS_FIELDS = (
    "probability_nodes",
    "possibility_nodes",
    "element_nodes",
    "text_nodes",
    "choice_points",
    "max_branching",
    "world_count",
)


def encode_node_stats(stats: NodeStats) -> dict[str, int]:
    """Wire form of a :class:`~repro.pxml.stats.NodeStats` census (all
    counters plus the derived ``total``)."""
    payload: dict[str, int] = {
        field: getattr(stats, field) for field in _NODE_STATS_FIELDS
    }
    payload["total"] = stats.total
    return payload


def decode_node_stats(payload: object) -> NodeStats:
    """Inverse of :func:`encode_node_stats` (``total`` is re-derived)."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"node stats must be an object, got {type(payload).__name__}"
        )
    try:
        fields = {
            field: _require_int(payload[field], field)
            for field in _NODE_STATS_FIELDS
        }
    except KeyError as missing:
        raise WireFormatError(f"node stats missing field {missing}") from None
    return NodeStats(**fields)


def encode_feedback_step(step: FeedbackStep) -> dict[str, object]:
    """Wire form of a :class:`~repro.feedback.conditioning.FeedbackStep`
    (the prior stays an exact Fraction)."""
    return {
        "kind": step.kind,
        "expression": step.expression,
        "value": step.value,
        "prior": encode_fraction(step.prior),
        "nodes_before": step.nodes_before,
        "nodes_after": step.nodes_after,
        "worlds_before": step.worlds_before,
        "worlds_after": step.worlds_after,
    }


def decode_feedback_step(payload: object) -> FeedbackStep:
    """Inverse of :func:`encode_feedback_step`; strict."""
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"feedback step must be an object, got {type(payload).__name__}"
        )
    try:
        kind = payload["kind"]
        expression = payload["expression"]
        value = payload["value"]
        if not all(isinstance(text, str) for text in (kind, expression, value)):
            raise WireFormatError(f"malformed feedback step {payload!r}")
        return FeedbackStep(
            kind=kind,
            expression=expression,
            value=value,
            prior=decode_fraction(payload["prior"]),
            nodes_before=_require_int(payload["nodes_before"], "nodes_before"),
            nodes_after=_require_int(payload["nodes_after"], "nodes_after"),
            worlds_before=_require_int(payload["worlds_before"], "worlds_before"),
            worlds_after=_require_int(payload["worlds_after"], "worlds_after"),
        )
    except KeyError as missing:
        raise WireFormatError(f"feedback step missing field {missing}") from None


def encode_report(report: IntegrationReport) -> dict[str, object]:
    """Wire form of an :class:`~repro.core.engine.IntegrationReport`:
    the integer counters, the rule-firing histogram, and the rendered
    summary line (clients that only display the report never need to
    reassemble it)."""
    return {
        "pairs_judged": report.pairs_judged,
        "certain_matches": report.certain_matches,
        "certain_non_matches": report.certain_non_matches,
        "undecided_pairs": report.undecided_pairs,
        "ambiguous_matches": report.ambiguous_matches,
        "components": report.components,
        "choice_points": report.choice_points,
        "largest_choice": report.largest_choice,
        "value_conflicts": report.value_conflicts,
        "attribute_conflicts": report.attribute_conflicts,
        "dtd_fallbacks": report.dtd_fallbacks,
        "rule_firings": dict(report.rule_firings),
        "total_nodes": report.total_nodes,
        "world_count": report.world_count,
        "summary": report.summary(),
    }
