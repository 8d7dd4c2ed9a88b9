"""Probabilistic querying (§VI): ranked, amalgamated answers.

"In theory, the semantics of a query is the set of possible answers
obtained by evaluating the query in each of the possible worlds
separately.  […] we can construct an amalgamated answer by merging and
ranking the elements of all possible answers."

Two implementations with identical semantics (cross-checked by tests):

* :func:`query_enumeration` — the definition, literally: evaluate the
  XPath in every world, merge answer values, sum world probabilities;
* :class:`ProbQueryEngine` — compute exact probabilities without
  enumerating worlds: in one bottom-up pass over the tree for anchored
  plans (:mod:`repro.query.treepass`), otherwise by compiling the query
  over the probabilistic tree into event expressions and pricing them.

The hot path is amortized twice: queries compile once into reusable
:class:`QueryPlan` objects (:func:`compile_plan`), and all probability
computation rides the per-document memo of
:mod:`repro.pxml.events_cache`.  :class:`QueryEngine` adds the batch API
(``run_batch``): ``run`` once per query, sharing the document's cache.
"""

from .ranking import RankedAnswer, RankedItem, ranked_from_events
from .plan import QueryPlan, compile_plan
from .engine import ProbQueryEngine, QueryEngine, query_enumeration
from .quality import AnswerQuality, answer_quality, precision_recall_at
from .aggregates import (
    AggregateSpec,
    aggregate_distribution,
    aggregate_distribution_enumerated,
    compile_aggregate,
    count_distribution,
    count_distribution_enumerated,
    count_quantile,
    exists_probability,
    expected_count,
    expected_value,
    max_distribution,
    min_distribution,
    sum_distribution,
)
from .approximate import ApproximateAnswer, ApproximateItem, approximate_query
from .fusion import (
    DEFAULT_RRF_K,
    FUSION_STRATEGIES,
    DocumentContribution,
    FusedAnswer,
    FusedItem,
    fuse_aggregates,
    fuse_answers,
    fusion_weights,
)

__all__ = [
    "RankedItem",
    "RankedAnswer",
    "ranked_from_events",
    "QueryPlan",
    "compile_plan",
    "ProbQueryEngine",
    "QueryEngine",
    "query_enumeration",
    "AnswerQuality",
    "answer_quality",
    "precision_recall_at",
    "AggregateSpec",
    "aggregate_distribution",
    "aggregate_distribution_enumerated",
    "compile_aggregate",
    "count_distribution",
    "count_distribution_enumerated",
    "exists_probability",
    "expected_count",
    "expected_value",
    "max_distribution",
    "min_distribution",
    "sum_distribution",
    "count_quantile",
    "ApproximateItem",
    "ApproximateAnswer",
    "approximate_query",
    "DEFAULT_RRF_K",
    "FUSION_STRATEGIES",
    "DocumentContribution",
    "FusedItem",
    "FusedAnswer",
    "fusion_weights",
    "fuse_answers",
    "fuse_aggregates",
]
