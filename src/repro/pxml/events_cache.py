"""Memoized event-probability computation, shared per document.

The query engine prices every answer as the probability of an
OR-of-occurrences event (:func:`repro.pxml.events.event_probability`).
Distinct queries over one document keep re-deriving the same sub-events —
the same persons, the same choice points, the same guarded conjunctions —
so recomputing each query from scratch throws away almost all of the
kernel's work.  This module provides the shared memo table that
amortizes it:

* :class:`EventProbabilityCache` — a keyed memo over ``event_probability``.
  Keys are the events' *interned canonical digests*
  (:attr:`repro.pxml.events.Event.digest` — computed once at
  construction; hash-consing makes structurally equal events built by
  different queries carry the same digest), so a lookup is one bytes
  hash, not a canonical-form serialization.  The memo is threaded
  straight into the kernel, which means every **sub**-event decomposed or
  conditioned along the way lands in the table too; a later query whose
  events overlap resolves from the cache without expanding at all.
  Digest keys also outlive the event objects themselves: an event can be
  garbage-collected and rebuilt later, and it still hits.
* a bounded memo with **LRU** eviction: the table holds at most
  ``max_entries`` probabilities (default :data:`DEFAULT_MAX_ENTRIES`);
  beyond that the least-recently-*used* entries are evicted and the
  ``evictions`` counter advances.  Every :meth:`~EventProbabilityCache.
  probability` hit refreshes its row's recency, and the freshly-priced
  root of a miss is always the youngest row — so a hot working set
  survives a bound equal to its size, and the event a caller just asked
  for can never be evicted by its own sub-expansion.  The bound is
  enforced *between* evaluations, so a single expansion may briefly
  overshoot; correctness never depends on residency — an evicted entry
  is simply re-expanded.
* compiled top-down pricing: a miss is compiled into a
  component-factored plan (:func:`repro.pxml.events_compile.
  compile_event`) and priced by :func:`~repro.pxml.events_compile.
  compiled_probability` over the same digest-keyed memo, with literal
  and small-conjunction rows resolved through the **cross-document**
  :class:`~repro.pxml.events_compile.LiteralProbabilityTable` (the
  process-shared table by default), so pricing one plan across a
  dataspace of N documents reuses rows instead of re-deriving them.
  The bottom-up kernel (``use_cache=False`` engines, or calling
  :func:`~repro.pxml.events.event_probability` directly) remains the
  differential reference; the two are Fraction-identical.
* :meth:`EventProbabilityCache.probabilities_of` — the bulk entry point
  for a query's answer events (a batch is one query after another over
  this same memo).  Events are processed smallest-variable-set first so
  shared sub-events are expanded exactly once and every larger event's
  expansion terminates at already-cached frontiers.
* a per-document registry (:func:`cache_for`) so independent engines,
  aggregates and rankers over the same :class:`~repro.pxml.model.PXDocument`
  share one table, and
* :func:`invalidate` — the invalidation hook.

**Invalidation rules.** Cache entries are keyed by choice-variable uids
(and, for answer/aggregate side tables, the document's root uid) and
fold in the possibility probabilities at expansion time, so they are
valid exactly as long as the document's probability nodes keep their
possibility lists and probabilities.  The library's document
transformations — :func:`repro.pxml.simplify.simplify`, feedback
conditioning (:func:`repro.feedback.conditioning.condition_on_event`),
incremental re-integration — are *functional*: they copy with fresh
uids and return fresh documents whose caches start empty, so the input
document's cache stays valid and nothing needs invalidating; a
superseded document's cache is reclaimed with the document itself (the
registry holds it weakly).  :func:`invalidate` is the hook for the one
case the library cannot see: code that mutates a document's probability
nodes *in place* (appending possibilities, editing probs) after
querying it must call it, or stale probabilities will be served.  Plain
queries never mutate and never invalidate.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Any, Optional, Sequence

from .events import Event, FALSE_EVENT, TRUE_EVENT
from .events_compile import (
    LiteralProbabilityTable,
    compile_event,
    compiled_probability,
    shared_literal_table,
)
from .model import PXDocument

#: A compiled plan/spec fingerprint (see ``QueryPlan.fingerprint``).
_Fingerprint = tuple[object, ...]
#: value -> (answer event, occurrence count) — ``answer_events`` shape.
_AnswerEvents = dict[str, tuple[Event, int]]
#: value -> (exact probability, occurrence count) — a priced answer.
_PricedAnswer = dict[str, tuple[Fraction, int]]
#: outcome -> probability (aggregate distributions; outcomes are ints,
#: Fractions or the ``None`` no-match value).
_Distribution = dict[object, Fraction]

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "EventProbabilityCache",
    "LiteralProbabilityTable",
    "cache_for",
    "invalidate",
    "registered_count",
    "shared_literal_table",
]

#: Default bound on memoized event probabilities per cache.  An entry is
#: a 16-byte digest plus a Fraction — the default keeps a busy document's
#: table in the tens of megabytes.  Pass ``max_entries=None`` for the
#: pre-PR-4 unbounded behaviour.
DEFAULT_MAX_ENTRIES = 250_000


class EventProbabilityCache:
    """A keyed memo table over :func:`event_probability`.

    One instance serves one probabilistic document (or one lifetime of
    it — see the invalidation rules in the module docstring).  The table
    is also the batch evaluator: :meth:`probabilities_of` orders a batch
    so shared sub-events are factored out and computed once.  The memo is
    bounded by ``max_entries`` (least-recently-used eviction, counted in
    ``evictions``); the answer/aggregate side tables are not — they hold
    one entry per distinct (plan, document) pair, which workloads bound
    naturally.  ``literal_table`` is the cross-document row store misses
    price through (defaults to the process-shared
    :func:`~repro.pxml.events_compile.shared_literal_table`; pass an
    explicit :class:`~repro.pxml.events_compile.LiteralProbabilityTable`
    to isolate or to share a custom one).

    >>> from repro.pxml.build import certain_document
    >>> from repro.xmlkit.parser import parse_document
    >>> doc = certain_document(parse_document("<r><a/></r>"))
    >>> cache = cache_for(doc)
    >>> cache is cache_for(doc)  # one shared table per document
    True
    """

    __slots__ = (
        "_memo",
        "_answers",
        "_aggregates",
        "hits",
        "misses",
        "evictions",
        "max_entries",
        "literal_table",
    )

    def __init__(
        self,
        *,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        literal_table: Optional[LiteralProbabilityTable] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        #: canonical digest -> exact probability; shared with (and
        #: populated by) the kernel itself.
        self._memo: dict[bytes, Fraction] = {}
        #: (root uid, plan fingerprint) -> answer-event map, and
        #: (root uid, ("priced", plan fingerprint)) -> priced answer.
        self._answers: dict[
            tuple[int, _Fingerprint], dict[str, tuple[Any, int]]
        ] = {}
        #: auxiliary memo for aggregate distributions (see aggregates.py).
        self._aggregates: dict[tuple[int, _Fingerprint], _Distribution] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_entries = max_entries
        #: The cross-document literal/product row store (see the module
        #: docstring); plain attribute, reassignable by owners that
        #: thread their own table through (the dataspace service does).
        self.literal_table: LiteralProbabilityTable = (
            literal_table if literal_table is not None
            else shared_literal_table()
        )

    # -- probabilities ------------------------------------------------------

    def probability(self, event: Event) -> Fraction:
        """Exact probability of ``event``, memoized on its digest.

        Hits refresh the row's recency (the memo evicts least-recently-
        used); misses compile the event top-down
        (:func:`~repro.pxml.events_compile.compile_event`) and price the
        factored plan through the shared memo and the cross-document
        ``literal_table``.  The freshly-priced row is moved to the young
        end before the bound is enforced, so the event a caller just
        asked for always survives its own enforcement pass — even at
        ``max_entries=1``.
        """
        if event is TRUE_EVENT:
            return Fraction(1)
        if event is FALSE_EVENT:
            return Fraction(0)
        memo = self._memo
        digest = event.digest
        cached = memo.get(digest)
        if cached is not None:
            self.hits += 1
            # LRU, not FIFO: a hit re-inserts the row at the young end
            # (``move_to_end`` semantics on a plain dict), so eviction —
            # which walks insertion order — takes the coldest row, not
            # the earliest-seeded shared sub-event.
            del memo[digest]
            memo[digest] = cached
            return cached
        self.misses += 1
        result = compiled_probability(
            compile_event(event), memo=memo, table=self.literal_table
        )
        # Guarantee the queried row is the youngest before enforcement:
        # eviction removes ``len - max_entries`` rows from the old end,
        # which can never reach the last row while the bound is >= 1.
        if digest in memo:
            del memo[digest]
        memo[digest] = result
        self._enforce_bound()
        return result

    def probabilities_of(self, events: Sequence[Event]) -> list[Fraction]:
        """Bulk probabilities, aligned with ``events``.

        The batch is expanded smallest-variable-set first: small events
        are typically the shared sub-events of larger ones (an occurrence
        conjunction is a sub-event of every OR it participates in), so
        seeding the memo with them lets every later expansion terminate
        at an already-priced frontier instead of re-deriving it.
        """
        order = sorted(
            range(len(events)),
            key=lambda i: len(events[i].vars),
        )
        # Placeholder value only: ``order`` covers every index.
        results: list[Fraction] = [Fraction(0)] * len(events)
        for i in order:
            results[i] = self.probability(events[i])
        return results

    def _enforce_bound(self) -> None:
        """Evict least-recently-used memo entries beyond ``max_entries``
        (hits re-insert at the young end, so insertion order *is*
        recency order).  Called between evaluations only, so an
        in-flight expansion always sees every sub-result it just
        computed, and always after the just-queried row is moved to the
        young end, so it survives its own enforcement pass."""
        cap = self.max_entries
        if cap is None:
            return
        memo = self._memo
        excess = len(memo) - cap
        if excess <= 0:
            return
        iterator = iter(memo)
        for digest in [next(iterator) for _ in range(excess)]:
            del memo[digest]
        self.evictions += excess

    # -- side tables --------------------------------------------------------

    # Unlike the event memo (safe across documents: literal digests fold
    # in globally-unique choice uids), answer maps and aggregates are
    # keyed by *query* structure, which is document-independent — so
    # their keys are qualified with the document's root uid (also
    # globally unique, never reused, unlike ``id()``).  A cache instance
    # explicitly shared across documents then keeps each document's
    # answers separate.

    @staticmethod
    def _doc_key(document: PXDocument) -> int:
        uid: int = document.root.uid
        return uid

    def answer_events(
        self, document: PXDocument, fingerprint: _Fingerprint
    ) -> Optional[dict[str, tuple[Event, int]]]:
        """Cached answer-event map of ``document`` for a compiled plan."""
        return self._answers.get((self._doc_key(document), fingerprint))

    def store_answer_events(
        self,
        document: PXDocument,
        fingerprint: _Fingerprint,
        events: dict[str, tuple[Event, int]],
    ) -> None:
        self._answers[(self._doc_key(document), fingerprint)] = events

    @classmethod
    def _priced_key(
        cls, document: PXDocument, fingerprint: _Fingerprint
    ) -> tuple[int, _Fingerprint]:
        return (cls._doc_key(document), ("priced", fingerprint))

    def priced_answer(
        self, document: PXDocument, fingerprint: _Fingerprint
    ) -> Optional[_PricedAnswer]:
        """Cached priced answer of ``document`` for a compiled plan (the
        tree pass's memo, :mod:`repro.query.treepass`)."""
        return self._answers.get(self._priced_key(document, fingerprint))

    def store_priced_answer(
        self,
        document: PXDocument,
        fingerprint: _Fingerprint,
        answer: _PricedAnswer,
    ) -> None:
        self._answers[self._priced_key(document, fingerprint)] = answer

    def aggregate(
        self, document: PXDocument, key: _Fingerprint
    ) -> Optional[dict[object, Fraction]]:
        """Cached aggregate distribution (e.g. a count distribution)."""
        return self._aggregates.get((self._doc_key(document), key))

    def store_aggregate(
        self,
        document: PXDocument,
        key: _Fingerprint,
        distribution: dict[object, Fraction],
    ) -> None:
        self._aggregates[(self._doc_key(document), key)] = distribution

    # -- maintenance --------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (memo, answer maps, aggregates)."""
        self._memo.clear()
        self._answers.clear()
        self._aggregates.clear()

    def __len__(self) -> int:
        return len(self._memo)

    def stats(self) -> dict[str, int]:
        """Counters for benchmarks and diagnostics."""
        return {
            "entries": len(self._memo),
            "answers": len(self._answers),
            "aggregates": len(self._aggregates),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"EventProbabilityCache(entries={len(self._memo)},"
            f" hits={self.hits}, misses={self.misses},"
            f" evictions={self.evictions})"
        )


#: document -> its shared cache; weak keys so caches die with documents.
_REGISTRY: "weakref.WeakKeyDictionary[PXDocument, EventProbabilityCache]" = (
    weakref.WeakKeyDictionary()
)


def cache_for(document: PXDocument) -> EventProbabilityCache:
    """The shared :class:`EventProbabilityCache` of ``document``
    (created on first use)."""
    cache = _REGISTRY.get(document)
    if cache is None:
        cache = EventProbabilityCache()
        _REGISTRY[document] = cache
    return cache


def registered_count() -> int:
    """Number of live documents with a registered cache (diagnostics).

    The registry holds documents weakly, so this shrinks as documents are
    collected — e.g. after :class:`~repro.dbms.store.DocumentStore` LRU
    eviction drops the last reference to a materialized document, its
    event cache leaves the registry with it.
    """
    return len(_REGISTRY)


def invalidate(document: PXDocument) -> None:
    """Drop ``document``'s cached probabilities.

    Required after mutating the document's probability nodes in place
    (the library's own transformations are functional and never need
    it — see the module docstring).  Clears the cache object (so engines
    already holding it recompute) and unregisters it, and drops the
    document's literal rows from the cross-document tables — the
    cache's own ``literal_table`` and the process-shared one — so no
    other document's pricing is ever served a stale Fraction through a
    shared row.  (Product rows are value-keyed pure arithmetic and
    survive; a changed input simply produces a different key.)  Safe to
    call when the document has no cache yet: the shared table is still
    swept.
    """
    cache = _REGISTRY.pop(document, None)
    tables = [shared_literal_table()]
    if cache is not None:
        cache.clear()
        if cache.literal_table is not tables[0]:
            tables.append(cache.literal_table)
    for table in tables:
        table.invalidate_document(document)
