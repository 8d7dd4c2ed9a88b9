"""Top-down component-factored compilation of event-pricing plans.

:func:`repro.pxml.events.event_probability` is bottom-up: every
AND/OR it visits is re-partitioned into connected components *at
evaluation time*, on every Shannon expansion step.  The partition is
pure structure — it depends only on which variables the operands
mention, something the query engine already knew when it built the
event.  This module hoists that discovery out of the evaluation loop:

* :func:`compile_event` walks an event **once** (worklist, no
  recursion) and emits a :class:`CompiledEvent` — a pricing plan whose
  shape *is* the independence structure.  Products/coproducts hold one
  part per connected component (axis steps over disjoint subtrees never
  enter the same Shannon expansion); a single-component residual
  becomes an **atom**, priced by the kernel (so Shannon expansion still
  happens exactly where it is unavoidable, and only there).  Compiled
  plans are interned weakly by the source event's digest, like events
  themselves.
* :func:`compiled_probability` evaluates a plan, writing every
  non-constant node's probability into the same digest-keyed memo the
  kernel uses — the two paths share one table and are interchangeable
  entry by entry.  Results are Fraction-identical to
  :func:`~repro.pxml.events.event_probability` and to the
  :mod:`repro.pxml.events_reference` oracle (differential-tested).
* :class:`LiteralProbabilityTable` — the **cross-document** row store
  integration-time pricing shares through
  :class:`~repro.pxml.events_cache.EventProbabilityCache`.  Literal
  rows are keyed ``(node uid, possibility index)`` — uids are globally
  unique and never reused, so rows from different documents can never
  collide; they are dropped per document by
  :meth:`~LiteralProbabilityTable.invalidate_document` (wired into
  :func:`repro.pxml.events_cache.invalidate`).  Product rows are keyed
  by the *values* of their factors — pure arithmetic, document-
  independent, never stale — so pricing one compiled plan across N
  documents of a dataspace reuses the small-conjunction work instead of
  re-deriving it per document.  The table is lock-protected: the
  serving tier shares one instance across its request threads.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from threading import Lock
from typing import Iterator, Optional, Sequence

from ..probability import ONE, ZERO
from .events import (
    And,
    Event,
    FALSE_EVENT,
    Lit,
    Not,
    TRUE_EVENT,
    all_of,
    any_of,
    event_probability,
    independent_components,
    product_of,
)
from .model import PXDocument

__all__ = [
    "C_ATOM",
    "C_COPROD",
    "C_FALSE",
    "C_LIT",
    "C_NOT",
    "C_PROD",
    "C_TRUE",
    "CompiledEvent",
    "DEFAULT_MAX_LITERAL_ROWS",
    "DEFAULT_MAX_PRODUCT_ROWS",
    "LiteralProbabilityTable",
    "compile_event",
    "compiled_probability",
    "iter_compiled",
    "shared_literal_table",
]

#: Compiled plan kinds.  ``C_ATOM`` is a single-connected-component
#: residual: every variable inside transitively shares an operand with
#: every other, so no factoring applies and the kernel's Shannon
#: machinery (with its exact complement/independence decompositions on
#: the *conditioned* sub-events) is the right evaluator.
C_TRUE, C_FALSE, C_LIT, C_NOT, C_PROD, C_COPROD, C_ATOM = range(7)

_KIND_NAMES = ("TRUE", "FALSE", "LIT", "NOT", "PROD", "COPROD", "ATOM")


class CompiledEvent:
    """One node of a component-factored pricing plan.

    ``source`` is the event this node prices (its ``digest`` is the memo
    key — the *same* key the bottom-up kernel would use, so compiled and
    uncompiled pricing share one table).  ``parts`` are the sub-plans:
    one per independent component for ``C_PROD``/``C_COPROD`` (their
    sources mention pairwise-disjoint variable sets — the invariant the
    test suite pins), the single negated plan for ``C_NOT``, empty for
    leaves.
    """

    __slots__ = ("kind", "source", "parts", "__weakref__")

    kind: int
    source: Event
    parts: tuple["CompiledEvent", ...]

    def __init__(
        self, kind: int, source: Event, parts: tuple["CompiledEvent", ...]
    ) -> None:
        self.kind = kind
        self.source = source
        self.parts = parts

    def __repr__(self) -> str:
        return (
            f"CompiledEvent({_KIND_NAMES[self.kind]},"
            f" vars={len(self.source.vars)}, parts={len(self.parts)})"
        )


_COMPILED_TRUE = CompiledEvent(C_TRUE, TRUE_EVENT, ())
_COMPILED_FALSE = CompiledEvent(C_FALSE, FALSE_EVENT, ())

#: source digest -> its compiled plan, weakly (plans die with their
#: last external reference, exactly like interned events).
_COMPILED: "weakref.WeakValueDictionary[bytes, CompiledEvent]" = (
    weakref.WeakValueDictionary()
)


def compile_event(event: Event) -> CompiledEvent:
    """Compile ``event`` into a component-factored pricing plan.

    Worklist-driven post-order (no recursion).  At every AND/OR the
    operands are partitioned by
    :func:`~repro.pxml.events.independent_components` **once**:

    * several components → a product (AND) / coproduct (OR) whose parts
      are the compiled per-component conjunctions/disjunctions —
      compilation continues *through* each component, so nested
      alternation keeps factoring;
    * a single component → an atom: the event is genuinely entangled
      and is left to the kernel's Shannon expansion.

    Compiling is idempotent and cheap on re-entry: plans are interned by
    source digest, and shared substructure compiles once.
    """
    if event is TRUE_EVENT:
        return _COMPILED_TRUE
    if event is FALSE_EVENT:
        return _COMPILED_FALSE
    done: dict[bytes, CompiledEvent] = {}
    stack: list[tuple[Event, Optional[tuple[Event, ...]]]] = [(event, None)]
    while stack:
        current, children = stack.pop()
        digest = current.digest
        if digest in done:
            continue
        interned = _COMPILED.get(digest)
        if interned is not None:
            done[digest] = interned
            continue
        if children is None:
            if isinstance(current, Lit):
                compiled = CompiledEvent(C_LIT, current, ())
                _COMPILED[digest] = done[digest] = compiled
                continue
            if isinstance(current, Not):
                children = (current.operand,)
            else:
                components = independent_components(current.operands)
                if len(components) == 1:
                    compiled = CompiledEvent(C_ATOM, current, ())
                    _COMPILED[digest] = done[digest] = compiled
                    continue
                rebuild = all_of if isinstance(current, And) else any_of
                children = tuple(rebuild(group) for group in components)
            stack.append((current, children))
            for child in children:
                if child.digest not in done:
                    stack.append((child, None))
        else:
            if isinstance(current, Not):
                kind = C_NOT
            elif isinstance(current, And):
                kind = C_PROD
            else:
                kind = C_COPROD
            compiled = CompiledEvent(
                kind,
                current,
                tuple(done[child.digest] for child in children),
            )
            _COMPILED[digest] = done[digest] = compiled
    return done[event.digest]


def iter_compiled(compiled: CompiledEvent) -> Iterator[CompiledEvent]:
    """Every node of a compiled plan, each distinct node once
    (pre-order worklist; shared sub-plans are not repeated)."""
    seen: set[int] = set()
    stack: list[CompiledEvent] = [compiled]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        yield current
        stack.extend(current.parts)


def compiled_probability(
    compiled: CompiledEvent,
    *,
    memo: Optional[dict[bytes, Fraction]] = None,
    table: Optional["LiteralProbabilityTable"] = None,
) -> Fraction:
    """Exact probability of a compiled plan's source event.

    Worklist-driven post-order.  ``memo`` is the digest-keyed table
    shared with :func:`~repro.pxml.events.event_probability` — every
    plan node's probability lands under its source digest, and atoms
    delegate to the kernel *with the same table*, so compiled and
    bottom-up pricing interleave freely over one memo.  ``table`` is the
    optional cross-document :class:`LiteralProbabilityTable`: literal
    rows resolve (and populate) it, and the product/coproduct combine
    steps reuse its value-keyed small-conjunction rows.

    Fraction-identical to pricing ``compiled.source`` bottom-up.
    """
    if compiled.kind == C_TRUE:
        return ONE
    if compiled.kind == C_FALSE:
        return ZERO
    if memo is None:
        memo = {}
    cached = memo.get(compiled.source.digest)
    if cached is not None:
        return cached
    stack: list[tuple[CompiledEvent, bool]] = [(compiled, False)]
    while stack:
        current, ready = stack.pop()
        digest = current.source.digest
        if digest in memo:
            continue
        kind = current.kind
        if not ready:
            if kind == C_LIT:
                source = current.source
                assert isinstance(source, Lit)
                if table is not None:
                    memo[digest] = table.literal(source)
                else:
                    memo[digest] = source.node.possibilities[source.index].prob
                continue
            if kind == C_ATOM:
                # Single connected component: the kernel's Shannon
                # expansion, sharing this memo (and so this call's
                # frontier) entry for entry.
                memo[digest] = event_probability(current.source, _memo=memo)
                continue
            if (
                kind == C_PROD
                and table is not None
                and len(current.parts) <= _MAX_PRODUCT_FACTORS
                and all(part.kind == C_LIT for part in current.parts)
            ):
                # The canonical small conjunction of independent
                # literals: one identity-keyed row replaces pricing
                # every literal plus the combine step.
                sources = []
                for part in current.parts:
                    source = part.source
                    assert isinstance(source, Lit)
                    sources.append(source)
                memo[digest] = table.conjunction(sources)
                continue
            stack.append((current, True))
            for part in current.parts:
                if part.source.digest not in memo:
                    stack.append((part, False))
        elif kind == C_NOT:
            memo[digest] = ONE - memo[current.parts[0].source.digest]
        elif kind == C_PROD:
            factors = [memo[part.source.digest] for part in current.parts]
            memo[digest] = (
                table.product(factors) if table is not None
                else product_of(factors)
            )
        else:  # C_COPROD
            complements = [
                ONE - memo[part.source.digest] for part in current.parts
            ]
            miss = (
                table.product(complements) if table is not None
                else product_of(complements)
            )
            memo[digest] = ONE - miss
    return memo[compiled.source.digest]


# -- the cross-document literal/product row store -------------------------------

#: Default bound on literal rows.  A row is a 2-int key plus a Fraction;
#: eviction only costs a re-read of the node attribute, never
#: correctness.
DEFAULT_MAX_LITERAL_ROWS = 500_000

#: Default bound on value-keyed product rows (LRU).
DEFAULT_MAX_PRODUCT_ROWS = 100_000

#: Products with more factors than this are computed directly — the
#: value key would cost more to build than the batched multiply saves.
_MAX_PRODUCT_FACTORS = 16


class LiteralProbabilityTable:
    """Cross-document probability rows shared by compiled pricing.

    Three row families with different lifetimes:

    * **literal rows** — ``(node uid, possibility index) → Fraction``.
      Uids are globally unique and never reused
      (:class:`~repro.pxml.model.ProbNode`), so one table serves any
      number of documents without collisions; rows belonging to a
      mutated document are dropped by :meth:`invalidate_document`.
    * **conjunction rows** — ``((uid, index), …) → Fraction`` for a
      small conjunction of literals, keyed by the literals'
      *identities* in plan order.  A warm re-pricing of a compiled
      product-of-literals is a single lookup; rows mentioning a
      mutated document's uids are dropped by
      :meth:`invalidate_document`.  A conjunction *miss* resolves
      through the product rows, so the value-level reuse below still
      applies on first contact.
    * **product rows** — ``sorted((numerator, denominator), …) →
      Fraction``.  Keyed by the factor *values*, they are pure
      arithmetic: document-independent, reusable across the whole
      dataspace, and immune to document mutation (a stale input simply
      produces a different key).  Bounded LRU.

    All access is serialized on an internal lock — the serving tier
    shares one instance across its request threads, so concurrent
    requests pricing different documents share (and fill) the same
    rows.
    """

    __slots__ = (
        "_literals",
        "_conjunctions",
        "_products",
        "_lock",
        "max_literal_rows",
        "max_product_rows",
        "literal_hits",
        "literal_misses",
        "conjunction_hits",
        "conjunction_misses",
        "product_hits",
        "product_misses",
        "evictions",
    )

    def __init__(
        self,
        *,
        max_literal_rows: Optional[int] = DEFAULT_MAX_LITERAL_ROWS,
        max_product_rows: Optional[int] = DEFAULT_MAX_PRODUCT_ROWS,
    ) -> None:
        if max_literal_rows is not None and max_literal_rows <= 0:
            raise ValueError("max_literal_rows must be positive (or None)")
        if max_product_rows is not None and max_product_rows <= 0:
            raise ValueError("max_product_rows must be positive (or None)")
        self._literals: dict[tuple[int, int], Fraction] = {}
        self._conjunctions: dict[tuple[tuple[int, int], ...], Fraction] = {}
        self._products: dict[tuple[tuple[int, int], ...], Fraction] = {}
        self._lock = Lock()
        self.max_literal_rows = max_literal_rows
        self.max_product_rows = max_product_rows
        self.literal_hits = 0
        self.literal_misses = 0
        self.conjunction_hits = 0
        self.conjunction_misses = 0
        self.product_hits = 0
        self.product_misses = 0
        self.evictions = 0

    # -- rows ---------------------------------------------------------------

    def literal(self, literal: Lit) -> Fraction:
        """The probability of ``literal``'s possibility, from the table
        (one attribute read on first use per ``(uid, index)``)."""
        key = (literal.node.uid, literal.index)
        with self._lock:
            row = self._literals.get(key)
            if row is not None:
                self.literal_hits += 1
                # LRU refresh: eviction walks insertion order.
                del self._literals[key]
                self._literals[key] = row
                return row
        value = literal.node.possibilities[literal.index].prob
        with self._lock:
            self.literal_misses += 1
            self._literals[key] = value
            self._evict(self._literals, self.max_literal_rows)
        return value

    def conjunction(self, literals: Sequence[Lit]) -> Fraction:
        """Exact probability of a conjunction of independent
        ``literals`` through the identity-keyed conjunction rows.

        The key is the literals' ``(uid, index)`` pairs in plan order —
        building it touches no Fraction at all, so a warm compiled
        product-of-literals prices in one lookup.  A miss resolves
        through :meth:`product` (value-keyed, cross-document) before
        the identity row is written."""
        key = tuple((entry.node.uid, entry.index) for entry in literals)
        with self._lock:
            row = self._conjunctions.get(key)
            if row is not None:
                self.conjunction_hits += 1
                # LRU refresh: eviction walks insertion order.
                del self._conjunctions[key]
                self._conjunctions[key] = row
                return row
        value = self.product([self.literal(entry) for entry in literals])
        with self._lock:
            self.conjunction_misses += 1
            self._conjunctions[key] = value
            self._evict(self._conjunctions, self.max_product_rows)
        return value

    def product(self, factors: Sequence[Fraction]) -> Fraction:
        """Exact product of ``factors`` through the value-keyed rows.

        Small conjunctions (≤ 16 factors) hit the shared row store —
        the same factor multiset priced for another document resolves
        without multiplying; larger products are computed directly
        (batched, one normalization — see
        :func:`~repro.pxml.events.product_of`)."""
        if len(factors) < 2:
            return factors[0] if factors else ONE
        if len(factors) > _MAX_PRODUCT_FACTORS:
            return product_of(factors)
        key = tuple(sorted(f.as_integer_ratio() for f in factors))
        with self._lock:
            row = self._products.get(key)
            if row is not None:
                self.product_hits += 1
                del self._products[key]
                self._products[key] = row
                return row
        value = product_of(factors)
        with self._lock:
            self.product_misses += 1
            self._products[key] = value
            self._evict(self._products, self.max_product_rows)
        return value

    def _evict(self, rows: dict, bound: Optional[int]) -> None:
        # Caller holds the lock.
        if bound is None:
            return
        while len(rows) > bound:
            del rows[next(iter(rows))]
            self.evictions += 1

    # -- maintenance --------------------------------------------------------

    def invalidate_document(self, document: PXDocument) -> int:
        """Drop the literal rows of ``document``'s choice variables;
        returns how many were dropped.

        Required (alongside :func:`repro.pxml.events_cache.invalidate`,
        which calls it) after mutating the document's probability nodes
        in place — a stale literal row would otherwise keep pricing the
        pre-mutation probability for *every* consumer of the shared
        table.  Product rows are value-keyed and never stale, so they
        survive."""
        uids = {node.uid for node in document.iter_prob_nodes()}
        with self._lock:
            stale = [key for key in self._literals if key[0] in uids]
            for key in stale:
                del self._literals[key]
            stale_conjunctions = [
                key
                for key in self._conjunctions
                if any(uid in uids for uid, _index in key)
            ]
            for key in stale_conjunctions:
                del self._conjunctions[key]
        return len(stale) + len(stale_conjunctions)

    def clear(self) -> None:
        """Drop every row (both families) and reset nothing else."""
        with self._lock:
            self._literals.clear()
            self._conjunctions.clear()
            self._products.clear()

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._literals)
                + len(self._conjunctions)
                + len(self._products)
            )

    def stats(self) -> dict[str, int]:
        """Counters for benchmarks and diagnostics."""
        with self._lock:
            return {
                "literal_rows": len(self._literals),
                "conjunction_rows": len(self._conjunctions),
                "product_rows": len(self._products),
                "literal_hits": self.literal_hits,
                "literal_misses": self.literal_misses,
                "conjunction_hits": self.conjunction_hits,
                "conjunction_misses": self.conjunction_misses,
                "product_hits": self.product_hits,
                "product_misses": self.product_misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"LiteralProbabilityTable(literals={stats['literal_rows']},"
            f" conjunctions={stats['conjunction_rows']},"
            f" products={stats['product_rows']})"
        )


#: The process-wide default table — what
#: :class:`~repro.pxml.events_cache.EventProbabilityCache` attaches to
#: unless told otherwise, so every engine in the process shares rows.
_SHARED_TABLE = LiteralProbabilityTable()


def shared_literal_table() -> LiteralProbabilityTable:
    """The process-wide shared :class:`LiteralProbabilityTable`."""
    return _SHARED_TABLE
