"""Event algebra over probabilistic-XML choice variables.

Every probability node ▽ is an independent random variable whose outcomes
are its possibility indices; ``Lit(node, index)`` is the event "▽ chose
possibility *index*".  Events are boolean combinations of literals and are
what the query engine computes: "value v appears in the answer" is an OR
over occurrence events, each a conjunction of the choices that make the
occurrence exist and satisfy the query predicate.

**Guardedness contract.** Possible-world semantics only assigns choices to
*reachable* probability nodes.  Event probabilities computed here treat all
variables as always-present and independent, which agrees with world
semantics as long as events are *guarded*: a literal for a node may only
matter in conjunction with the literals that make the node reachable.
Events produced by path traversal (existence events) are guarded by
construction; the test suite cross-checks event probabilities against
world enumeration.

**Hash-consing.** Events are interned: the simplifying constructors
(:func:`lit`, :func:`negate`, :func:`all_of`, :func:`any_of`) return *the*
canonical instance for each structure, so structurally equal events are
identity-equal (``all_of([a, b]) is all_of([b, a])``).  Each node carries,
computed once at construction from its already-built children:

* ``digest`` — a 16-byte canonical-form digest (the intern key and the
  memo key used by :mod:`repro.pxml.events_cache`);
* ``vars`` — the frozenset of choice-variable uids the event mentions;
* ``counts`` — per-variable literal occurrence counts.

This removes every per-recursion full-tree rescan the pre-PR-4 kernel
paid (``key()`` serialization, node collection, occurrence counting) —
what is left of those walks is one dict/bytes merge per *unique* node,
ever.  The intern table is weak: events die when the last external
reference does.  Interning is also safe under free-threaded construction
races — two threads may briefly build twin instances for one digest, but
every memo is keyed by digest, never by identity, so twins only cost a
little sharing, never correctness.

**Probability kernel.** :func:`event_probability` is exact
(:class:`fractions.Fraction`) and worklist-driven (no Python recursion,
so events tens of thousands of literals deep price fine).  Before falling
back to Shannon expansion it applies two exact decompositions:

* complement: ``P(¬e) = 1 − P(e)``;
* independence: operands of an AND/OR are partitioned into connected
  components by shared variables; disjoint components are independent, so
  ``P(∧ parts) = ∏ P(part)`` and ``P(∨ parts) = 1 − ∏ (1 − P(part))``.

The common query shape — an OR of occurrence conjunctions over disjoint
subtrees — collapses from exponential expansion to a linear product.
Only a single connected component is ever Shannon-expanded, conditioning
on the most frequently mentioned variable (ties by uid) exactly as
before; results are Fraction-identical to the expansion-only kernel
(kept as :mod:`repro.pxml.events_reference` and differential-tested).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from hashlib import blake2b
from math import gcd
from typing import Iterable, Optional, Sequence

from ..deadline import checkpoint
from ..errors import ProbabilityError
from ..probability import ONE, ZERO
from .model import ProbNode

#: digest -> the canonical instance for that structure (weak: an event
#: lives exactly as long as someone outside the table references it).
_INTERN: "weakref.WeakValueDictionary[bytes, Event]" = weakref.WeakValueDictionary()

#: uid -> its ProbNode, weakly.  Every event strongly references the
#: nodes of its literals, so any uid found in a live event's ``counts``
#: resolves here; entries die with the last event (and node).
_NODES: "weakref.WeakValueDictionary[int, ProbNode]" = weakref.WeakValueDictionary()

_EMPTY_COUNTS: dict[int, int] = {}
_NO_VARS: frozenset[int] = frozenset()


def _digest16(*parts: bytes) -> bytes:
    h = blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.digest()


# The canonical digest formula of each node kind lives here, once: the
# interning constructors probe with it and pass the result into
# ``__init__``, so the intern key and the digest stored on the node
# cannot drift (and cold construction hashes exactly once).

def _lit_digest(uid: int, index: int) -> bytes:
    return _digest16(b"L", f"{uid}:{index}".encode())


def _not_digest(operand_digest: bytes) -> bytes:
    return _digest16(b"N", operand_digest)


def _and_digest(operand_digests: Iterable[bytes]) -> bytes:
    return _digest16(b"A", *sorted(operand_digests))


def _or_digest(operand_digests: Iterable[bytes]) -> bytes:
    return _digest16(b"O", *sorted(operand_digests))


class Event:
    """Base class for events.  Use the module-level constructors
    (:func:`lit`, :func:`all_of`, :func:`any_of`, :func:`none_of`) rather
    than instantiating subclasses directly — they simplify on the fly and
    intern the result (structural equality becomes ``is``).

    Invariant: ``digest``, ``vars`` and ``counts`` are set once in
    ``__init__`` and never mutated; ``vars`` is always exactly
    ``frozenset(counts)``.
    """

    __slots__ = ("digest", "vars", "counts", "__weakref__")

    digest: bytes
    vars: frozenset[int]
    counts: dict[int, int]

    def key(self) -> tuple[object, ...]:
        """Canonical structural key (the pre-PR-4 memo key format), built
        iteratively.  Kept for diagnostics and differential tests — the
        kernel and the caches key on :attr:`digest` instead."""
        return _key_of(self)

    def variables(self) -> frozenset[int]:
        """uids of the probability nodes this event mentions (cached at
        construction; treat as read-only)."""
        return self.vars

    def assign(self, uid: int, index: int) -> "Event":
        """The event conditioned on variable ``uid`` choosing ``index``."""
        return _assign(self, uid, index)

    def evaluate(self, assignment: dict[int, int]) -> bool:
        """Truth value under a complete assignment (uid -> index)."""
        return _evaluate(self, assignment)

    # Convenient operators -------------------------------------------------

    def __and__(self, other: "Event") -> "Event":
        return all_of([self, other])

    def __or__(self, other: "Event") -> "Event":
        return any_of([self, other])

    def __invert__(self) -> "Event":
        return negate(self)


class _TrueEvent(Event):
    __slots__ = ()

    def __init__(self) -> None:
        self.digest = b"T"
        self.vars = _NO_VARS
        self.counts = _EMPTY_COUNTS

    def key(self) -> tuple[object, ...]:
        return ("T",)

    def assign(self, uid: int, index: int) -> Event:
        return self

    def evaluate(self, assignment: dict[int, int]) -> bool:
        return True

    def __repr__(self) -> str:
        return "TRUE"


class _FalseEvent(Event):
    __slots__ = ()

    def __init__(self) -> None:
        self.digest = b"F"
        self.vars = _NO_VARS
        self.counts = _EMPTY_COUNTS

    def key(self) -> tuple[object, ...]:
        return ("F",)

    def assign(self, uid: int, index: int) -> Event:
        return self

    def evaluate(self, assignment: dict[int, int]) -> bool:
        return False

    def __repr__(self) -> str:
        return "FALSE"


TRUE_EVENT = _TrueEvent()
FALSE_EVENT = _FalseEvent()


class Lit(Event):
    """The event "probability node ``node`` chose possibility ``index``"."""

    __slots__ = ("node", "index")

    def __init__(
        self, node: ProbNode, index: int, digest: Optional[bytes] = None
    ) -> None:
        if not 0 <= index < len(node.possibilities):
            raise ProbabilityError(
                f"possibility index {index} out of range for ▽{node.uid}"
            )
        self.node = node
        self.index = index
        self.digest = digest if digest is not None else _lit_digest(node.uid, index)
        self.vars = frozenset((node.uid,))
        self.counts = {node.uid: 1}
        # Registered here (not in lit()) so even directly-constructed
        # literals resolve their pivot node.
        _NODES[node.uid] = node

    def key(self) -> tuple[object, ...]:
        return ("L", self.node.uid, self.index)

    def assign(self, uid: int, index: int) -> Event:
        if uid != self.node.uid:
            return self
        return TRUE_EVENT if index == self.index else FALSE_EVENT

    def evaluate(self, assignment: dict[int, int]) -> bool:
        return assignment.get(self.node.uid) == self.index

    def __repr__(self) -> str:
        return f"(▽{self.node.uid}={self.index})"


class Not(Event):
    __slots__ = ("operand",)

    def __init__(self, operand: Event, digest: Optional[bytes] = None) -> None:
        self.operand = operand
        self.digest = digest if digest is not None else _not_digest(operand.digest)
        self.vars = operand.vars
        self.counts = operand.counts  # same literals — share, don't copy

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"


def _merge_counts(operands: tuple[Event, ...]) -> dict[int, int]:
    merged: dict[int, int] = {}
    get = merged.get
    for op in operands:
        for uid, count in op.counts.items():
            merged[uid] = get(uid, 0) + count
    return merged


class And(Event):
    __slots__ = ("operands",)

    def __init__(
        self, operands: tuple[Event, ...], digest: Optional[bytes] = None
    ) -> None:
        self.operands = operands
        self.digest = (
            digest
            if digest is not None
            else _and_digest(op.digest for op in operands)
        )
        self.counts = _merge_counts(operands)
        self.vars = frozenset(self.counts)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(op) for op in self.operands) + ")"


class Or(Event):
    __slots__ = ("operands",)

    def __init__(
        self, operands: tuple[Event, ...], digest: Optional[bytes] = None
    ) -> None:
        self.operands = operands
        self.digest = (
            digest
            if digest is not None
            else _or_digest(op.digest for op in operands)
        )
        self.counts = _merge_counts(operands)
        self.vars = frozenset(self.counts)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(op) for op in self.operands) + ")"


# -- simplifying, interning constructors ---------------------------------------

def lit(node: ProbNode, index: int) -> Event:
    """Literal constructor.  A literal on a single-possibility node is
    simply TRUE (the choice is forced)."""
    if len(node.possibilities) == 1:
        return TRUE_EVENT
    digest = _lit_digest(node.uid, index)
    event = _INTERN.get(digest)
    if event is None:
        # An out-of-range index can never be interned (construction
        # raises), so the probe above misses and Lit validates here.
        event = Lit(node, index, digest)
        _INTERN[digest] = event
    return event


def negate(event: Event) -> Event:
    """``not event``, interned: constants flip, double negation unwraps
    (so ``negate(negate(e)) is e``), everything else wraps in
    :class:`Not`."""
    if event is TRUE_EVENT:
        return FALSE_EVENT
    if event is FALSE_EVENT:
        return TRUE_EVENT
    if isinstance(event, Not):
        return event.operand
    digest = _not_digest(event.digest)
    negated = _INTERN.get(digest)
    if negated is None:
        negated = Not(event, digest)
        _INTERN[digest] = negated
    return negated


def all_of(events: Iterable[Event]) -> Event:
    """Conjunction with flattening, deduplication and contradiction
    detection (a node cannot choose two different possibilities)."""
    flat: list[Event] = []
    seen: set[bytes] = set()
    chosen: dict[int, int] = {}
    for event in events:
        if event is FALSE_EVENT:
            return FALSE_EVENT
        if event is TRUE_EVENT:
            continue
        parts = event.operands if isinstance(event, And) else (event,)
        for part in parts:
            if part is FALSE_EVENT:
                return FALSE_EVENT
            if part is TRUE_EVENT:
                continue
            if isinstance(part, Lit):
                uid = part.node.uid
                if uid in chosen and chosen[uid] != part.index:
                    return FALSE_EVENT
                chosen[uid] = part.index
            digest = part.digest
            if digest not in seen:
                seen.add(digest)
                flat.append(part)
    if not flat:
        return TRUE_EVENT
    if len(flat) == 1:
        return flat[0]
    digest = _and_digest(seen)
    event = _INTERN.get(digest)
    if event is None:
        event = And(tuple(flat), digest)
        _INTERN[digest] = event
    return event


def any_of(events: Iterable[Event]) -> Event:
    """Disjunction with flattening and deduplication."""
    flat: list[Event] = []
    seen: set[bytes] = set()
    for event in events:
        if event is TRUE_EVENT:
            return TRUE_EVENT
        if event is FALSE_EVENT:
            continue
        parts = event.operands if isinstance(event, Or) else (event,)
        for part in parts:
            if part is TRUE_EVENT:
                return TRUE_EVENT
            if part is FALSE_EVENT:
                continue
            digest = part.digest
            if digest not in seen:
                seen.add(digest)
                flat.append(part)
    if not flat:
        return FALSE_EVENT
    if len(flat) == 1:
        return flat[0]
    digest = _or_digest(seen)
    event = _INTERN.get(digest)
    if event is None:
        event = Or(tuple(flat), digest)
        _INTERN[digest] = event
    return event


def none_of(events: Iterable[Event]) -> Event:
    """¬(e₁ ∨ e₂ ∨ …)."""
    return negate(any_of(events))


def interned_count() -> int:
    """Number of live interned events (diagnostics)."""
    return len(_INTERN)


# -- iterative structural walks ------------------------------------------------

def _operands_of(event: Event) -> tuple[Event, ...]:
    if isinstance(event, Not):
        return (event.operand,)
    assert isinstance(event, (And, Or))  # constants/literals never reach here
    return event.operands


def _key_of(event: Event) -> tuple[object, ...]:
    """Post-order iterative construction of the legacy canonical key."""
    memo: dict[bytes, tuple[object, ...]] = {}
    stack: list[tuple[Event, bool]] = [(event, False)]
    while stack:
        current, ready = stack.pop()
        digest = current.digest
        if digest in memo:
            continue
        if isinstance(current, (Lit, _TrueEvent, _FalseEvent)):
            memo[digest] = current.key()
            continue
        operands = _operands_of(current)
        if not ready:
            stack.append((current, True))
            stack.extend(
                (op, False) for op in operands if op.digest not in memo
            )
        elif isinstance(current, Not):
            memo[digest] = ("N", memo[operands[0].digest])
        else:
            tag = "A" if isinstance(current, And) else "O"
            memo[digest] = (tag,) + tuple(
                sorted(memo[op.digest] for op in operands)
            )
    return memo[event.digest]


def _evaluate(event: Event, assignment: dict[int, int]) -> bool:
    memo: dict[Event, bool] = {}
    stack: list[tuple[Event, bool]] = [(event, False)]
    while stack:
        current, ready = stack.pop()
        if current in memo:
            continue
        if isinstance(current, (Lit, _TrueEvent, _FalseEvent)):
            memo[current] = current.evaluate(assignment)
            continue
        operands = _operands_of(current)
        if not ready:
            stack.append((current, True))
            stack.extend((op, False) for op in operands if op not in memo)
        elif isinstance(current, Not):
            memo[current] = not memo[current.operand]
        elif isinstance(current, And):
            memo[current] = all(memo[op] for op in current.operands)
        else:
            memo[current] = any(memo[op] for op in current.operands)
    return memo[event]


def _assign(event: Event, uid: int, index: int) -> Event:
    """``event`` conditioned on ``uid`` choosing ``index`` — iterative
    post-order rewrite.  Subtrees that do not mention ``uid`` are returned
    as-is (cheap membership test on the cached ``counts``)."""
    if uid not in event.counts:
        return event
    memo: dict[Event, Event] = {}
    stack: list[tuple[Event, bool]] = [(event, False)]
    while stack:
        current, ready = stack.pop()
        if current in memo:
            continue
        if uid not in current.counts:
            memo[current] = current
            continue
        if isinstance(current, Lit):
            memo[current] = TRUE_EVENT if index == current.index else FALSE_EVENT
            continue
        operands = _operands_of(current)
        if not ready:
            stack.append((current, True))
            stack.extend((op, False) for op in operands if op not in memo)
        elif isinstance(current, Not):
            memo[current] = negate(memo[current.operand])
        elif isinstance(current, And):
            memo[current] = all_of([memo[op] for op in current.operands])
        else:
            memo[current] = any_of([memo[op] for op in current.operands])
    return memo[event]


# -- exact probability ----------------------------------------------------------

def pivot_variable(event: Event) -> tuple[int, ProbNode]:
    """The Shannon pivot: the most frequently mentioned variable (ties by
    smallest uid) and its probability node.  Frequency ordering matters:
    query events are ORs of occurrence conjunctions that all share their
    top-level choice variable, so splitting on it first collapses every
    branch — min-uid ordering can instead split on branch-local variables
    and go exponential."""
    counts = event.counts
    if not counts:
        # No literals left but not a constant — cannot happen with the
        # simplifying constructors; fail loudly rather than guess.
        raise ProbabilityError(f"non-constant event without variables: {event!r}")
    uid = max(counts, key=lambda candidate: (counts[candidate], -candidate))
    node = _NODES.get(uid)
    if node is None:
        raise ProbabilityError(
            f"choice variable ▽{uid} is gone; was its event built through"
            " the interning constructors?"
        )
    return uid, node


def independent_components(
    operands: Sequence[Event],
) -> list[list[Event]]:
    """Partition operands into connected components by shared variables
    (union-find over operand indices).  Operands in different components
    mention disjoint variable sets and are therefore independent; the
    kernel uses this per expansion step, and
    :mod:`repro.pxml.events_compile` uses it once, top-down, to emit a
    factored pricing plan."""
    parent = list(range(len(operands)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, op in enumerate(operands):
        for uid in op.counts:
            j = owner.get(uid)
            if j is None:
                owner[uid] = i
            else:
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[root_i] = root_j
    groups: dict[int, list[Event]] = {}
    for i, op in enumerate(operands):
        groups.setdefault(find(i), []).append(op)
    return list(groups.values())


# -- batched exact arithmetic ---------------------------------------------------

def _balanced_int_product(values: list[int]) -> int:
    """Product of ``values`` by pairwise tree reduction.  For the large
    integers exact corpus pricing produces, multiplying similarly-sized
    operands is far cheaper than a left fold that drags one huge
    accumulator through every step."""
    while len(values) > 1:
        paired = [
            values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)
        ]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def product_of(factors: Sequence[Fraction]) -> Fraction:
    """Exact product of ``factors`` in one batch: numerators and
    denominators multiply separately as balanced integer trees, and the
    single :class:`Fraction` construction at the end runs *one* gcd
    normalization instead of one per multiplication.  Identical value to
    the sequential fold; measurably faster on the independence-product
    hot path (many components, large denominators)."""
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Fraction(
        _balanced_int_product([f.numerator for f in factors]),
        _balanced_int_product([f.denominator for f in factors]),
    )


def weighted_sum(
    weights: Sequence[Fraction], values: Sequence[Fraction]
) -> Fraction:
    """Exact ``Σ weights[i] · values[i]`` with a small-denominator fast
    path: terms accumulate as one integer numerator over a running least
    common denominator (``gcd`` is integer-exact), so the common Shannon
    shape — branch weights sharing one small denominator — costs integer
    adds instead of a Fraction normalization per term.  The single
    :class:`Fraction` at the end normalizes once; the value is identical
    to the sequential sum."""
    num = 0
    den = 1
    for weight, value in zip(weights, values):
        term_num = weight.numerator * value.numerator
        term_den = weight.denominator * value.denominator
        if term_den == den:
            num += term_num
        else:
            common = gcd(den, term_den)
            scale = term_den // common
            num = num * scale + term_num * (den // common)
            den = den * scale
    return Fraction(num, den)


#: plan kinds for the worklist evaluator
_PROD, _COPROD, _NOT, _SHANNON = 0, 1, 2, 3

#: (kind, sub-events, Shannon branch weights — None for the other kinds)
_Plan = tuple[int, tuple[Event, ...], Optional[tuple[Fraction, ...]]]


def _expand(event: Event) -> _Plan:
    """One decomposition step: how to compute P(event) from sub-events."""
    if isinstance(event, Not):
        return _NOT, (event.operand,), None
    components = independent_components(event.operands)
    if len(components) > 1:
        if isinstance(event, And):
            return _PROD, tuple(all_of(group) for group in components), None
        return _COPROD, tuple(any_of(group) for group in components), None
    # One connected component: Shannon-expand on the pivot variable.
    uid, node = pivot_variable(event)
    children: list[Event] = []
    weights: list[Fraction] = []
    for index, possibility in enumerate(node.possibilities):
        if possibility.prob == 0:
            continue
        children.append(_assign(event, uid, index))
        weights.append(possibility.prob)
    return _SHANNON, tuple(children), tuple(weights)


def event_probability(
    event: Event, *, _memo: Optional[dict[bytes, Fraction]] = None
) -> Fraction:
    """Exact probability of ``event`` under independent choices.

    Worklist-driven (non-recursive) evaluation: complement and
    independence decompositions first, Shannon expansion on the most
    frequently mentioned variable only within a single connected
    component.  Memoized on the canonical digest so structurally shared
    subproblems collapse — pass ``_memo`` to share the table across
    calls (what :class:`~repro.pxml.events_cache.EventProbabilityCache`
    does).

    The active deadline (:func:`repro.deadline.checkpoint`) is polled
    before each expansion step, so a budget interrupts pricing itself,
    not only the tree walk that built ``event``.  An interrupted call
    leaves only finished sub-results in ``_memo``: a row is written when
    its value is complete, never before.
    """
    if event is TRUE_EVENT:
        return ONE
    if event is FALSE_EVENT:
        return ZERO
    memo = _memo if _memo is not None else {}
    cached = memo.get(event.digest)
    if cached is not None:
        return cached

    stack: list[tuple[Event, Optional[_Plan]]] = [(event, None)]
    while stack:
        current, plan = stack.pop()
        digest = current.digest
        if digest in memo:
            continue
        if plan is None:
            if isinstance(current, Lit):
                memo[digest] = current.node.possibilities[current.index].prob
                continue
            checkpoint()
            plan = _expand(current)
            stack.append((current, plan))
            for child in plan[1]:
                if (
                    child is not TRUE_EVENT
                    and child is not FALSE_EVENT
                    and child.digest not in memo
                ):
                    stack.append((child, None))
        else:
            kind, children, weights = plan
            if kind == _SHANNON:
                assert weights is not None  # _expand always pairs them
                live_weights: list[Fraction] = []
                live_probs: list[Fraction] = []
                for weight, child in zip(weights, children):
                    if child is FALSE_EVENT:
                        continue
                    live_weights.append(weight)
                    live_probs.append(
                        ONE if child is TRUE_EVENT else memo[child.digest]
                    )
                total = weighted_sum(live_weights, live_probs)
            elif kind == _NOT:
                child = children[0]
                total = ONE - memo[child.digest]
            elif kind == _PROD:
                total = product_of([memo[child.digest] for child in children])
            else:  # _COPROD
                total = ONE - product_of(
                    [ONE - memo[child.digest] for child in children]
                )
            memo[digest] = total
    return memo[event.digest]
