"""Exact distributions of aggregate queries over probabilistic XML.

An aggregate query (``count(//movie)``, ``sum(//price)``) has no single
answer on an uncertain document — it has a *distribution*.  For
structural aggregates (no predicates coupling distinct subtrees) the
distribution is computable exactly by a bottom-up convolution over the
tree, without enumerating worlds:

* a text node contributes a constant;
* an element contributes its own value plus the *convolution* of its
  children's distributions (children are independent given the element
  exists — the same independence decomposition the PR-4 event kernel
  exploits);
* a probability node contributes the *mixture* of its possibilities'
  distributions.

The supported family — all exact, all pinned Fraction-identical to
per-world enumeration by the differential suite:

=========  ===================================================================
kind       per-world value
=========  ===================================================================
``count``  number of matching elements
``sum``    sum of the matching elements' numeric values (0 when none match)
``min``    smallest matching numeric value (``None`` when none match)
``max``    largest matching numeric value (``None`` when none match)
``exists`` 1 when at least one element matches, else 0
=========  ===================================================================

A *match* is an element whose tag equals the target (``*`` matches
every element), optionally filtered by leaf-text equality (the
predicate-filtered variants).  ``sum``/``min``/``max`` read the
element's numeric value — its string value parsed as an exact
:class:`~fractions.Fraction` (integers, ratios like ``7/2``, and
decimal strings like ``2.5`` — never floats) — and support *leaf*
elements only; anything deeper raises :class:`~repro.errors.QueryError`
and is answered by :func:`aggregate_distribution_enumerated`, the
per-world reference that supports every shape.

Aggregates are compiled (:func:`compile_aggregate`) through the same
:class:`~repro.query.plan.QueryPlan` machinery queries use: the target
normalizes to a canonical plan fingerprint, so two spellings of one
aggregate (``"movie"`` vs ``"//movie"``) share a single memo entry and
a single *persistent* identity (:attr:`AggregateSpec.digest` — stable
across processes, the key half :class:`~repro.dbms.cache_store.
AnswerCacheStore` persists aggregate rows under).  Results are memoized
in the document's shared :class:`~repro.pxml.events_cache.
EventProbabilityCache` aggregate side table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from ..errors import QueryError
from ..probability import ONE, ZERO, format_percent
from ..pxml.events_cache import EventProbabilityCache, cache_for
from ..pxml.model import PXDocument, PXElement, PXText, ProbNode
from ..pxml.treefold import fold_tree
from ..pxml.worlds import DEFAULT_WORLD_LIMIT, iter_worlds
from ..xmlkit.nodes import XElement
from ..xmlkit.xpath import XPath
from ..xmlkit.xpath.ast import (
    AXIS_DESCENDANT,
    AXIS_SELF,
    BinaryOp,
    Literal,
    NameTest,
    NodeTest,
    Path,
)
from .plan import QueryPlan, _encode_fingerprint, compile_plan
from .treepass import convolve, mixture

__all__ = [
    "AGGREGATE_KINDS",
    "AggregateDistribution",
    "AggregateSpec",
    "CountDistribution",
    "aggregate_distribution",
    "aggregate_distribution_enumerated",
    "canonical_items",
    "compile_aggregate",
    "count_distribution",
    "count_distribution_enumerated",
    "count_quantile",
    "exists_probability",
    "expected_count",
    "expected_value",
    "format_distribution",
    "max_distribution",
    "min_distribution",
    "sum_distribution",
]

#: A distribution over non-negative integer counts.
CountDistribution = dict[int, Fraction]

#: A distribution over aggregate values: integers (counts, integral
#: sums), exact Fractions (non-integral numeric values), or ``None``
#: (the no-matching-element outcome of ``min``/``max``).
AggregateKey = Optional[Union[int, Fraction]]
AggregateDistribution = dict[AggregateKey, Fraction]

#: The supported aggregate kinds, in canonical order.
AGGREGATE_KINDS = ("count", "sum", "min", "max", "exists")


# -- aggregate compilation -----------------------------------------------------

@dataclass(frozen=True)
class AggregateSpec:
    """A compiled aggregate: kind + target, with persistent identity.

    Build with :func:`compile_aggregate`.  ``fingerprint`` keys the
    in-memory per-document memo (:class:`~repro.pxml.events_cache.
    EventProbabilityCache` aggregate side table); ``digest`` is its
    SHA-256 — stable across processes by the same contract as
    :attr:`~repro.query.plan.QueryPlan.fingerprint_digest`, and the key
    half persisted aggregate rows use (:mod:`repro.dbms.cache_store`).
    """

    kind: str
    tag: str
    text: Optional[str]
    plan: QueryPlan
    fingerprint: tuple
    digest: str

    def describe(self) -> str:
        """Human-readable form, e.g. ``'sum(//price)'`` — stored next to
        persisted rows for diagnostics, never parsed back."""
        target = f"//{self.tag}"
        if self.text is not None:
            target += f"[.={self.text!r}]"
        return f"{self.kind}({target})"

    def count_spec(self) -> "AggregateSpec":
        """The ``count`` aggregate over the same target (``exists``
        derives from it)."""
        return compile_aggregate("count", self.tag, text=self.text)

    def __repr__(self) -> str:
        return f"AggregateSpec({self.describe()!r})"


def _destructure_target(plan: QueryPlan) -> tuple[str, Optional[str]]:
    """(tag, text filter) of a structural aggregate target: ``//tag``,
    optionally with a single ``[. = "literal"]`` predicate."""
    ast = plan.ast
    shown = plan.expression if plan.expression is not None else ast
    if not (
        isinstance(ast, Path)
        and ast.absolute
        and ast.base is None
        and len(ast.steps) == 1
    ):
        raise QueryError(
            f"aggregate target {shown!r} must be a single descendant step"
            " (//tag, optionally with one [. = \"text\"] predicate);"
            " use aggregate_distribution_enumerated for general queries"
        )
    step = ast.steps[0]
    if step.axis != AXIS_DESCENDANT or not isinstance(step.test, NameTest):
        raise QueryError(
            f"aggregate target {shown!r} must name elements on the"
            " descendant axis (//tag)"
        )
    text: Optional[str] = None
    if step.predicates:
        predicate = step.predicates[0] if len(step.predicates) == 1 else None
        if (
            predicate is not None
            and isinstance(predicate, BinaryOp)
            and predicate.op == "="
            and isinstance(predicate.right, Literal)
            and isinstance(predicate.left, Path)
            and not predicate.left.absolute
            and predicate.left.base is None
            and len(predicate.left.steps) == 1
            and predicate.left.steps[0].axis == AXIS_SELF
            and isinstance(predicate.left.steps[0].test, NodeTest)
            and not predicate.left.steps[0].predicates
        ):
            text = predicate.right.value
        else:
            raise QueryError(
                f"aggregate target {shown!r} supports exactly one"
                " [. = \"text\"] predicate; use"
                " aggregate_distribution_enumerated for general predicates"
            )
    return step.test.name, text


@lru_cache(maxsize=4096)
def _compile_aggregate_cached(
    kind: str, target: str, text: Optional[str]
) -> AggregateSpec:
    if kind not in AGGREGATE_KINDS:
        raise QueryError(
            f"unknown aggregate kind {kind!r};"
            f" expected one of {', '.join(AGGREGATE_KINDS)}"
        )
    # Bare names take the same validation path as XPath spellings — a
    # target like "m/x" must raise, never silently match nothing.
    expression = target if target.startswith("/") else f"//{target}"
    tag, target_text = _destructure_target(compile_plan(expression))
    if text is not None and target_text is not None and text != target_text:
        raise QueryError(
            f"conflicting text filters: target carries {target_text!r},"
            f" text= says {text!r}"
        )
    text = target_text if target_text is not None else text
    plan = compile_plan(f"//{tag}")
    fingerprint = ("aggregate", kind, plan.fingerprint, text)
    digest = hashlib.sha256(
        _encode_fingerprint(fingerprint).encode("utf-8")
    ).hexdigest()
    return AggregateSpec(kind, tag, text, plan, fingerprint, digest)


def compile_aggregate(
    kind: str, target: str, *, text: Optional[str] = None
) -> AggregateSpec:
    """Compile an aggregate over a structural target.

    ``target`` is an element name (``"movie"``, ``"*"``) or the
    equivalent XPath spelling (``"//movie"``, ``'//movie[. = "Jaws"]'``)
    — both compile through :func:`~repro.query.plan.compile_plan` to the
    same canonical fingerprint, so they share one cache identity.
    ``text`` adds (or must agree with) the leaf-text equality filter.

    >>> compile_aggregate("count", "movie").digest == \\
    ...     compile_aggregate("count", "//movie").digest
    True
    """
    if not isinstance(target, str) or not target:
        raise QueryError(f"invalid aggregate target {target!r}")
    return _compile_aggregate_cached(kind, target, text)


# -- numeric values ------------------------------------------------------------

def _numeric(text: str, *, what: str) -> Fraction:
    """Exact numeric value of a text realisation: integers, ratios
    (``7/2``) and decimal strings (``2.5``), never floats."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise QueryError(
            f"{what} value {text!r} is not numeric; sum/min/max aggregate"
            " numeric text values only"
        ) from None


def _normalize_key(value: AggregateKey) -> AggregateKey:
    """Canonical key form: integral Fractions become ints (``Fraction(2)``
    and ``2`` are ``==`` and hash-equal, but one canonical type keeps
    cached, persisted and freshly-computed distributions identical)."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def canonical_items(
    distribution: AggregateDistribution,
) -> list[tuple[AggregateKey, Fraction]]:
    """Canonically ordered, key-normalized ``(value, probability)``
    pairs: the no-match outcome (``None``) first, then ascending.

    The one ordering/normalization rule of the subsystem — the
    in-memory canonical form and the persisted/wire codec
    (:func:`repro.dbms.cache_store.encode_aggregate_distribution`) both
    derive from it, so they cannot drift.
    """
    return sorted(
        (
            (_normalize_key(key), probability)
            for key, probability in distribution.items()
        ),
        key=lambda item: (
            item[0] is not None,
            item[0] if item[0] is not None else 0,
        ),
    )


def _canonical(distribution: AggregateDistribution) -> AggregateDistribution:
    return dict(canonical_items(distribution))


# -- the bottom-up convolution -------------------------------------------------

def _add(a: AggregateKey, b: AggregateKey) -> AggregateKey:
    return _normalize_key(a + b)


def _opt_min(a: AggregateKey, b: AggregateKey) -> AggregateKey:
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _opt_max(a: AggregateKey, b: AggregateKey) -> AggregateKey:
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


#: kind -> (combine op, identity key).  ``exists`` derives from ``count``.
_MONOIDS: dict[str, tuple[Callable, AggregateKey]] = {
    "count": (_add, 0),
    "sum": (_add, 0),
    "min": (_opt_min, None),
    "max": (_opt_max, None),
}


class _StructuralAggregator:
    """Bottom-up convolution over the fragment with exact tree
    semantics: elements matched by (tag, optional leaf-text equality),
    children independent given the parent, possibilities mixed.  A
    :class:`~repro.pxml.treefold.TreeFold`: the traversal, and its one
    deadline poll per probability node, is
    :func:`~repro.pxml.treefold.fold_tree`'s."""

    def __init__(self, spec: AggregateSpec):
        self.spec = spec
        self.op, self.identity = _MONOIDS[spec.kind]

    # -- per-element contribution -------------------------------------------

    def _own(self, element: PXElement) -> AggregateDistribution:
        spec = self.spec
        if spec.tag != "*" and element.tag != spec.tag:
            return {self.identity: ONE}
        if spec.text is not None:
            # Predicate-filtered: the hit mass carries the aggregate
            # contribution, the miss mass the identity.
            hit, miss = self._text_split(element)
            distribution: AggregateDistribution = {}
            if miss > 0:
                distribution[self.identity] = miss
            if hit > 0:
                key = 1 if spec.kind == "count" else _normalize_key(
                    _numeric(spec.text, what=f"<{element.tag}> filter")
                )
                distribution[key] = distribution.get(key, ZERO) + hit
            return distribution
        if spec.kind == "count":
            return {1: ONE}
        # Unfiltered sum/min/max: the element's numeric value distribution.
        return self._value_distribution(element)

    def _leaf_choices(self, element: PXElement) -> list[tuple[str, Fraction]]:
        """(string value, probability) realisations of a *leaf* element —
        no children, or one probability child whose possibilities hold
        text only.  Deeper shapes have no compact value distribution here
        and raise :class:`QueryError` (use the enumerated reference)."""
        if not element.children:
            return [("", ONE)]
        if len(element.children) != 1:
            raise QueryError(
                f"aggregate over <{element.tag}> supports single-choice"
                " leaves only; use aggregate_distribution_enumerated for"
                " general shapes"
            )
        choices: list[tuple[str, Fraction]] = []
        for possibility in element.children[0].possibilities:
            if any(isinstance(c, PXElement) for c in possibility.children):
                raise QueryError(
                    f"aggregate over <{element.tag}> supports leaf elements"
                    " only; use aggregate_distribution_enumerated for"
                    " general shapes"
                )
            value = "".join(
                child.value
                for child in possibility.children
                if isinstance(child, PXText)
            ).strip()
            choices.append((value, possibility.prob))
        return choices

    def _text_split(self, element: PXElement) -> tuple[Fraction, Fraction]:
        """(P(value == text filter), P(it does not)) for a leaf element."""
        hit = ZERO
        miss = ZERO
        for value, prob in self._leaf_choices(element):
            if value == self.spec.text:
                hit += prob
            else:
                miss += prob
        return hit, miss

    def _value_distribution(self, element: PXElement) -> AggregateDistribution:
        distribution: AggregateDistribution = {}
        for value, prob in self._leaf_choices(element):
            key = _normalize_key(_numeric(value, what=f"<{element.tag}>"))
            distribution[key] = distribution.get(key, ZERO) + prob
        return distribution

    # -- the fold (run by repro.pxml.treefold.fold_tree) ---------------------

    def enter(self, element: PXElement, state: None) -> tuple[None, bool]:
        return state, True

    def element(
        self,
        element: PXElement,
        state: None,
        children: list[AggregateDistribution],
    ) -> AggregateDistribution:
        total = self._own(element)
        for distribution in children:
            total = convolve(total, distribution, self.op)
        return total

    def prob(
        self,
        node: ProbNode,
        state: None,
        possibilities: list[list[AggregateDistribution]],
    ) -> AggregateDistribution:
        parts = []
        for possibility, elements in zip(node.possibilities, possibilities):
            branch: AggregateDistribution = {self.identity: ONE}
            for distribution in elements:
                branch = convolve(branch, distribution, self.op)
            parts.append((possibility.prob, branch))
        return mixture(parts)


# -- public entry points -------------------------------------------------------

# The "exists" kind re-aggregates as a count and thresholds the result;
# the inner call is always a non-"exists" kind, so the self-call cannot
# nest beyond depth 1 (document size never drives it).
# impreciselint: disable=no-recursion -- bounded depth-1 self-call
def aggregate_distribution(
    document: PXDocument,
    kind: Union[str, AggregateSpec],
    target: Optional[str] = None,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> AggregateDistribution:
    """Exact distribution of an aggregate over ``document``.

    Pass ``(kind, target)`` strings (see :func:`compile_aggregate`) or a
    pre-compiled :class:`AggregateSpec` as ``kind``.  Results are
    memoized under the spec's fingerprint in the document's shared
    :class:`~repro.pxml.events_cache.EventProbabilityCache` (same table,
    same invalidation rules as query answers), so repeated aggregates —
    dashboards polling the same counts — cost one convolution per
    document lifetime.  The returned mapping is always a private copy:
    mutating it never corrupts the cache.

    >>> from repro.pxml import certain_document
    >>> from repro.xmlkit import parse_document
    >>> doc = certain_document(parse_document("<r><p>3</p><p>4</p></r>"))
    >>> aggregate_distribution(doc, "sum", "p")
    {7: Fraction(1, 1)}
    """
    if isinstance(kind, AggregateSpec):
        if target is not None or text is not None:
            raise QueryError(
                "pass either a compiled AggregateSpec or (kind, target,"
                " text=), not both"
            )
        spec = kind
    else:
        if target is None:
            raise QueryError("aggregate_distribution needs a target")
        spec = compile_aggregate(kind, target, text=text)
    if cache is None and use_cache:
        cache = cache_for(document)
    if cache is not None:
        cached = cache.aggregate(document, spec.fingerprint)
        if cached is not None:
            return dict(cached)
    if spec.kind == "exists":
        counts = aggregate_distribution(
            document, spec.count_spec(), cache=cache, use_cache=use_cache
        )
        zero_mass = counts.get(0, ZERO)
        distribution: AggregateDistribution = {}
        if zero_mass > 0:
            distribution[0] = zero_mass
        if zero_mass < ONE:
            distribution[1] = ONE - zero_mass
    else:
        distribution = _canonical(
            fold_tree(document.root, _StructuralAggregator(spec), None)
        )
    if cache is not None:
        # Store a private copy and return the freshly-built mapping:
        # exactly one copy per call, and the caller can never alias (and
        # so never mutate) the cached entry.
        cache.store_aggregate(document, spec.fingerprint, dict(distribution))
    return distribution


def count_distribution(
    document: PXDocument,
    tag: str,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> CountDistribution:
    """Exact distribution of ``count(//tag)`` (optionally of elements
    whose text equals ``text``), computed by tree convolution.

    >>> from repro.pxml import certain_document
    >>> from repro.xmlkit import parse_document
    >>> doc = certain_document(parse_document("<r><m/><m/></r>"))
    >>> count_distribution(doc, "m")
    {2: Fraction(1, 1)}
    """
    return aggregate_distribution(
        document, "count", tag, text=text, cache=cache, use_cache=use_cache
    )


def sum_distribution(
    document: PXDocument,
    target: str,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> AggregateDistribution:
    """Exact distribution of the sum of matching numeric values (0 when
    nothing matches)."""
    return aggregate_distribution(
        document, "sum", target, text=text, cache=cache, use_cache=use_cache
    )


def min_distribution(
    document: PXDocument,
    target: str,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> AggregateDistribution:
    """Exact distribution of the smallest matching numeric value
    (``None`` carries the no-match probability)."""
    return aggregate_distribution(
        document, "min", target, text=text, cache=cache, use_cache=use_cache
    )


def max_distribution(
    document: PXDocument,
    target: str,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> AggregateDistribution:
    """Exact distribution of the largest matching numeric value
    (``None`` carries the no-match probability)."""
    return aggregate_distribution(
        document, "max", target, text=text, cache=cache, use_cache=use_cache
    )


def exists_probability(
    document: PXDocument,
    target: str,
    *,
    text: Optional[str] = None,
    cache: Optional[EventProbabilityCache] = None,
    use_cache: bool = True,
) -> Fraction:
    """P(at least one element matches) — derived from (and sharing the
    memo of) the count distribution."""
    distribution = aggregate_distribution(
        document, "exists", target, text=text, cache=cache, use_cache=use_cache
    )
    return distribution.get(1, ZERO)


# -- the per-world reference ---------------------------------------------------

def aggregate_distribution_enumerated(
    document: PXDocument,
    kind: str,
    target: str,
    *,
    text: Optional[str] = None,
    limit: Optional[int] = DEFAULT_WORLD_LIMIT,
) -> AggregateDistribution:
    """Aggregate distribution by per-world evaluation — the reference
    semantics the differential suite pins every pushdown against.

    Supports every document shape (no leaf restriction); the pushdown
    must agree Fraction-for-Fraction wherever it applies.
    """
    spec = compile_aggregate(kind, target, text=text)
    xpath = XPath(f"//{spec.tag}")
    # Only a text filter and the numeric kinds read the selected text.
    reads_text = spec.text is not None or spec.kind not in ("count", "exists")
    distribution: AggregateDistribution = {}
    for world in iter_worlds(document, limit=limit):
        result = xpath.evaluate(world.document)
        if not isinstance(result, list):
            raise QueryError("aggregate queries must select nodes")
        selected = [node for node in result if isinstance(node, XElement)]
        values = [node.text().strip() for node in selected] if reads_text else []
        if spec.text is not None:
            values = [value for value in values if value == spec.text]
        size = len(values) if reads_text else len(selected)
        if spec.kind == "count":
            key: AggregateKey = size
        elif spec.kind == "exists":
            key = 1 if size else 0
        else:
            numbers = [
                _numeric(value, what=f"<{spec.tag}>") for value in values
            ]
            if spec.kind == "sum":
                key = _normalize_key(sum(numbers, ZERO))
            elif not numbers:
                key = None
            elif spec.kind == "min":
                key = _normalize_key(min(numbers))
            else:
                key = _normalize_key(max(numbers))
        distribution[key] = distribution.get(key, ZERO) + world.probability
    return _canonical(distribution)


def count_distribution_enumerated(
    document: PXDocument,
    expression: str,
    *,
    limit: Optional[int] = DEFAULT_WORLD_LIMIT,
) -> CountDistribution:
    """Distribution of ``count(<expression>)`` by per-world evaluation —
    the reference semantics, supporting arbitrary XPath."""
    xpath = XPath(expression)
    distribution: CountDistribution = {}
    for world in iter_worlds(document, limit=limit):
        result = xpath.evaluate(world.document)
        if not isinstance(result, list):
            raise QueryError("count queries must select nodes")
        key = len(result)
        distribution[key] = distribution.get(key, ZERO) + world.probability
    return dict(sorted(distribution.items()))


# -- moments and display -------------------------------------------------------

def expected_value(distribution: AggregateDistribution) -> Fraction:
    """Mean of an aggregate distribution.  Undefined (raises
    :class:`QueryError`) when the no-match outcome (``None``) carries
    probability — there is no value to average in those worlds."""
    total = ZERO
    for key, prob in distribution.items():
        if key is None:
            raise QueryError(
                "expected_value is undefined when no element matches with"
                f" probability {prob}"
            )
        total += Fraction(key) * prob
    return total


def expected_count(distribution: CountDistribution) -> Fraction:
    """Mean of a count distribution."""
    return expected_value(distribution)


def count_quantile(distribution: CountDistribution, quantile: Fraction) -> int:
    """Smallest count c with P(count ≤ c) ≥ quantile."""
    if not ZERO <= quantile <= ONE:
        raise QueryError(f"quantile {quantile} outside [0, 1]")
    cumulative = ZERO
    last = 0
    for count in sorted(distribution):
        cumulative += distribution[count]
        last = count
        if cumulative >= quantile:
            return count
    return last


def format_distribution(distribution: AggregateDistribution) -> str:
    """Render an aggregate distribution, one ``value  percent (exact)``
    line per outcome — the display ``imprecise query --aggregate`` and
    the serve protocol share."""
    lines = []
    for key, prob in distribution.items():
        shown = "(no match)" if key is None else str(key)
        lines.append(f"{format_percent(prob):>4s} {shown}  ({prob})")
    return "\n".join(lines)
