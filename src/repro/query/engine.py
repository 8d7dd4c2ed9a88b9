"""Query evaluation over probabilistic XML.

The engine executes compiled plans (:mod:`repro.query.plan`) against the
probabilistic tree: every navigation through a probability node conjoins
the corresponding choice literal, so each visited node carries the *event*
of its existence.  Predicates compile to events too; the probability that
a value belongs to the answer is then the exact probability of an
OR-of-occurrences event (:func:`repro.pxml.events.event_probability`).
Events are hash-consed (:mod:`repro.pxml.events`): the conjunctions this
traversal builds at every step intern to canonical instances, so the
events of overlapping paths share structure, carry precomputed
variable/occurrence metadata, and hit the probability memo by digest.

Supported probabilistically (a superset of both §VI paper queries):
child/descendant/self/parent/attribute axes, name/text()/node() tests,
``and or not()``, comparisons against literals and between paths
(=, !=, <, <=, >, >=; numeric when both sides look numeric),
``contains/starts-with/ends-with``, ``some/every $v in … satisfies …``,
``true()/false()``.  Value comparisons treat an element's value as the set
of its descendant text realisations — exact for leaf-structured data (see
DESIGN.md).  Positional predicates and arithmetic inside predicates have
no possible-worlds compilation here and raise :class:`QueryError` — at
*compile* time, before any document is touched.

Which path prices what (all exact, all per document):

* :meth:`ProbQueryEngine.query` (and so ``run``, ``run_batch``, the
  dataspace service and feedback's ranked answers) prices an *anchored*
  plan (:class:`~repro.query.plan.Anchor` — e.g. ``//person/tel``,
  ``//tel/text()``, ``//person[nm="n0"]/tel``) in one bottom-up pass
  over the tree (:mod:`repro.query.treepass`): a mixture at every
  probability node, an independent OR at every element.  An anchor
  that is the answer node contributes its string-value distribution
  with no events at all; an anchor carrying predicates or later steps
  contributes its *anchor-local* events, which this engine's walk
  builds from the anchor and the document's shared
  :class:`~repro.pxml.events_cache.EventProbabilityCache` prices.  The
  priced answer is memoized in the cache's answer side table under the
  plan's fingerprint;
* every other plan, and an anchored plan over a document that nests
  one anchor inside another, is walked into per-value answer events
  (cached under the plan's fingerprint, so a re-run skips the walk) and
  priced through the shared cache.  Its misses are priced top-down:
  each event is compiled into a component-factored plan
  (:mod:`repro.pxml.events_compile`) whose products mirror the
  independence structure the traversal built, and literal and
  small-conjunction rows resolve through the cross-document
  :class:`~repro.pxml.events_compile.LiteralProbabilityTable`;
* :meth:`~ProbQueryEngine.answer_events`,
  :meth:`~ProbQueryEngine.answer_probability`,
  :meth:`~ProbQueryEngine.exists_probability` and feedback conditioning
  always take the walk: answer events are the unit they observe.

Construct with ``use_cache=False`` for the uncached reference behaviour
(``cache=None`` is the default and means "use the document's shared
cache") — the uncached path is the walk plus the pure bottom-up kernel
for every plan, benchmarks compare against it, and the test suite
asserts the paths are Fraction-equal.

``query_enumeration`` provides the literal per-world semantics as the
reference implementation (exponential; guarded by a world limit).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..deadline import checkpoint
from ..errors import QueryError
from ..pxml.events import (
    Event,
    FALSE_EVENT,
    TRUE_EVENT,
    all_of,
    any_of,
    event_probability,
    lit,
    negate,
)
from ..pxml.events_cache import EventProbabilityCache, cache_for
from ..pxml.events_compile import CompiledEvent, compile_event
from ..pxml.model import PXDocument, PXElement, PXText, ProbNode
from ..pxml.treefold import fold_tree
from ..pxml.worlds import DEFAULT_WORLD_LIMIT, iter_worlds
from ..xmlkit.nodes import XDocument, XElement, XText
from ..xmlkit.xpath import XPath
from ..xmlkit.xpath.ast import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_DESCENDANT,
    AXIS_PARENT,
    AXIS_SELF,
    BinaryOp,
    FunctionCall,
    Literal,
    Negate,
    Number,
    Path,
    Quantified,
    Step,
    Union as UnionExpr,
    VarRef,
    XPathNode,
)
from .plan import PAttr, QueryPlan, compile_plan
from .ranking import (
    RankedAnswer,
    RankedItem,
    merge_ranked,
    ranked_from_events,
    ranked_from_probabilities,
)
from .treepass import (
    MAX_VALUE_ALTERNATIVES,
    PricedAnswer,
    price_anchored,
    too_many_values,
)

_DOC = object()  # sentinel for the virtual document node

#: Accepted query forms: source text, parsed AST, or compiled plan.
QueryLike = Union[str, XPathNode, QueryPlan]


class PContext:
    """A visited node together with its existence event and parent link."""

    __slots__ = ("node", "event", "parent")

    def __init__(self, node: object, event: Event, parent: Optional["PContext"]):
        self.node = node  # _DOC | PXElement | PXText | PAttr
        self.event = event
        self.parent = parent

    def child_contexts(self) -> Iterator["PContext"]:
        node = self.node
        if node is _DOC:
            raise QueryError("document context children are engine-internal")
        if not isinstance(node, PXElement):
            return
        for prob_child in node.children:
            for index, possibility in enumerate(prob_child.possibilities):
                child_event = all_of([self.event, lit(prob_child, index)])
                if child_event is FALSE_EVENT:
                    continue
                for child in possibility.children:
                    yield PContext(child, child_event, self)


class ProbQueryEngine:
    """Compiled-plan query evaluation over one probabilistic document.

    By default the engine shares the document's event-probability cache
    (:func:`repro.pxml.events_cache.cache_for`); pass ``use_cache=False``
    for fully uncached evaluation, or ``cache=`` to share an explicit
    cache instance.

    >>> from repro.xmlkit import parse_document
    >>> from repro.pxml import certain_document
    >>> doc = certain_document(parse_document("<r><m><t>Jaws</t></m></r>"))
    >>> ProbQueryEngine(doc).query("//m/t").values()
    ['Jaws']
    """

    def __init__(
        self,
        document: PXDocument,
        *,
        cache: Optional[EventProbabilityCache] = None,
        use_cache: bool = True,
    ):
        self.document = document
        self.cache: Optional[EventProbabilityCache]
        if cache is not None:
            self.cache = cache
        elif use_cache:
            self.cache = cache_for(document)
        else:
            self.cache = None
        self._root_context = PContext(_DOC, TRUE_EVENT, None)
        self._plans: dict[str, QueryPlan] = {}

    # -- public API ---------------------------------------------------------

    def compile(self, expression: QueryLike) -> QueryPlan:
        """Compile (and memoize, for strings) a query into a reusable plan."""
        if isinstance(expression, QueryPlan):
            return expression
        if isinstance(expression, str):
            plan = self._plans.get(expression)
            if plan is None:
                plan = compile_plan(expression)
                self._plans[expression] = plan
            return plan
        return compile_plan(expression)

    def query(self, expression: QueryLike) -> RankedAnswer:
        """Evaluate a node-selecting XPath; returns the amalgamated ranked
        answer over the value realisations of the selected nodes.

        With caching on, an anchored plan (:class:`~repro.query.plan.
        Anchor`) is priced by the one-pass tree DP of
        :mod:`repro.query.treepass` and memoized per document; every
        other plan, and an anchored plan over a document that nests one
        anchor inside another, is walked into answer events and priced
        through the shared cache."""
        plan = self.compile(expression)
        if self.cache is not None:
            priced = price_anchored(
                self.document, plan, self.cache, partial(self._local_answer, plan)
            )
            if priced is not None:
                return ranked_from_probabilities(
                    priced, [probability for probability, _ in priced.values()]
                )
        contributions = self.answer_events(plan)
        return ranked_from_events(contributions, self.probabilities)

    def answer_events(self, expression: QueryLike) -> dict[str, tuple[Event, int]]:
        """For each distinct answer value: (event that it appears, number
        of contributing occurrences).  The building block for querying,
        feedback conditioning, and quality measures.

        The result is cached per document under the plan's fingerprint;
        treat it as shared and read-only.
        """
        plan = self.compile(expression)
        checkpoint()
        if self.cache is not None:
            cached = self.cache.answer_events(self.document, plan.fingerprint)
            if cached is not None:
                return cached
        events = self._compute_answer_events(plan)
        if self.cache is not None:
            self.cache.store_answer_events(self.document, plan.fingerprint, events)
        return events

    def compiled_answer_events(
        self, expression: QueryLike
    ) -> dict[str, tuple[CompiledEvent, int]]:
        """The answer events of ``expression``, compiled into
        component-factored pricing plans
        (:func:`repro.pxml.events_compile.compile_event`) — the shape
        the cache prices misses through.  Exposed so tests and tools can
        inspect the factoring the engine's traversal produced (e.g. the
        variable-disjointness invariant of every product/coproduct)."""
        return {
            value: (compile_event(event), count)
            for value, (event, count) in self.answer_events(expression).items()
        }

    def answer_probability(self, expression: QueryLike, value: str) -> Fraction:
        """P(value ∈ answer)."""
        events = self.answer_events(expression)
        if value not in events:
            return Fraction(0)
        return self._probability(events[value][0])

    def exists_probability(self, expression: QueryLike) -> Fraction:
        """P(the query selects at least one node)."""
        plan = self.compile(expression)
        results = self._eval_nodeset(plan, plan.ast, self._root_context, {})
        return self._probability(any_of(ctx.event for ctx in results))

    # -- cache plumbing -----------------------------------------------------

    def _probability(self, event: Event) -> Fraction:
        if self.cache is not None:
            return self.cache.probability(event)
        return event_probability(event)

    def probabilities(self, events: Sequence[Event]) -> list[Fraction]:
        """Bulk exact probabilities, aligned with ``events`` — one pass
        through the shared cache (smallest-event-first factoring) when
        caching is enabled.  The public entry point for consumers that
        price many events of one document (ranking, approximate top-k)."""
        if self.cache is not None:
            return self.cache.probabilities_of(events)
        return [event_probability(event) for event in events]

    def _compute_answer_events(
        self, plan: QueryPlan
    ) -> dict[str, tuple[Event, int]]:
        return self._occurrence_events(
            self._eval_nodeset(plan, plan.ast, self._root_context, {})
        )

    def _local_answer(
        self, plan: QueryPlan, path: Path, element: PXElement
    ) -> PricedAnswer:
        """The tree pass's anchor-local pricing: ``path`` walked from the
        anchor ``element`` (existence taken as given), each value's
        events priced through the shared cache."""
        results = self._eval_nodeset(
            plan, path, PContext(element, TRUE_EVENT, None), {}
        )
        events = self._occurrence_events(results)
        probabilities = self.probabilities([event for event, _ in events.values()])
        return {
            value: (probability, count)
            for (value, (_, count)), probability in zip(
                events.items(), probabilities
            )
        }

    def _occurrence_events(
        self, results: list[PContext]
    ) -> dict[str, tuple[Event, int]]:
        """value -> (OR of its occurrence events, occurrences) over the
        selected nodes ``results``."""
        contributions: dict[str, list[Event]] = {}
        counts: dict[str, int] = {}
        known: _KnownValues = {}
        for context in results:
            checkpoint()
            for value, event in self._value_alternatives(context, known):
                if not value:
                    continue
                contributions.setdefault(value, []).append(event)
                counts[value] = counts.get(value, 0) + 1
        return {
            value: (any_of(events), counts[value])
            for value, events in contributions.items()
        }

    # -- navigation -----------------------------------------------------------

    def _document_children(self) -> Iterator[PContext]:
        root_prob = self.document.root
        for index, possibility in enumerate(root_prob.possibilities):
            event = lit(root_prob, index)
            for child in possibility.children:
                yield PContext(child, event, self._root_context)

    def _axis(self, context: PContext, axis: str) -> Iterator[PContext]:
        if axis == AXIS_SELF:
            yield context
            return
        if axis == AXIS_CHILD:
            if context.node is _DOC:
                yield from self._document_children()
            else:
                yield from context.child_contexts()
            return
        if axis == AXIS_DESCENDANT:
            # Pre-order, in document order, on an explicit stack of the
            # open nodes' child iterators.
            stack = [
                self._document_children()
                if context.node is _DOC
                else context.child_contexts()
            ]
            while stack:
                child = next(stack[-1], None)
                if child is None:
                    stack.pop()
                    continue
                yield child
                stack.append(child.child_contexts())
            return
        if axis == AXIS_PARENT:
            if context.parent is not None:
                yield context.parent
            return
        if axis == AXIS_ATTRIBUTE:
            node = context.node
            if isinstance(node, PXElement):
                for name in sorted(node.attributes):
                    yield PContext(
                        PAttr(node, name, node.attributes[name]),
                        context.event,
                        context,
                    )
            return
        raise QueryError(f"unsupported axis {axis!r} over probabilistic XML")

    # -- path evaluation --------------------------------------------------------

    def _eval_nodeset(
        self,
        plan: QueryPlan,
        ast: XPathNode,
        context: PContext,
        variables: dict[str, PContext],
    ) -> list[PContext]:
        if isinstance(ast, Path):
            if ast.base is not None:
                starts = self._eval_nodeset(plan, ast.base, context, variables)
            elif ast.absolute:
                starts = [self._root_context]
            else:
                starts = [context]
            current = starts
            for step in ast.steps:
                current = self._eval_step(plan, step, current, variables)
            return self._dedupe(current)
        if isinstance(ast, UnionExpr):
            left = self._eval_nodeset(plan, ast.left, context, variables)
            right = self._eval_nodeset(plan, ast.right, context, variables)
            return self._dedupe(left + right)
        if isinstance(ast, VarRef):
            if ast.name not in variables:
                raise QueryError(f"unbound variable ${ast.name}")
            return [variables[ast.name]]
        raise QueryError(
            f"expression does not select nodes: {type(ast).__name__}"
        )

    @staticmethod
    def _dedupe(contexts: list[PContext]) -> list[PContext]:
        # The same tree node can be reached along the same path only once,
        # but unions/descendant overlaps may duplicate; merge by node
        # identity, OR-ing events.
        merged: dict[int, PContext] = {}
        order: list[int] = []
        for context in contexts:
            key = id(context.node)
            if key in merged:
                existing = merged[key]
                merged[key] = PContext(
                    existing.node,
                    any_of([existing.event, context.event]),
                    existing.parent,
                )
            else:
                merged[key] = context
                order.append(key)
        return [merged[key] for key in order]

    def _eval_step(
        self,
        plan: QueryPlan,
        step: Step,
        contexts: list[PContext],
        variables: dict[str, PContext],
    ) -> list[PContext]:
        step_plan = plan.step(step)
        matches = step_plan.matches
        results: list[PContext] = []
        for context in contexts:
            checkpoint()
            for candidate in self._axis(context, step_plan.axis):
                if not matches(candidate.node):
                    continue
                event = candidate.event
                failed = False
                for predicate in step_plan.predicates:
                    predicate_event = self._predicate_event(
                        plan, predicate, candidate, variables
                    )
                    event = all_of([event, predicate_event])
                    if event is FALSE_EVENT:
                        failed = True
                        break
                if not failed:
                    results.append(
                        PContext(candidate.node, event, candidate.parent)
                    )
        return results

    # -- predicates → events ------------------------------------------------------

    def _predicate_event(
        self,
        plan: QueryPlan,
        ast: XPathNode,
        context: PContext,
        variables: dict[str, PContext],
    ) -> Event:
        if isinstance(ast, (Path, UnionExpr, VarRef)):
            # Existence test.
            nodes = self._eval_nodeset(plan, ast, context, variables)
            return any_of(node.event for node in nodes)
        if isinstance(ast, Literal):
            return TRUE_EVENT if ast.value else FALSE_EVENT
        if isinstance(ast, Number):
            raise QueryError(
                "positional predicates have no possible-worlds semantics here"
            )
        if isinstance(ast, Negate):
            raise QueryError("arithmetic is not supported in probabilistic queries")
        if isinstance(ast, BinaryOp):
            if ast.op == "and":
                return all_of(
                    [
                        self._predicate_event(plan, ast.left, context, variables),
                        self._predicate_event(plan, ast.right, context, variables),
                    ]
                )
            if ast.op == "or":
                return any_of(
                    [
                        self._predicate_event(plan, ast.left, context, variables),
                        self._predicate_event(plan, ast.right, context, variables),
                    ]
                )
            if ast.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_event(plan, ast, context, variables)
            raise QueryError(
                f"operator {ast.op!r} is not supported in probabilistic queries"
            )
        if isinstance(ast, FunctionCall):
            return self._function_event(plan, ast, context, variables)
        if isinstance(ast, Quantified):
            return self._quantified_event(plan, ast, context, variables)
        raise QueryError(f"unsupported predicate {type(ast).__name__}")

    def _quantified_event(
        self,
        plan: QueryPlan,
        ast: Quantified,
        context: PContext,
        variables: dict[str, PContext],
    ) -> Event:
        items = self._eval_nodeset(plan, ast.sequence, context, variables)
        branch_events = []
        for item in items:
            bound = dict(variables)
            bound[ast.variable] = item
            condition = self._predicate_event(plan, ast.condition, context, bound)
            if ast.kind == "some":
                branch_events.append(all_of([item.event, condition]))
            else:
                branch_events.append(all_of([item.event, negate(condition)]))
        if ast.kind == "some":
            return any_of(branch_events)
        return negate(any_of(branch_events))

    # -- values ---------------------------------------------------------------

    def _value_alternatives(
        self, context: PContext, known: _KnownValues
    ) -> list[tuple[str, Event]]:
        """The possible string values of a node, each with the event under
        which that value is realised (absolute, includes existence).

        Element values follow XPath string-value semantics: the
        concatenation of all descendant text in document order, per world.
        ``known`` memoizes element values across the nodes of one node
        set (see :meth:`_element_values`).
        """
        node = context.node
        if isinstance(node, (PXText, PAttr)):
            return [(node.value, context.event)]
        if isinstance(node, PXElement):
            return [
                (value, all_of([context.event, event]))
                for value, event in self._element_values(node, known)
            ]
        raise QueryError("the document node has no value")

    def _element_values(
        self, element: PXElement, known: _KnownValues
    ) -> list[tuple[str, Event]]:
        """(string value, relative event) realisations of an element —
        events mention only choices below the element.

        Its probability children merge in one at a time, in document
        order.  An element child is valued when the merge reaches it, by
        a fold of its subtree on :func:`~repro.pxml.treefold.fold_tree`
        (an explicit stack, so any depth) that merges the same way:
        the order of a depth-first evaluation, so the cap raises at the
        same element.  Every element a fold values goes into ``known``,
        so the nested nodes of one node set (``//a`` over nested ``a``)
        are each valued once."""
        alternatives = known.get(id(element))
        if alternatives is None:
            alternatives = [("", TRUE_EVENT)]
            for prob_child in element.children:
                alternatives = _merge_values(
                    element, alternatives, prob_child, _fold_values, known
                )
        return alternatives

    def _operand_alternatives(
        self,
        plan: QueryPlan,
        ast: XPathNode,
        context: PContext,
        variables: dict[str, PContext],
    ) -> list[tuple[str, Event]]:
        if isinstance(ast, Literal):
            return [(ast.value, TRUE_EVENT)]
        if isinstance(ast, Number):
            number = ast.value
            text = str(int(number)) if number == int(number) else repr(number)
            return [(text, TRUE_EVENT)]
        if isinstance(ast, (Path, UnionExpr, VarRef)):
            alternatives: list[tuple[str, Event]] = []
            known: _KnownValues = {}
            for node_context in self._eval_nodeset(plan, ast, context, variables):
                alternatives.extend(self._value_alternatives(node_context, known))
            return alternatives
        raise QueryError(
            f"unsupported comparison operand {type(ast).__name__}"
        )

    @staticmethod
    def _compare(op: str, left: str, right: str) -> bool:
        if op in ("=", "!="):
            try:
                result = float(left) == float(right)
            except ValueError:
                result = left == right
            return result if op == "=" else not result
        try:
            left_num, right_num = float(left), float(right)
        except ValueError:
            return False
        if op == "<":
            return left_num < right_num
        if op == "<=":
            return left_num <= right_num
        if op == ">":
            return left_num > right_num
        return left_num >= right_num

    def _comparison_event(
        self,
        plan: QueryPlan,
        ast: BinaryOp,
        context: PContext,
        variables: dict[str, PContext],
    ) -> Event:
        left = self._operand_alternatives(plan, ast.left, context, variables)
        right = self._operand_alternatives(plan, ast.right, context, variables)
        matches = []
        for left_value, left_event in left:
            for right_value, right_event in right:
                if self._compare(ast.op, left_value, right_value):
                    matches.append(all_of([left_event, right_event]))
        return any_of(matches)

    def _function_event(
        self,
        plan: QueryPlan,
        ast: FunctionCall,
        context: PContext,
        variables: dict[str, PContext],
    ) -> Event:
        if ast.name == "not":
            if len(ast.args) != 1:
                raise QueryError("not() takes exactly one argument")
            return negate(
                self._predicate_event(plan, ast.args[0], context, variables)
            )
        if ast.name == "true":
            return TRUE_EVENT
        if ast.name == "false":
            return FALSE_EVENT
        if ast.name in ("contains", "starts-with", "ends-with"):
            if len(ast.args) != 2:
                raise QueryError(f"{ast.name}() takes exactly two arguments")
            left = self._operand_alternatives(plan, ast.args[0], context, variables)
            right = self._operand_alternatives(plan, ast.args[1], context, variables)
            checks = {
                "contains": lambda a, b: b in a,
                "starts-with": lambda a, b: a.startswith(b),
                "ends-with": lambda a, b: a.endswith(b),
            }
            check = checks[ast.name]
            matches = [
                all_of([left_event, right_event])
                for left_value, left_event in left
                for right_value, right_event in right
                if check(left_value, right_value)
            ]
            return any_of(matches)
        raise QueryError(
            f"function {ast.name}() is not supported in probabilistic queries"
        )


#: id(element) -> its (string value, relative event) alternatives, for
#: the elements valued while one node set is evaluated.
_KnownValues = dict[int, list[tuple[str, Event]]]

#: Gives an element child's alternatives while its parent merges.
_ValuesOf = Callable[[PXElement, _KnownValues], list[tuple[str, Event]]]


def _merge_values(
    element: PXElement,
    alternatives: list[tuple[str, Event]],
    prob_child: ProbNode,
    values_of: _ValuesOf,
    known: _KnownValues,
) -> list[tuple[str, Event]]:
    """``element``'s ``alternatives`` with the values of its probability
    child ``prob_child`` concatenated on; ``values_of(child, known)``
    values each element child as the merge reaches it."""
    branch_values: list[tuple[str, Event]] = []
    for index, possibility in enumerate(prob_child.possibilities):
        partial: list[tuple[str, Event]] = [("", lit(prob_child, index))]
        for child in possibility.children:
            if isinstance(child, PXText):
                partial = [(text + child.value, event) for text, event in partial]
            else:
                sub_values = values_of(child, known)
                partial = [
                    (text + sub_text, all_of([event, sub_event]))
                    for text, event in partial
                    for sub_text, sub_event in sub_values
                ]
        branch_values.extend(partial)
    merged: list[tuple[str, Event]] = []
    for text, event in alternatives:
        for branch_text, branch_event in branch_values:
            merged.append((text + branch_text, all_of([event, branch_event])))
    alternatives = _dedupe_values(merged)
    if len(alternatives) > MAX_VALUE_ALTERNATIVES:
        raise too_many_values(element)
    return alternatives


def _dedupe_values(
    alternatives: list[tuple[str, Event]]
) -> list[tuple[str, Event]]:
    grouped: dict[str, list[Event]] = {}
    order: list[str] = []
    for value, event in alternatives:
        if value not in grouped:
            order.append(value)
        grouped.setdefault(value, []).append(event)
    return [(value, any_of(grouped[value])) for value in order]


def _known_values(
    element: PXElement, known: _KnownValues
) -> list[tuple[str, Event]]:
    return known[id(element)]


class _ValueFold:
    """The fold of :func:`_fold_values`.  An element's state is
    ``[element, its alternatives so far]``; each probability child
    merges into its parent's state when its subtree is done (its element
    children already in ``known``), and the element folds to its
    finished alternatives, recorded in ``known``.  An element already in
    ``known`` is not descended into."""

    def __init__(self, known: _KnownValues) -> None:
        self.known = known

    def enter(self, element: PXElement, state: object) -> tuple[list[Any], bool]:
        alternatives = self.known.get(id(element))
        if alternatives is None:
            return [element, [("", TRUE_EVENT)]], True
        return [element, alternatives], False

    def element(
        self, element: PXElement, state: list[Any], children: list[object]
    ) -> list[tuple[str, Event]]:
        self.known[id(element)] = state[1]
        return state[1]

    def prob(
        self, node: ProbNode, state: list[Any], possibilities: list[list[object]]
    ) -> None:
        state[1] = _merge_values(state[0], state[1], node, _known_values, self.known)


def _fold_values(element: PXElement, known: _KnownValues) -> list[tuple[str, Event]]:
    """``element``'s alternatives, its subtree folded on
    :func:`~repro.pxml.treefold.fold_tree`."""
    fold = _ValueFold(known)
    state, descend = fold.enter(element, None)
    if descend:
        for prob_child in element.children:
            fold_tree(prob_child, fold, state)
    return fold.element(element, state, [])


class QueryEngine(ProbQueryEngine):
    """The batch-capable query façade over one probabilistic document.

    Extends :class:`ProbQueryEngine` with the amortized entry points the
    workload benchmarks exercise:

    * :meth:`run` — evaluate one query (alias of :meth:`query`);
    * :meth:`run_batch` — evaluate many queries, a loop of :meth:`run`
      over the shared cache;
    * :meth:`cache_stats` — the shared cache's counters.

    >>> from repro.xmlkit import parse_document
    >>> from repro.pxml import certain_document
    >>> doc = certain_document(parse_document("<r><m><t>Jaws</t></m></r>"))
    >>> [a.values() for a in QueryEngine(doc).run_batch(["//m/t", "//m"])]
    [['Jaws'], ['Jaws']]
    """

    def run(self, expression: QueryLike) -> RankedAnswer:
        """Evaluate one query; identical to :meth:`query`."""
        return self.query(expression)

    def run_batch(self, expressions: Iterable[QueryLike]) -> list[RankedAnswer]:
        """Evaluate ``expressions`` in order; answers align with inputs.

        A loop of :meth:`run`, so Fraction-equal to it by construction;
        with caching on, the queries share the document's cache, and a
        sub-event common to several of them is priced once.
        """
        return [self.run(expression) for expression in expressions]

    def cache_stats(self) -> dict:
        """Counters of the shared cache ({} when caching is disabled)."""
        return self.cache.stats() if self.cache is not None else {}


def query_enumeration(
    document: PXDocument,
    expression: str,
    *,
    limit: Optional[int] = DEFAULT_WORLD_LIMIT,
) -> RankedAnswer:
    """Reference semantics: evaluate the query in every possible world and
    merge.  A value's probability is the total probability of the worlds
    whose answer contains it (duplicates within one world count once)."""
    xpath = XPath(expression)
    items: list[RankedItem] = []
    for world in iter_worlds(document, limit=limit):
        values: set[str] = set()
        result = xpath.evaluate(world.document)
        if not isinstance(result, list):
            raise QueryError("probabilistic queries must select nodes")
        for node in result:
            if isinstance(node, XElement):
                value = node.text()
            elif isinstance(node, XText):
                value = node.value
            else:
                value = getattr(node, "value", "")
            if value:
                values.add(value)
        for value in values:
            items.append(RankedItem(value, world.probability))
    return merge_ranked(items)
