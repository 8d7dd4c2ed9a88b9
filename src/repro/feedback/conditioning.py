"""Bayesian conditioning of probabilistic documents on answer feedback.

A user statement "this answer is correct" (or wrong) is an observation of
the answer's *event* — a boolean formula over choice variables produced by
the query engine.  Conditioning is exact, and every observation takes the
same path:

1. Shannon-expand the event over the variables it mentions; every
   satisfying branch is a partial assignment with weight Π p(choice);
2. mark the probability nodes whose subtree holds an event variable, and
   follow the single marked child down from the root to the lowest node
   that holds them all — the choices elsewhere are independent of the
   observation, so they keep their prior;
3. put the mixture of the branches there, each with its posterior
   weight: a branch rebuilds only the marked nodes, forcing its assigned
   choices (probability 1, siblings dropped), and shares every unmarked
   subtree with the prior;
4. compact with :func:`repro.pxml.simplify.simplify`.  Its one fold never
   mutates its input and builds every node afresh, so it makes the
   posterior's only copy: the shared subtrees never leave this module,
   and the posterior's choice variables are all new.

A certain observation has one empty branch, so its posterior is the
compacted prior.  The cost is exponential only in the number of
*variables the event mentions* (one answer's provenance), never in the
document size, and every step keeps an explicit stack, so document depth
is bounded by memory.  The test suite verifies the result equals Bayes
over enumerated worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import FeedbackError
from ..probability import ONE, ZERO
from ..pxml.events import Event, FALSE_EVENT, TRUE_EVENT, negate, pivot_variable
from ..pxml.events_cache import cache_for
from ..pxml.model import PXDocument, PXElement, Possibility, ProbNode
from ..pxml.simplify import simplify
from ..pxml.stats import tree_stats
from ..query.engine import ProbQueryEngine
from ..query.ranking import RankedAnswer

#: Refuse Shannon expansions beyond this many satisfying branches.
DEFAULT_BRANCH_LIMIT = 4096

#: A satisfying branch: a partial assignment (uid → possibility index)
#: and its weight Π p(assigned choice).
_Branch = tuple[dict[int, int], Fraction]


def _satisfying_branches(event: Event) -> list[_Branch]:
    """Disjoint partial assignments over the event's variables that make it
    true, in depth-first order of the expansion.  Weights sum to P(event)."""
    branches: list[_Branch] = []
    stack: list[tuple[Event, dict[int, int], Fraction]] = [(event, {}, ONE)]
    while stack:
        current, assignment, weight = stack.pop()
        if current is TRUE_EVENT:
            branches.append((assignment, weight))
            if len(branches) > DEFAULT_BRANCH_LIMIT:
                raise FeedbackError(
                    f"conditioning needs more than {DEFAULT_BRANCH_LIMIT}"
                    " branches; simplify the observation"
                )
            continue
        if current is FALSE_EVENT:
            continue
        # Most-mentioned variable first (same rationale as the kernel's
        # Shannon pivot): shared top-level choices collapse branches.
        # The pivot reads the counts cached on the interned event — no
        # per-step tree rescans.
        uid, node = pivot_variable(current)
        # Pushed last first, so the first possibility is expanded first.
        # Only live branches are pushed: a conjunction keeps one entry,
        # and one assignment, on the stack.
        for index in reversed(range(len(node.possibilities))):
            prob = node.possibilities[index].prob
            if prob != 0:
                branch = current.assign(uid, index)
                if branch is not FALSE_EVENT:
                    assigned = {**assignment, uid: index}
                    stack.append((branch, assigned, weight * prob))
    return branches


def _marked(root: ProbNode, variables: frozenset[int]) -> set[int]:
    """uids of the probability nodes whose subtree holds one of
    ``variables``.  One pre-order walk; a variable's node marks itself
    and its ancestors up to the first one already marked."""
    marked: set[int] = set()
    path: list[int] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        del path[depth:]
        path.append(node.uid)
        if node.uid in variables:
            for uid in reversed(path):
                if uid in marked:
                    break
                marked.add(uid)
        for possibility in node.possibilities:
            for child in possibility.children:
                if isinstance(child, PXElement):
                    stack.extend((prob, depth + 1) for prob in child.children)
    return marked


def _posterior(
    document: PXDocument, variables: frozenset[int], branches: list[_Branch]
) -> PXDocument:
    """The posterior mixture of ``branches`` (the satisfying branches of
    an event over ``variables``), before compaction.

    The mixture goes at the lowest probability node that holds every
    variable.  Descending past a choice that is not a variable is sound
    because guarded events mention the choices that make their variables
    reachable: if a node's uid is not in the event, the event is
    independent of it.  Only marked nodes are rebuilt; the result shares
    every other subtree with ``document`` (and, across branches, with
    itself), so only :func:`simplify` may read it."""
    total = sum((weight for _, weight in branches), ZERO)
    if total == 0:
        raise FeedbackError("observation has probability zero")
    marked = _marked(document.root, variables)
    stop = document.root
    while stop.uid not in variables:
        below = [
            prob
            for possibility in stop.possibilities
            for child in possibility.children
            if isinstance(child, PXElement)
            for prob in child.children
            if prob.uid in marked
        ]
        if len(below) != 1:
            break
        (stop,) = below
    root = ProbNode()
    stack: list[tuple[ProbNode, ProbNode, dict[int, int]]] = [
        (document.root, root, {})
    ]
    while stack:
        source, copy, inherited = stack.pop()
        if source is stop:
            # impreciselint: disable=float-taint -- exact Fraction/Fraction division
            mixture = [(assigned, weight / total) for assigned, weight in branches]
        else:
            mixture = [(inherited, ONE)]
        for assignment, scale in mixture:
            forced = assignment.get(source.uid)
            for index, possibility in enumerate(source.possibilities):
                if forced is not None and index != forced:
                    continue
                kept = Possibility(
                    scale if forced is not None else scale * possibility.prob
                )
                for child in possibility.children:
                    if isinstance(child, PXElement) and any(
                        prob.uid in marked for prob in child.children
                    ):
                        element = PXElement(child.tag, child.attributes)
                        for prob in child.children:
                            if prob.uid not in marked:
                                element.children.append(prob)  # shared
                                continue
                            rebuilt = ProbNode()
                            element.children.append(rebuilt)
                            stack.append((prob, rebuilt, assignment))
                        child = element
                    kept.children.append(child)  # text and unmarked: shared
                copy.possibilities.append(kept)
        if not copy.possibilities:
            raise FeedbackError(
                f"assignment removed every possibility of ▽{source.uid}"
            )
    return PXDocument(root)


def condition_on_assignment(
    document: PXDocument, assignment: dict[int, int]
) -> PXDocument:
    """Condition on a conjunction of choices (uid → possibility index).

    Exact tree surgery: observed nodes keep only the observed possibility
    (probability 1); everything else keeps its prior — valid because
    choices at different probability nodes are independent.  The
    posterior is compacted, like :func:`condition_on_event`'s.
    """
    posterior = _posterior(document, frozenset(assignment), [(assignment, ONE)])
    compacted, _ = simplify(posterior)
    return compacted


def condition_on_event(
    document: PXDocument, event: Event, *, observed: bool = True
) -> PXDocument:
    """The compacted posterior of ``document`` given that ``event`` was
    observed true (or false, with ``observed=False``).

    The posterior mixture is spliced in at the *minimal* probability node
    whose subtree holds all of the event's variables, so conditioning
    leaves unrelated parts of the document with their prior.  Raises
    :class:`FeedbackError` when the observation has probability zero —
    there is no posterior to form — or needs more than
    :data:`DEFAULT_BRANCH_LIMIT` satisfying branches.
    """
    target = event if observed else negate(event)
    if target is FALSE_EVENT:
        raise FeedbackError("cannot condition on an impossible observation")
    posterior = _posterior(
        document, target.variables(), _satisfying_branches(target)
    )
    # Conditioning is functional: compaction builds the posterior from
    # fresh nodes with fresh uids, so the input document's cache stays
    # valid — no invalidation needed (see repro.pxml.events_cache).
    compacted, _ = simplify(posterior)
    return compacted


@dataclass(frozen=True)
class FeedbackStep:
    """A record of one feedback interaction."""

    kind: str           # 'confirm' | 'reject'
    expression: str
    value: str
    prior: Fraction     # probability of the answer before feedback
    nodes_before: int
    nodes_after: int
    worlds_before: int
    worlds_after: int


class FeedbackSession:
    """Incremental integration improvement through answer feedback.

    >>> # (see examples/feedback_loop.py for an end-to-end walkthrough)

    Each :meth:`confirm`/:meth:`reject` replaces the session's document
    with its exact posterior; the history records how much uncertainty
    each interaction removed — the paper's "incrementally improving the
    integration result" loop (§I).
    """

    def __init__(self, document: PXDocument):
        self.document = document
        self.history: list[FeedbackStep] = []

    def ranked(self, expression: str) -> RankedAnswer:
        """Query the current document."""
        return ProbQueryEngine(self.document).query(expression)

    def confirm(self, expression: str, value: str) -> FeedbackStep:
        """Assert that ``value`` belongs to the answer of ``expression``."""
        return self._apply(expression, value, observed=True)

    def reject(self, expression: str, value: str) -> FeedbackStep:
        """Assert that ``value`` does *not* belong to the answer."""
        return self._apply(expression, value, observed=False)

    def _apply(self, expression: str, value: str, *, observed: bool) -> FeedbackStep:
        engine = ProbQueryEngine(self.document)
        events = engine.answer_events(expression)
        if value not in events:
            if observed:
                raise FeedbackError(
                    f"{value!r} is not a possible answer of {expression!r};"
                    " confirming it would condition on probability zero"
                )
            # Rejecting something impossible is a no-op.
            stats = tree_stats(self.document)
            step = FeedbackStep(
                "reject", expression, value, ZERO,
                stats.total, stats.total, stats.world_count, stats.world_count,
            )
            self.history.append(step)
            return step
        event, _ = events[value]
        before = tree_stats(self.document)
        # Price the prior through the document's shared cache: the answer
        # event was just expanded by answer_events' consumers (or will be
        # needed again by the next ranked() call), so feedback rides the
        # same memo as querying.
        prior = cache_for(self.document).probability(event)
        self.document = condition_on_event(self.document, event, observed=observed)
        after = tree_stats(self.document)
        step = FeedbackStep(
            "confirm" if observed else "reject",
            expression,
            value,
            prior,
            before.total,
            after.total,
            before.world_count,
            after.world_count,
        )
        self.history.append(step)
        return step
