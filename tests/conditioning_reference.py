"""Conditioning as it was before the one explicit-stack path.

A test-only reference: ``condition_on_event`` with its three paths (a
certain observation's copy, one satisfying branch through
``condition_on_assignment``, several through ``_rebuild_conditioned``),
the recursive Shannon expansion ``_satisfying_branches`` and the rebuild
helpers they call, copied verbatim, except that the expansion's refusal
no longer says to raise the limit: the program has no limit option, and
the two refusals are compared word for word.
``tests/test_conditioning_differential.py``
compares :mod:`repro.feedback.conditioning` against it; the program never
imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import FeedbackError
from repro.probability import ONE, ZERO
from repro.pxml.events import Event, FALSE_EVENT, TRUE_EVENT, negate, pivot_variable
from repro.pxml.model import (
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
)
from repro.pxml.simplify import simplify


#: Refuse Shannon expansions beyond this many satisfying branches.
DEFAULT_BRANCH_LIMIT = 4096


def _rebuild_prob(node: ProbNode, assignment: dict[int, int]) -> ProbNode:
    """Copy of the subtree with assigned choices forced to probability 1."""
    forced = assignment.get(node.uid)
    rebuilt = ProbNode()
    for index, possibility in enumerate(node.possibilities):
        if forced is not None and index != forced:
            continue
        prob = ONE if forced is not None else possibility.prob
        children = []
        for child in possibility.children:
            if isinstance(child, PXText):
                children.append(PXText(child.value))
            else:
                children.append(_rebuild_element(child, assignment))
        rebuilt.append(Possibility(prob, children))
    if not rebuilt.possibilities:
        raise FeedbackError(
            f"assignment removed every possibility of ▽{node.uid}"
        )
    return rebuilt


def _rebuild_element(element: PXElement, assignment: dict[int, int]) -> PXElement:
    return PXElement(
        element.tag,
        dict(element.attributes),
        [_rebuild_prob(child, assignment) for child in element.children],
    )


def condition_on_assignment(
    document: PXDocument, assignment: dict[int, int]
) -> PXDocument:
    """Condition on a conjunction of choices (uid → possibility index).

    Exact tree surgery: observed nodes keep only the observed possibility
    (probability 1); everything else is untouched — valid because choices
    at different probability nodes are independent.
    """
    return PXDocument(_rebuild_prob(document.root, assignment))


def _satisfying_branches(
    event: Event, *, limit: int
) -> list[tuple[dict[int, int], Fraction]]:
    """Disjoint partial assignments over the event's variables that make it
    true, each with weight Π p(assigned choice).  Weights sum to P(event)."""
    branches: list[tuple[dict[int, int], Fraction]] = []

    def expand(current: Event, assignment: dict[int, int], weight: Fraction) -> None:
        if current is TRUE_EVENT:
            branches.append((dict(assignment), weight))
            if len(branches) > limit:
                raise FeedbackError(
                    f"conditioning needs more than {limit} branches;"
                    " simplify the observation"
                )
            return
        if current is FALSE_EVENT:
            return
        # Most-mentioned variable first (same rationale as the kernel's
        # Shannon pivot): shared top-level choices collapse branches.
        # The pivot reads the counts cached on the interned event — no
        # per-step tree rescans.
        uid, node = pivot_variable(current)
        for index, possibility in enumerate(node.possibilities):
            if possibility.prob == 0:
                continue
            assignment[uid] = index
            expand(current.assign(uid, index), assignment, weight * possibility.prob)
            del assignment[uid]

    expand(event, {}, ONE)
    return branches


def _uids_under(node: ProbNode) -> set[int]:
    return {prob.uid for prob in node.iter_prob_nodes()}


def _immediate_child_probs(node: ProbNode) -> list[ProbNode]:
    children: list[ProbNode] = []
    for possibility in node.possibilities:
        for child in possibility.children:
            if isinstance(child, PXElement):
                children.extend(child.children)
    return children


def _mixture_at(
    node: ProbNode,
    branches: list[tuple[dict[int, int], Fraction]],
    total: Fraction,
) -> ProbNode:
    """Replace ``node`` by the posterior mixture over satisfying branches
    (every event variable lives in this subtree, so the rest of the
    document keeps its prior — choices are independent)."""
    mixture = ProbNode()
    for assignment, weight in branches:
        forced = _rebuild_prob(node, assignment)
        # impreciselint: disable=float-taint -- exact Fraction/Fraction division
        posterior = weight / total
        for possibility in forced.possibilities:
            mixture.append(
                Possibility(posterior * possibility.prob, possibility.children)
            )
    return mixture


def _rebuild_conditioned(
    node: ProbNode,
    var_uids: set[int],
    branches: list[tuple[dict[int, int], Fraction]],
    total: Fraction,
) -> ProbNode:
    """Copy the tree, descending towards the minimal probability node that
    contains every event variable, and splice the mixture there.

    Descending past an unrelated choice point is sound because guarded
    events mention the choices that make their variables reachable: if
    this node's uid is not in the event, the event is independent of it.
    """
    present = _uids_under(node) & var_uids
    if not present:
        return node.copy()
    if node.uid not in var_uids:
        carriers = [
            child
            for child in _immediate_child_probs(node)
            if _uids_under(child) & var_uids
        ]
        if len(carriers) == 1 and (_uids_under(carriers[0]) & var_uids) == present:
            target = carriers[0]
            rebuilt = ProbNode()
            for possibility in node.possibilities:
                children = []
                for child in possibility.children:
                    if isinstance(child, PXText):
                        children.append(PXText(child.value))
                    else:
                        children.append(
                            _rebuild_element_conditioned(
                                child, target, var_uids, branches, total
                            )
                        )
                rebuilt.append(Possibility(possibility.prob, children))
            return rebuilt
    return _mixture_at(node, branches, total)


def _rebuild_element_conditioned(
    element: PXElement,
    target: ProbNode,
    var_uids: set[int],
    branches: list[tuple[dict[int, int], Fraction]],
    total: Fraction,
) -> PXElement:
    children = []
    for child in element.children:
        if child is target:
            children.append(
                _rebuild_conditioned(child, var_uids, branches, total)
            )
        elif _uids_under(child) & var_uids:
            children.append(_rebuild_conditioned(child, var_uids, branches, total))
        else:
            children.append(child.copy())
    return PXElement(element.tag, dict(element.attributes), children)


def condition_on_event(
    document: PXDocument,
    event: Event,
    *,
    observed: bool = True,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> PXDocument:
    """The document's posterior given that ``event`` was observed true
    (or false, with ``observed=False``).

    The posterior mixture is spliced in at the *minimal* probability node
    whose subtree holds all of the event's variables, so conditioning
    leaves unrelated parts of the document untouched (and compact).
    Raises :class:`FeedbackError` when the observation has probability
    zero — there is no posterior to form.
    """
    target = event if observed else negate(event)
    if target is FALSE_EVENT:
        raise FeedbackError("cannot condition on an impossible observation")
    if target is TRUE_EVENT:
        return document.copy()

    branches = _satisfying_branches(target, limit=branch_limit)
    total = sum((weight for _, weight in branches), ZERO)
    if total == 0:
        raise FeedbackError("observation has probability zero")

    if len(branches) == 1:
        assignment, _ = branches[0]
        conditioned = condition_on_assignment(document, assignment)
    else:
        var_uids = set(target.variables())
        conditioned = PXDocument(
            _rebuild_conditioned(document.root, var_uids, branches, total)
        )
    # Conditioning is functional: the posterior is built from copies with
    # fresh uids, so the input document's cache stays valid — no
    # invalidation needed (see repro.pxml.events_cache).
    compacted, _ = simplify(conditioned)
    return compacted
