"""Compaction as it was before the one-pass fold.

A test-only reference: ``simplify`` with its pass switches, the
``simplify_fixpoint`` loop that repeated it until the node count stopped
shrinking, the helpers they call, and the recursive structural keys they
compared by (``px_canonical_key``, ``_content_keys``,
``_yields_top_text``), copied verbatim, except that ``_content_keys``
keeps document order for content with text, as the program's key does
(sorted, it merged possibilities whose worlds differ).
``tests/test_simplify_differential.py``
compares the program's :func:`repro.pxml.simplify.simplify` against
``simplify_fixpoint``; the program never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import ModelError
from repro.probability import ONE, normalize
from repro.pxml.model import (
    PXChild,
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
)


# -- repro/pxml/model.py --------------------------------------------------------

def _yields_top_text(node: ProbNode) -> bool:
    """Whether any possibility of this node has a text child — i.e. the
    node's expansion can contribute a top-level text run."""
    return any(
        isinstance(child, PXText)
        for possibility in node.possibilities
        for child in possibility.children
    )


def _content_keys(children: Sequence[PXChild]) -> tuple:
    """Keys of a possibility's content, with *adjacent* text runs merged
    first — text concatenation order is semantically meaningful (it is
    what worlds see), element order is not: pure element content is
    sorted."""
    merged: list[tuple] = []
    buffer: list[str] = []
    for child in children:
        if isinstance(child, PXText):
            buffer.append(child.value)
        else:
            if buffer:
                merged.append(("t", "".join(buffer)))
                buffer = []
            merged.append(px_canonical_key(child))
    if buffer:
        merged.append(("t", "".join(buffer)))
    if any(key[0] == "t" for key in merged):
        # A run at either end joins the text beside the possibility in a
        # world, so content with text keeps document order.
        return tuple(merged)
    return tuple(sorted(merged))


def px_canonical_key(node: Union[ProbNode, Possibility, PXChild]) -> tuple:
    """Hashable structural key for probabilistic subtrees.

    Sibling *element* order is ignored (consistent with the oracle's
    order-insensitive deep equality); adjacent text runs are merged, then
    compared as units.  The key is *syntactic* — semantically equal trees
    with different factorings get different keys.  Run
    :mod:`repro.pxml.simplify` first when a semantic comparison is needed.
    """
    if isinstance(node, PXText):
        return ("t", node.value)
    if isinstance(node, PXElement):
        child_keys = [px_canonical_key(child) for child in node.children]
        if not any(_yields_top_text(child) for child in node.children):
            # Order matters only when nested expansions can produce text
            # at this level (text runs concatenate in child order); pure
            # element content is order-insensitive, like deep equality.
            child_keys.sort()
        return ("e", node.tag, tuple(sorted(node.attributes.items())), tuple(child_keys))
    if isinstance(node, Possibility):
        return ("o", node.prob, _content_keys(node.children))
    if isinstance(node, ProbNode):
        keys = sorted(px_canonical_key(p) for p in node.possibilities)
        return ("p", tuple(keys))
    raise ModelError(f"cannot key {type(node).__name__}")


# -- repro/pxml/simplify.py -----------------------------------------------------

ALL_PASSES = ("prune_zero", "merge_duplicates", "factor_common", "collapse_trivial")


@dataclass
class SimplifyReport:
    """What simplification achieved."""

    nodes_before: int = 0
    nodes_after: int = 0
    zero_pruned: int = 0
    duplicates_merged: int = 0
    common_factored: int = 0
    trivial_collapsed: int = 0

    @property
    def nodes_saved(self) -> int:
        return self.nodes_before - self.nodes_after

    def summary(self) -> str:
        return (
            f"{self.nodes_before} → {self.nodes_after} nodes"
            f" (saved {self.nodes_saved}; pruned {self.zero_pruned},"
            f" merged {self.duplicates_merged}, factored {self.common_factored})"
        )


def simplify(
    document: PXDocument,
    *,
    passes: Sequence[str] = ALL_PASSES,
    renormalize: bool = False,
) -> tuple[PXDocument, SimplifyReport]:
    """Return a simplified copy of ``document`` plus a report.

    With ``renormalize`` each probability node is rescaled to sum to 1
    after pruning (used by feedback conditioning, where pruning removes
    probability mass on purpose).
    """
    unknown = set(passes) - set(ALL_PASSES)
    if unknown:
        raise ValueError(f"unknown simplify passes: {sorted(unknown)}")
    report = SimplifyReport(nodes_before=document.node_count())
    root = _simplify_prob(document.root.copy(), set(passes), renormalize, report)
    result = PXDocument(root)
    report.nodes_after = result.node_count()
    return result, report


def simplify_fixpoint(
    document: PXDocument,
    *,
    passes: Sequence[str] = ALL_PASSES,
    renormalize: bool = False,
    max_rounds: int = 10,
) -> tuple[PXDocument, SimplifyReport]:
    """Iterate :func:`simplify` until the node count stops shrinking.

    One pass can expose further opportunities (factoring a common child may
    leave duplicate possibilities, which the next round merges), so a small
    fixpoint loop recovers the fully compact form.
    """
    total = SimplifyReport(nodes_before=document.node_count())
    current = document
    for _ in range(max_rounds):
        current, report = simplify(current, passes=passes, renormalize=renormalize)
        total.zero_pruned += report.zero_pruned
        total.duplicates_merged += report.duplicates_merged
        total.common_factored += report.common_factored
        total.trivial_collapsed += report.trivial_collapsed
        if report.nodes_saved == 0:
            break
    total.nodes_after = current.node_count()
    return current, total


def _simplify_prob(
    node: ProbNode, passes: set[str], renormalize: bool, report: SimplifyReport
) -> ProbNode:
    # Bottom-up: simplify below each possibility first.
    for possibility in node.possibilities:
        possibility.children = [
            _simplify_child(child, passes, renormalize, report)
            for child in possibility.children
        ]

    possibilities = list(node.possibilities)

    if "prune_zero" in passes:
        kept = [p for p in possibilities if p.prob > 0]
        report.zero_pruned += len(possibilities) - len(kept)
        possibilities = kept or possibilities

    if "merge_duplicates" in passes and len(possibilities) > 1:
        merged: dict[tuple, Possibility] = {}
        order: list[tuple] = []
        for possibility in possibilities:
            key = _content_keys(possibility.children)
            if key in merged:
                existing = merged[key]
                total = existing.prob + possibility.prob
                replacement = Possibility(min(total, ONE))
                replacement.children = existing.children
                merged[key] = replacement
                report.duplicates_merged += 1
            else:
                merged[key] = possibility
                order.append(key)
        possibilities = [merged[key] for key in order]

    if renormalize and possibilities:
        scaled = normalize([p.prob for p in possibilities])
        for possibility, prob in zip(possibilities, scaled):
            possibility.prob = prob

    node.possibilities = possibilities
    return node


def _simplify_child(
    child: PXChild, passes: set[str], renormalize: bool, report: SimplifyReport
) -> PXChild:
    if isinstance(child, PXText):
        return child
    assert isinstance(child, PXElement)
    child.children = [
        _simplify_prob(prob_child, passes, renormalize, report)
        for prob_child in child.children
    ]
    if "factor_common" in passes:
        child.children = _factor_common(child.children, report)
    if "collapse_trivial" in passes:
        child.children = _collapse_trivial(child.children, report)
    return child


def _factor_common(children: list[ProbNode], report: SimplifyReport) -> list[ProbNode]:
    """For each uncertain probability node, move children that appear
    (deep-equally) in *every* possibility out into certain siblings.

    Nodes whose possibilities carry top-level text are left alone:
    extracting an element from a mixed-content possibility would reorder
    it relative to that text, and text-run concatenation order is
    semantically meaningful (it is what worlds see) — factoring there
    would change the distribution over worlds.  Pure element content is
    order-insensitive (the library's deep-equal semantics), so the move
    is sound exactly when no possibility can contribute text at this
    level.
    """
    result: list[ProbNode] = []
    # One canonical key per distinct child per pass: _common_child_keys
    # and _remove_by_keys both need the keys, and px_canonical_key is a
    # full-subtree serialization — compute it once, not once per use.
    key_memo: dict[int, tuple] = {}
    for prob_node in children:
        if len(prob_node.possibilities) <= 1 or _yields_top_text(prob_node):
            result.append(prob_node)
            continue
        common = _common_child_keys(prob_node.possibilities, key_memo)
        if not common:
            result.append(prob_node)
            continue
        extracted: list[PXChild] = []
        for possibility in prob_node.possibilities:
            removed = _remove_by_keys(possibility, dict(common), key_memo)
            if not extracted:
                extracted = removed
        for item in extracted:
            certain = ProbNode([Possibility(ONE, [item])])
            result.append(certain)
            report.common_factored += 1
        result.append(prob_node)
    return result


def _child_key(child: PXChild, key_memo: dict[int, tuple]) -> tuple:
    key = key_memo.get(id(child))
    if key is None:
        key = px_canonical_key(child)
        key_memo[id(child)] = key
    return key


def _common_child_keys(
    possibilities: list[Possibility], key_memo: dict[int, tuple]
) -> dict[tuple, int]:
    """Multiset intersection of *element* child keys across possibilities.

    Text children are never factored: their concatenation order is
    semantically meaningful and extracting them cannot shrink the tree.
    Elements are only counted when extraction actually saves nodes —
    moving a child out costs a probability+possibility wrapper (2 nodes)
    and keeps one copy, so it pays off only when
    ``size · (n_possibilities − 1) > 2``.
    """
    threshold_copies = len(possibilities) - 1
    common: Optional[dict[tuple, int]] = None
    for possibility in possibilities:
        counts: dict[tuple, int] = {}
        for child in possibility.children:
            if not isinstance(child, PXElement):
                continue
            if child.node_count() * threshold_copies <= 2:
                continue
            key = _child_key(child, key_memo)
            counts[key] = counts.get(key, 0) + 1
        if common is None:
            common = counts
        else:
            common = {
                key: min(count, counts.get(key, 0))
                for key, count in common.items()
                if counts.get(key, 0) > 0
            }
        if not common:
            return {}
    return common or {}


def _remove_by_keys(
    possibility: Possibility, budget: dict[tuple, int], key_memo: dict[int, tuple]
) -> list[PXChild]:
    """Remove up to ``budget[key]`` children matching each key; return the
    removed children (used as the extracted representatives)."""
    removed: list[PXChild] = []
    kept: list[PXChild] = []
    for child in possibility.children:
        key = _child_key(child, key_memo)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            removed.append(child)
        else:
            kept.append(child)
    possibility.children = kept
    return removed


def _collapse_trivial(
    children: list[ProbNode], report: SimplifyReport
) -> list[ProbNode]:
    """Drop probability nodes whose every possibility is empty (they encode
    no content and no uncertainty about content)."""
    result: list[ProbNode] = []
    for prob_node in children:
        if all(not p.children for p in prob_node.possibilities):
            report.trivial_collapsed += 1
            continue
        result.append(prob_node)
    return result
