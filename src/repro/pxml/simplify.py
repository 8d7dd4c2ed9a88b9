"""Compaction of probabilistic trees.

Integration results often carry redundancy: zero-probability branches,
duplicate possibilities that arose from different choice combinations, and
subtrees repeated in *every* possibility of a choice (which therefore carry
no uncertainty at all).  :func:`simplify` shrinks the representation without
changing the distribution over worlds — the invariant the property tests
enforce via :func:`repro.pxml.worlds.distinct_worlds`.  It has no options:
every compaction runs all four steps, at every probability node:

* **prune zero** — drop possibilities with probability 0;
* **merge duplicates** — merge structurally identical sibling
  possibilities, summing their probabilities;
* **factor common** — below an element, move children that occur
  (deep-equally) in *every* possibility out into their own certain
  probability nodes (skipped for choices with top-level text: extraction
  would reorder elements relative to text runs and change what worlds
  see);
* **collapse trivial** — below an element, drop a probability node whose
  every possibility is empty (it encodes no content and no uncertainty).

**One pass is the fixpoint.**  The pass is a fold on
:func:`repro.pxml.treefold.fold_tree`, so every node is compacted after
all of its descendants and each step sees its children in their final
form.  Only factoring changes a node after that, and it leaves a second
pass nothing to do: it touches only probability nodes with no top-level
text, whose possibilities are keyed as multisets of element keys, and
taking the same common multiset out of every possibility neither makes
two different possibilities equal nor leaves a common element behind.

The fold builds the compacted copy as it returns (fresh choice
variables; the input is left untouched), counts the nodes it reads and
writes, and computes each node's canonical key and size once, from its
children's, through the key constructors
:func:`repro.pxml.model.px_canonical_key` is made of.  Keys are interned
to small integers, so hashing or comparing one never walks a subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..probability import ONE
from .model import (
    _UID_COUNTER,
    PXDocument,
    PXElement,
    PXText,
    Possibility,
    ProbNode,
    _content_key,
    _element_key,
    _possibility_key,
    _prob_key,
    _text_key,
)
from .treefold import fold_tree


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


def simplify(document: PXDocument) -> tuple[PXDocument, SimplifyReport]:
    """Return a compacted copy of ``document`` plus a report."""
    fold = _Compaction()
    ((root, _, size, _),) = fold_tree(document.root, fold, None)
    if fold.report.common_factored:
        # Number the choice variables in post-order of the compacted
        # tree, as copying it would: the kernel and conditioning break
        # pivot ties by the smallest uid.  Without factoring, the order
        # they were built in already is that order.
        for node in fold.created:
            node.uid = next(_UID_COUNTER)
    fold.report.nodes_after = size
    return PXDocument(root), fold.report


#: A compacted element: (copy, interned key, node count, and where the
#: probability nodes of its subtree start and end in ``created``).
_Element = tuple[PXElement, int, int, int, int]
#: A kept possibility: (copy, its element children, node count, content key).
_Kept = tuple[Possibility, list[_Element], int, tuple]


class _Compaction:
    """The fold of :func:`simplify`.  Each node folds to the compacted
    nodes that take its place in its parent: an element to its copy; a
    probability node to nothing when collapsed, else to its copy,
    preceded by the certain wrappers factoring moved out of it.  A
    probability node's entry is (copy, interned key, node count, whether
    it can yield top-level text).

    The state an element hands its children is where its subtree starts
    in :attr:`created`; the root's probability node gets ``None``, so it
    is pruned and merged but never factored or collapsed."""

    def __init__(self) -> None:
        self.report = SimplifyReport()
        self.keys: dict[tuple, int] = {}
        #: Every probability node built, in post-order of the compacted
        #: tree (factoring reorders its own region, see :meth:`_factor`).
        self.created: list[ProbNode] = []

    def key(self, key: tuple) -> int:
        return self.keys.setdefault(key, len(self.keys))

    def run_key(self, text: str) -> int:
        return self.key(_text_key(text))

    def enter(self, element: PXElement, state: Optional[int]) -> tuple[int, bool]:
        return len(self.created), True

    def element(
        self, element: PXElement, start: int, children: list[list[Any]]
    ) -> list[Any]:
        self.report.nodes_before += 1
        probs = [entry for replaced in children for entry in replaced]
        copy = PXElement(element.tag, element.attributes)
        copy.children = [entry[0] for entry in probs]
        ordered = any(entry[3] for entry in probs)
        key = self.key(_element_key(copy, [entry[1] for entry in probs], ordered))
        size = 1 + sum(entry[2] for entry in probs)
        return [(copy, key, size, start, len(self.created))]

    def prob(
        self, node: ProbNode, parent: Optional[int], results: list[list[Any]]
    ) -> list[Any]:
        report = self.report
        pairs = list(zip(node.possibilities, results))
        report.nodes_before += 1 + sum(
            1 + len(possibility.children) - len(elements)
            for possibility, elements in pairs
        )
        live = [pair for pair in pairs if pair[0].prob > 0]
        report.zero_pruned += len(pairs) - len(live)
        kept: list[_Kept] = []
        index_of: dict[tuple, int] = {}
        for possibility, elements in live or pairs:
            entries: list[_Element] = [entry for (entry,) in elements]
            content = _content_key(
                possibility.children, (entry[1] for entry in entries), self.run_key
            )
            index = index_of.get(content)
            if index is not None:
                merged = kept[index][0]
                merged.prob = min(merged.prob + possibility.prob, ONE)
                report.duplicates_merged += 1
                continue
            index_of[content] = len(kept)
            pending = iter(entries)
            copy = Possibility(possibility.prob)
            copy.children = [
                PXText(child.value) if isinstance(child, PXText) else next(pending)[0]
                for child in possibility.children
            ]
            size = 1 + len(copy.children) - len(entries)
            kept.append((copy, entries, size + sum(e[2] for e in entries), content))
        text = any(len(entries) < len(copy.children) for copy, entries, _, _ in kept)
        replaced: list[Any] = []
        if parent is not None:
            if all(not copy.children for copy, _, _, _ in kept):
                report.trivial_collapsed += 1
                return replaced
            if len(kept) > 1 and not text:
                replaced = self._factor(kept, results)
        copy_node = ProbNode()
        copy_node.possibilities = [copy for copy, _, _, _ in kept]
        self.created.append(copy_node)
        key = self.key(
            _prob_key(
                _possibility_key(copy.prob, content) for copy, _, _, content in kept
            )
        )
        replaced.append((copy_node, key, 1 + sum(k[2] for k in kept), text))
        return replaced

    def _factor(self, kept: list[_Kept], results: list[list[Any]]) -> list[Any]:
        """Take the element children common to every possibility of
        ``kept`` out of each (in place) and return their certain
        wrappers.  A child counts only when moving it out saves nodes: a
        wrapper costs 2 and keeps one copy, so it pays off only when
        ``size · (n_possibilities − 1) > 2``."""
        copies = len(kept) - 1
        common: dict[int, int] = {}
        for index, (_, entries, _, _) in enumerate(kept):
            counts: dict[int, int] = {}
            for entry in entries:
                if entry[2] * copies > 2:
                    counts[entry[1]] = counts.get(entry[1], 0) + 1
            if index:
                counts = {
                    key: min(count, counts[key])
                    for key, count in common.items()
                    if key in counts
                }
            if not counts:
                return []
            common = counts
        extracted: list[_Element] = []
        for index, (copy, entries, size, _) in enumerate(kept):
            budget = dict(common)
            removed: list[_Element] = []
            remaining: list[_Element] = []
            for entry in entries:
                if budget.get(entry[1], 0) > 0:
                    budget[entry[1]] -= 1
                    removed.append(entry)
                else:
                    remaining.append(entry)
            copy.children = [entry[0] for entry in remaining]
            content = _content_key(
                copy.children, (entry[1] for entry in remaining), self.run_key
            )
            size -= sum(entry[2] for entry in removed)
            kept[index] = (copy, remaining, size, content)
            if not index:
                extracted = removed
        # The wrappers come before the factored node, so their subtrees'
        # probability nodes move ahead of the rest of its region.
        start = min(entry[3] for elements in results for (entry,) in elements)
        order: list[ProbNode] = []
        wrappers: list[Any] = []
        for item, key, size, first, end in extracted:
            wrapper = ProbNode([Possibility(ONE, [item])])
            order += self.created[first:end]
            order.append(wrapper)
            content = _content_key([item], iter([key]), self.run_key)
            wrapper_key = self.key(_prob_key([_possibility_key(ONE, content)]))
            wrappers.append((wrapper, wrapper_key, size + 2, False))
        for _, entries, _, _ in kept:
            for entry in entries:
                order += self.created[entry[3] : entry[4]]
        self.created[start:] = order
        self.report.common_factored += len(extracted)
        return wrappers
