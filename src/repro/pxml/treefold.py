"""The one bottom-up traversal of a probabilistic tree.

:func:`fold_tree` visits every node after all of its descendants and
hands each node the results of its children.  It keeps an explicit
stack, so document depth is bounded by memory and never by the
interpreter stack, and it polls the request deadline
(:func:`repro.deadline.checkpoint`) once per probability node.  What a
fold computes is up to its :class:`TreeFold`:

* the answer pass and the aggregate convolution
  (:mod:`repro.query.treepass`, :mod:`repro.query.aggregates`) fold
  value distributions;
* compaction (:mod:`repro.pxml.simplify`) folds the compacted copy.
"""

from __future__ import annotations

from typing import Generic, Iterator, Protocol, TypeVar, Union

from ..deadline import checkpoint
from .model import PXElement, ProbNode

__all__ = ["TreeFold", "fold_tree"]

S = TypeVar("S")
R = TypeVar("R")


class TreeFold(Protocol[S, R]):
    """A bottom-up fold over a probabilistic subtree (see :func:`fold_tree`).

    ``S`` is the state handed down from an element to its children,
    ``R`` the result handed up."""

    def enter(self, element: PXElement, state: S) -> tuple[S, bool]:
        """``element``'s own state, derived from its parent element's, and
        whether to visit its children (``False`` folds it as a leaf)."""
        ...

    def element(self, element: PXElement, state: S, children: list[R]) -> R:
        """Fold an element from its probability children's results, in
        document order (empty when its children were not visited)."""
        ...

    def prob(self, node: ProbNode, state: S, possibilities: list[list[R]]) -> R:
        """Fold a probability node: ``possibilities[i]`` holds the results
        of possibility ``i``'s element children, in document order;
        ``state`` is the parent element's."""
        ...


class _ProbFrame(Generic[S, R]):
    __slots__ = ("node", "state", "pending", "results", "into")

    def __init__(
        self,
        node: ProbNode,
        state: S,
        elements: list[tuple[int, PXElement]],
        into: list[R],
    ) -> None:
        self.node = node
        self.state = state
        self.pending = iter(elements)
        self.results: list[list[R]] = [[] for _ in node.possibilities]
        self.into = into


def _elements(node: ProbNode) -> list[tuple[int, PXElement]]:
    """(possibility index, element) for every element child of ``node``."""
    return [
        (index, child)
        for index, possibility in enumerate(node.possibilities)
        for child in possibility.children
        if isinstance(child, PXElement)
    ]


class _ElementFrame(Generic[S, R]):
    __slots__ = ("node", "state", "pending", "results", "into")

    def __init__(self, node: PXElement, state: S, into: list[R]) -> None:
        self.node = node
        self.state = state
        self.pending: Iterator[ProbNode] = iter(node.children)
        self.results: list[R] = []
        self.into = into


def fold_tree(root: ProbNode, fold: TreeFold[S, R], state: S) -> R:
    """Fold the subtree under ``root`` bottom-up, every node after all of
    its descendants, with an explicit stack.  ``state`` is the state
    ``root``'s elements are entered with.  Polls
    :func:`~repro.deadline.checkpoint` once per probability node."""
    out: list[R] = []
    checkpoint()
    stack: list[Union[_ProbFrame[S, R], _ElementFrame[S, R]]] = [
        _ProbFrame(root, state, _elements(root), out)
    ]
    while stack:
        frame = stack[-1]
        if isinstance(frame, _ProbFrame):
            entry = next(frame.pending, None)
            if entry is None:
                stack.pop()
                frame.into.append(fold.prob(frame.node, frame.state, frame.results))
                continue
            index, element = entry
            element_state, descend = fold.enter(element, frame.state)
            if descend:
                stack.append(
                    _ElementFrame(element, element_state, frame.results[index])
                )
            else:
                frame.results[index].append(
                    fold.element(element, element_state, [])
                )
        else:
            child = next(frame.pending, None)
            if child is None:
                stack.pop()
                frame.into.append(
                    fold.element(frame.node, frame.state, frame.results)
                )
                continue
            checkpoint()
            elements = _elements(child)
            if elements:
                stack.append(_ProbFrame(child, frame.state, elements, frame.results))
            else:  # text only: a leaf of the fold
                frame.results.append(
                    fold.prob(
                        child, frame.state, [[] for _ in child.possibilities]
                    )
                )
    return out[0]
