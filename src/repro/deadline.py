"""End-to-end request deadlines as exact wall-clock budgets.

A :class:`Deadline` is an absolute point on the monotonic clock; every
layer of the serving stack measures against the same instance, so the
budget is end-to-end rather than per-hop: the HTTP front parses
``deadline_ms`` into a deadline, :class:`~repro.dbms.service.
DataspaceService` activates it for a query or a whole fan-out, and
the engine's tree walk, the probability kernel's worklist
(:func:`repro.pxml.events.event_probability`), and the one tree
traversal the tree pass, the aggregate convolution, the walk's value
folding and compaction share (:func:`repro.pxml.treefold.fold_tree`)
poll :func:`checkpoint`.
When the budget expires, the checkpoint raises the typed
:class:`~repro.errors.DeadlineExceededError` — evaluation stops at the
next loop iteration instead of running to completion.

Propagation is **thread-local** (:func:`active` / :func:`current`), not
a parameter threaded through every engine call: a request evaluates
entirely on the thread that serves it — a fan-out prices its documents
one after another on that thread — so the hot loops can stay
signature-stable while still honouring the budget.

Deadlines bound *time*, never *precision*: a request either finishes
with the exact answer, is cut off with the typed error, or (under
``allow_partial``) yields a fused answer over the documents that
finished before the budget ran out — each of those per-document
answers is itself exact.

This module deliberately measures in monotonic seconds (floats) — it is
a scheduling concern, not probability arithmetic, and is therefore
outside impreciselint's float-taint scope.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Iterator, Optional

from contextlib import contextmanager

from .errors import DeadlineExceededError

__all__ = [
    "Deadline",
    "active",
    "checkpoint",
    "current",
]


class Deadline:
    """An absolute monotonic-clock expiry shared by every layer of one
    request.

    >>> budget = Deadline.from_ms(50)
    >>> budget.expired()
    False
    """

    __slots__ = ("expires_at", "budget_ms")

    def __init__(self, expires_at: float, budget_ms: int):
        self.expires_at = expires_at
        self.budget_ms = budget_ms

    @classmethod
    def from_ms(cls, budget_ms: int) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now.

        ``budget_ms`` must be a positive integer — it arrives from the
        wire, and rejecting junk here keeps every later layer simple.
        """
        if isinstance(budget_ms, bool) or not isinstance(budget_ms, int):
            raise ValueError(f"deadline_ms must be an integer, got {budget_ms!r}")
        if budget_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {budget_ms!r}")
        return cls(time.monotonic() + budget_ms / 1000.0, budget_ms)

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` when the budget is spent."""
        if self.expired():
            raise DeadlineExceededError(
                f"deadline of {self.budget_ms}ms exceeded"
            )

    def __repr__(self) -> str:
        remaining = self.expires_at - time.monotonic()
        return f"Deadline({self.budget_ms}ms, {remaining * 1000.0:+.1f}ms left)"


class _ActiveDeadline(threading.local):
    """The per-thread active deadline (one query runs on one thread)."""

    def __init__(self) -> None:
        self.deadline: Optional[Deadline] = None


_ACTIVE = _ActiveDeadline()


class _CollectorHold:  # impreciselint: guarded-by=_lock
    """Keeps full garbage collections off the objects that were alive
    before a bounded request began.

    A full collection walks every tracked object in the process and no
    checkpoint can cut it short: with two merged 5x5 address books
    alive, one ran a 20 ms budget past 200 ms.  While any
    thread has a deadline active, the objects older than the first such
    scope are frozen (:func:`gc.freeze`), so collections walk only what
    the requests allocated; the last scope to close unfreezes them, and
    the collector reaches them again between requests.  Freezing is
    process-wide, so the open scopes are counted across threads, and
    objects the application froze itself are unfrozen with the rest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = 0

    def enter(self) -> None:
        with self._lock:
            self._open += 1
            if self._open == 1:
                gc.freeze()

    def leave(self) -> None:
        with self._lock:
            self._open -= 1
            if not self._open:
                gc.unfreeze()


_HOLD = _CollectorHold()


def current() -> Optional[Deadline]:
    """The deadline active on this thread, or ``None``."""
    return _ACTIVE.deadline


@contextmanager
def active(deadline: Optional[Deadline]) -> Iterator[None]:
    """Make ``deadline`` the active deadline on this thread for the span
    of the ``with`` block (``None`` deactivates, restoring on exit).

    Re-entrant: the previous deadline is restored when the block ends,
    so nested scopes compose.  While a deadline is active, full garbage
    collections skip the objects older than the request (see
    :class:`_CollectorHold`), so a collection cannot overshoot the
    budget by a walk over the whole heap.
    """
    previous = _ACTIVE.deadline
    _ACTIVE.deadline = deadline
    if deadline is not None:
        _HOLD.enter()
    try:
        yield
    finally:
        _ACTIVE.deadline = previous
        if deadline is not None:
            _HOLD.leave()


def checkpoint() -> None:
    """Raise :class:`DeadlineExceededError` when this thread's active
    deadline has expired; a no-op (two attribute reads) otherwise.

    This is the hook the engine's evaluation loops poll — cheap enough
    to call per step, and inert for the overwhelmingly common
    no-deadline request.
    """
    deadline = _ACTIVE.deadline
    if deadline is not None and deadline.expired():
        raise DeadlineExceededError(
            f"deadline of {deadline.budget_ms}ms exceeded"
        )
