"""Persistent, cross-process answer/plan cache for the dataspace service.

The in-memory amortization layers (compiled plans, per-document
:class:`~repro.pxml.events_cache.EventProbabilityCache`) die with the
process.  This module adds the third layer the ROADMAP's heavy-traffic
north star needs: an on-disk table of *priced answers*, so a restarted
service re-serves a whole workload without re-walking a single tree.

Keying — both halves are stable across processes by contract:

* the **plan** half is :attr:`repro.query.plan.QueryPlan.fingerprint_digest`
  (SHA-256 of the canonical structural fingerprint: two surface spellings
  of the same query share one entry);
* the **document** half is :func:`document_digest` — SHA-256 of the
  document's canonical serialization, i.e. exactly the bytes
  :class:`~repro.dbms.store.DocumentStore` persists.  A document edited
  in any way gets a new digest, so stale answers can never be served —
  content addressing is the correctness mechanism, invalidation below is
  only hygiene.

Values are ranked answers with **exact** ``Fraction`` probabilities;
they round-trip through a ``numerator/denominator`` wire form, so a
warm-started process returns bit-identical Fractions.  Aggregate
distributions (:mod:`repro.query.aggregates`) persist alongside them in
their own table, keyed the same way with
:attr:`~repro.query.aggregates.AggregateSpec.digest` as the plan half.

Invalidation is versioned per document name: :meth:`~AnswerCacheStore.
invalidate_document` (called by the service on ``put``/``delete``/
feedback conditioning/re-integration) bumps the name's version and drops
its rows; rows also record the version they were written under and are
ignored if it has since moved on, which keeps a concurrent writer from
resurrecting a purged answer.  A global :data:`SCHEMA_VERSION` guards the
file format itself — any change to the payload encoding or the
fingerprint encoding recreates the tables rather than misreading them.

Growth is bounded two ways: invalidation drops a mutated document's
rows, and an optional ``max_rows`` bound evicts the least-recently-hit
rows on overflow (LRU by ``last_hit``, a file-global monotonic stamp) —
an evicted answer is recomputed and re-stored on its next miss, so the
bound trades disk for recompute, never correctness.

The backing store is SQLite (stdlib, one file, safe for concurrent
readers); one :class:`AnswerCacheStore` serializes its own statements
behind a lock, so a single instance may be shared by many threads.

**Many processes, one file** (the ``imprecise serve --workers N``
deployment) is safe by construction: the journal is WAL, so readers
never block writers; every write is a ``BEGIN IMMEDIATE`` transaction,
so it never fails mid-way on a lock upgrade; and the per-name
``versions`` table is the **cross-process invalidation fence** — every
lookup compares the row's recorded version against the current one,
and :meth:`~AnswerCacheStore.version` lets a service observe another
process's invalidation (see ``DataspaceService``'s fence check).

**The fault rules are written once**, in routines every public method
goes through, and a raw ``sqlite3`` exception never escapes this module
for a corrupt or contended file.  The cache is derived data — every row
can be recomputed from the document store — so a corrupt file
(truncated, garbled, torn WAL) costs warmth, never correctness: it moves
aside to the first free ``answers.sqlite.corrupt-N`` slot (``-wal`` and
``-shm`` journals included, kept for post-mortems) and an empty cache is
rebuilt at the path.

* :meth:`~AnswerCacheStore._connect_locked` is the one connect: it sets
  ``busy_timeout``, switches to WAL and creates the tables under the
  busy budget, restarts recency from the file's clock, records the inode.
  It also sets ``synchronous=NORMAL``, so a commit does not fsync the
  WAL.  An OS crash may then lose the newest commits, never the file's
  integrity.  A lost row is recomputed on its next miss, and content
  addressing keeps a stale row off new content.  (The documents the rows
  derive from are not fsynced either.)
* :meth:`~AnswerCacheStore._enter_locked` is the one entry check: a
  closed store raises :class:`~repro.errors.StoreError`; a moved inode
  (a sibling's quarantine swap) reconnects, so the sibling joins the
  healthy replacement instead of quarantining it; a file found corrupt
  on the way in is quarantined by
  :meth:`~AnswerCacheStore._open_locked` — the only place that
  quarantines — and the operation runs on the rebuilt file.
* :meth:`~AnswerCacheStore._read_locked` is the one lookup funnel: a
  statement that finds the file corrupt quarantines it and answers as an
  empty cache.
* :meth:`~AnswerCacheStore._retry_locked` is the one retry loop, under
  the write transaction and the WAL switch: busy (never corruption)
  backs off, then raises the typed :class:`~repro.errors.CacheBusyError`;
  corruption in a write quarantines and retries on the fresh file.

:attr:`~AnswerCacheStore.recoveries` (``persistent_recoveries``) moves
exactly when the instance moves to a new file, so it names the file
generation a version belongs to.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sqlite3
import threading
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar, Union

from ..errors import CacheBusyError, StoreError, WireFormatError
from ..pxml.model import PXDocument
from ..pxml.serialize import pxml_to_text
from ..query.aggregates import AggregateDistribution, canonical_items
from ..query.ranking import RankedAnswer, RankedItem
from ..xmlkit.nodes import XDocument
from ..xmlkit.serializer import serialize

__all__ = [
    "AnswerCacheStore",
    "document_digest",
    "SCHEMA_VERSION",
    "encode_fraction",
    "decode_fraction",
    "encode_answer",
    "decode_answer",
    "encode_aggregate_distribution",
    "decode_aggregate_distribution",
]

#: Bump on any change to the payload wire format, the fingerprint
#: encoding (see ``QueryPlan.fingerprint_digest``) or the table layout;
#: existing cache files are then dropped and rebuilt, never misread.
#: 2: ``answers`` gained the ``last_hit`` LRU column (row eviction).
#: 3: the ``aggregates`` table (persisted aggregate distributions keyed
#:    by ``AggregateSpec.digest`` × document digest).
#: The pin below fingerprints the codec *surface* (field keys, table
#: columns, ``*_FIELDS`` tuples); ``impreciselint`` refuses codec edits
#: until the pin is refreshed — and a reviewer has decided whether the
#: version must bump (see docs/development.md).
SCHEMA_VERSION = 3  # impreciselint: schema-surface=f8ab7e17df51

#: Default cache file name inside a cache directory.
CACHE_FILENAME = "answers.sqlite"

#: How long (ms) a connection waits on another process's write
#: transaction before SQLite reports busy; generous because waiting is
#: always better than recomputing a priced answer.
DEFAULT_BUSY_TIMEOUT_MS = 5_000

#: Write attempts on top of the busy timeout before the typed
#: :class:`~repro.errors.CacheBusyError` surfaces.
WRITE_RETRIES = 5

#: Strict wire shape: optional sign, digits, '/', digits — no whitespace
#: (``int()`` alone would tolerate ``"1 /2"``), no floats, no hex.
_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")

_T = TypeVar("_T")

_ANSWER_ROW = (
    "SELECT payload, doc_version FROM answers"
    " WHERE doc_name = ? AND doc_digest = ? AND plan_digest = ?"
)
_AGGREGATE_ROW = (
    "SELECT payload, doc_version FROM aggregates"
    " WHERE doc_name = ? AND doc_digest = ? AND agg_digest = ?"
)
_REMEMBER_PLAN = "INSERT OR REPLACE INTO plans VALUES (?, ?)"


def utf8_bytes(text: str, what: str) -> bytes:
    """``text`` encoded as UTF-8.  Text UTF-8 cannot encode (a lone
    surrogate) raises :class:`StoreError` naming the operation that
    failed, ``what`` (e.g. ``"store 'a'"``)."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as error:
        raise StoreError(
            f"cannot {what}: its text is not UTF-8"
            f" encodable ({error.reason} at offset {error.start})"
        ) from None


def content_digest(kind: str, data: bytes) -> str:
    """SHA-256 of a stored document's kind (``"xml"`` or ``"pxml"``) and
    its serialized bytes — the hash :func:`document_digest` and
    :class:`~repro.dbms.store.DocumentStore` key documents by."""
    return hashlib.sha256(kind.encode("utf-8") + b"\x00" + data).hexdigest()


def document_digest(document: Union[XDocument, PXDocument]) -> str:
    """Content hash of a stored document, stable across processes.

    SHA-256 over the canonical serialization (``pxml_to_text`` for
    probabilistic documents, ``serialize`` for plain ones) with a kind
    prefix, so an XML and a PXML document can never collide.  This is
    byte-identical to what :class:`~repro.dbms.store.DocumentStore`
    writes to disk, so hashing the file and hashing the materialized
    document agree.  A document whose text UTF-8 cannot encode raises
    :class:`StoreError`, as storing it in a directory does.
    """
    if isinstance(document, PXDocument):
        kind, text = "pxml", pxml_to_text(document)
    elif isinstance(document, XDocument):
        kind, text = "xml", serialize(document)
    else:
        raise StoreError(
            f"cannot digest {type(document).__name__};"
            " expected XDocument or PXDocument"
        )
    return content_digest(kind, utf8_bytes(text, f"digest the {kind} document"))


def encode_fraction(value: Fraction) -> str:
    """Exact wire form of a :class:`~fractions.Fraction`: ``"num/den"``.

    Always carries the denominator (``Fraction(1)`` → ``"1/1"``) so the
    decoder never guesses; arbitrary-precision integers survive because
    they travel as decimal strings, never floats.  This is the one
    Fraction encoding of the repository — the persistent cache rows and
    the HTTP wire format (:mod:`repro.server.wire`) both use it.
    """
    return f"{value.numerator}/{value.denominator}"


def decode_fraction(text: object) -> Fraction:
    """Inverse of :func:`encode_fraction`; strict.

    Raises :class:`~repro.errors.WireFormatError` on anything but
    ``"<int>/<positive int>"`` — this decodes cache rows and network
    payloads, so garbage must fail loudly, not half-parse.
    """
    if not isinstance(text, str):
        raise WireFormatError(
            f"fraction must be a string, got {type(text).__name__}"
        )
    match = _FRACTION_RE.match(text)
    if match is None:
        raise WireFormatError(f"malformed fraction {text!r}")
    try:
        return Fraction(int(match.group(1)), int(match.group(2)))
    except ZeroDivisionError:
        raise WireFormatError(f"malformed fraction {text!r}: zero denominator") from None


def fraction_decoder() -> Callable[[object], Fraction]:
    """:func:`decode_fraction` for one payload: each distinct string is
    parsed once.  A payload's probabilities repeat (tied answers, one
    document's probability across fused values), and each parse runs a
    regex, two ``int`` conversions and a gcd.  The memo is keyed by the
    raw string only, so every entry is still checked, and malformed
    input raises what :func:`decode_fraction` raises."""
    parsed: dict[str, Fraction] = {}

    def decode(text: object) -> Fraction:
        if not isinstance(text, str):
            return decode_fraction(text)  # raises: not a string
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = decode_fraction(text)
        return value

    return decode


def encode_answer(answer: RankedAnswer) -> list[list[object]]:
    """Wire form of a ranked answer: ``[[value, "num/den", occurrences],
    ...]`` — JSON-ready, order-preserving, exact."""
    return [
        [item.value, encode_fraction(item.probability), item.occurrences]
        for item in answer.items
    ]


def decode_answer(payload: object) -> RankedAnswer:
    """Inverse of :func:`encode_answer`; strict (see
    :func:`decode_fraction`; each distinct fraction string is parsed
    once, see :func:`fraction_decoder`)."""
    if not isinstance(payload, list):
        raise WireFormatError(
            f"answer payload must be a list, got {type(payload).__name__}"
        )
    fraction_of = fraction_decoder()
    items: list[RankedItem] = []
    for entry in payload:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise WireFormatError(f"malformed answer item {entry!r}")
        value, fraction, occurrences = entry
        if not isinstance(value, str) or not isinstance(occurrences, int) \
                or isinstance(occurrences, bool):
            raise WireFormatError(f"malformed answer item {entry!r}")
        items.append(RankedItem(value, fraction_of(fraction), occurrences))
    return RankedAnswer(items)


def _encode_answer(answer: RankedAnswer) -> str:
    """JSON row payload: ``[[value, "num/den", occurrences], ...]``."""
    return json.dumps(encode_answer(answer), ensure_ascii=False)


def _decode_answer(payload: str) -> RankedAnswer:
    return decode_answer(json.loads(payload))


def encode_aggregate_distribution(
    distribution: AggregateDistribution,
) -> list[list[object]]:
    """Wire form of an aggregate distribution
    (:data:`repro.query.aggregates.AggregateDistribution`):
    ``[[value, "num/den"], ...]`` in canonical order (``None`` — the
    min/max no-match outcome — first, then ascending).

    Values are encoded losslessly by type: ``None`` → JSON ``null``,
    integers (counts, integral sums) → JSON integers, non-integral
    Fractions → the exact ``"num/den"`` string.  Probabilities are
    always ``"num/den"``.  For pure count distributions this emits
    exactly the ``[[count, "num/den"], ...]`` shape of
    :func:`repro.server.wire.encode_distribution`.  Ordering and key
    normalization come from the subsystem's one canonical rule,
    :func:`repro.query.aggregates.canonical_items`.
    """
    return [
        [
            encode_fraction(key) if isinstance(key, Fraction) else key,
            encode_fraction(probability),
        ]
        for key, probability in canonical_items(distribution)
    ]


def decode_aggregate_distribution(payload: object) -> AggregateDistribution:
    """Inverse of :func:`encode_aggregate_distribution`; strict.

    Integral values always decode to ``int`` (a foreign ``"4/1"``
    normalizes to ``4``) so a decoded distribution is key-identical to
    the freshly-computed one, not merely ``==``."""
    if not isinstance(payload, list):
        raise WireFormatError(
            f"aggregate distribution must be a list,"
            f" got {type(payload).__name__}"
        )
    distribution: AggregateDistribution = {}
    for entry in payload:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise WireFormatError(f"malformed aggregate entry {entry!r}")
        key, probability = entry
        if isinstance(key, str):
            key = decode_fraction(key)
            if key.denominator == 1:
                key = int(key)
        elif isinstance(key, bool) or not (key is None or isinstance(key, int)):
            raise WireFormatError(f"malformed aggregate value {entry[0]!r}")
        if key in distribution:
            raise WireFormatError(f"duplicate aggregate value {entry[0]!r}")
        distribution[key] = decode_fraction(probability)
    return distribution


def _encode_aggregate(distribution: AggregateDistribution) -> str:
    return json.dumps(encode_aggregate_distribution(distribution), ensure_ascii=False)


def _decode_aggregate(payload: str) -> AggregateDistribution:
    return decode_aggregate_distribution(json.loads(payload))


class AnswerCacheStore:  # impreciselint: guarded-by=_lock
    """On-disk answer/plan cache shared across processes.

    Construct with a directory (the standard layout — the SQLite file is
    created inside it) or a path to the database file itself::

        cache = AnswerCacheStore("/var/lib/imprecise/cache")
        hit = cache.get("movies", doc_digest, plan_digest)

    ``max_rows`` bounds the on-disk answer table: beyond it, the rows
    whose ``last_hit`` stamp is oldest are evicted on the next
    :meth:`put` (LRU by last hit — an answer re-served yesterday outlives
    one never asked for again).  The stamp is a file-global monotonic
    counter, so the ordering holds across processes sharing the file.
    Eviction is pure hygiene: an evicted answer is simply re-priced and
    re-stored on its next miss.  ``None`` (the default) keeps every row
    *and* keeps hits read-only — bounded stores pay one ``UPDATE`` per
    hit to maintain recency.

    Hit/miss/store/eviction counters are per-instance (process-local);
    row counts are global.  All methods are thread-safe.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        max_rows: Optional[int] = None,
        busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
        write_retries: int = WRITE_RETRIES,
    ) -> None:
        if max_rows is not None and max_rows < 1:
            raise StoreError(f"max_rows must be >= 1, got {max_rows}")
        if busy_timeout_ms < 0:
            raise StoreError(
                f"busy_timeout_ms must be >= 0, got {busy_timeout_ms}"
            )
        if write_retries < 1:
            raise StoreError(f"write_retries must be >= 1, got {write_retries}")
        path = Path(path)
        if path.suffix != ".sqlite":
            path.mkdir(parents=True, exist_ok=True)
            # impreciselint: disable=float-taint -- pathlib join, not arithmetic
            path = path / CACHE_FILENAME
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.max_rows = max_rows
        self.busy_timeout_ms = busy_timeout_ms
        self.write_retries = write_retries
        self._lock = threading.Lock()
        #: Set by :meth:`_connect_locked`, the one place a handle opens.
        self._conn: sqlite3.Connection
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.aggregate_hits = 0
        self.aggregate_misses = 0
        self.aggregate_stored = 0
        self.invalidations = 0
        self.evictions = 0
        self.busy_retries = 0
        #: The file generation: moves by one each time this instance
        #: moves to a new file — a quarantine, or following a sibling's
        #: swap — and at no other time, so a (generation, version) pair
        #: names one state of one file (see ``DataspaceService``'s fence).
        self.recoveries = 0
        #: Set by :meth:`close`; every later operation raises typed.
        self._closed = False
        #: Inode of the connected file; ``None`` until a connect finishes,
        #: which is how :meth:`_retry_locked` tells connecting apart.
        self._inode: Optional[int] = None
        #: Pending recency updates, (name, doc_digest, plan_digest) ->
        #: stamp.  Bounded stores buffer hit recency here instead of
        #: writing per hit (the hit path must stay read-only: no UPDATE,
        #: no commit fsync); flushed before the next put/close, which is
        #: also when eviction decisions are made.  A crash loses pending
        #: recency only — eviction *order*, never correctness.
        self._touches: dict[tuple[str, str, str], int] = {}
        self._clock: int = 0
        with self._lock:
            self._open_locked(None)

    # -- fault classification -----------------------------------------------

    @staticmethod
    def _is_busy(error: sqlite3.DatabaseError) -> bool:
        text = str(error).lower()
        return isinstance(error, sqlite3.OperationalError) and (
            "locked" in text or "busy" in text
        )

    #: ``sqlite3.OperationalError`` messages that mean the file itself is
    #: damaged (vs. transient contention): torn pages, a non-SQLite file
    #: at the path, a schema wiped by truncation.
    _CORRUPTION_MARKERS: tuple[str, ...] = (
        "malformed",
        "not a database",
        "corrupt",
        "no such table",
        "disk image",
        "file is encrypted",
    )

    @classmethod
    def _is_corruption(cls, error: sqlite3.DatabaseError) -> bool:
        """Classify a ``sqlite3.DatabaseError`` as file corruption.

        ``OperationalError`` is a *subclass* of ``DatabaseError`` and
        covers both transient contention (``database is locked``) and
        genuine damage (``database disk image is malformed``), so the
        operational case classifies by message — busy/locked is never
        corruption.  ``ProgrammingError`` (API misuse, closed handles)
        is never corruption either.  ``IntegrityError``/``DatabaseError``
        proper are corruption outright: this cache defines no constraints
        its own writes could violate."""
        if isinstance(error, sqlite3.ProgrammingError):
            return False
        if isinstance(error, sqlite3.OperationalError):
            if cls._is_busy(error):
                return False
            text = str(error).lower()
            return any(marker in text for marker in cls._CORRUPTION_MARKERS)
        return True

    # -- the fault rules ----------------------------------------------------

    def _path_inode(self) -> Optional[int]:
        """The inode now at ``self.path``, or ``None`` when it is gone."""
        try:
            return os.stat(self.path).st_ino
        except OSError:
            return None

    def _connect_locked(self) -> None:
        """The one connect routine (caller holds the lock): open a handle
        on ``self.path``, set ``busy_timeout``, switch to WAL with
        ``synchronous=NORMAL`` and create the tables — both under the
        busy budget — restart recency from the file's clock, and record
        the inode last (before the tables exist the file may not be on
        disk yet).  Corruption met on the way propagates to
        :meth:`_open_locked`."""
        self._inode = None
        # isolation_level=None: the connection stays in autocommit and
        # *this module* frames every write as an explicit BEGIN IMMEDIATE
        # transaction (the driver's implicit DEFERRED transactions would
        # acquire the write lock mid-transaction — exactly the upgrade
        # path that fails unrecoverably under multi-process contention).
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        # The WAL switch runs in autocommit (journal_mode cannot change
        # inside a transaction) and needs an exclusive lock, which SQLite
        # refuses at once, without the busy wait, while a sibling holds
        # a write transaction: the retry loop's backoff absorbs that.
        self._conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_ms)}")
        self._retry_locked(partial(self._conn.execute, "PRAGMA journal_mode=WAL"))
        # Commits do not fsync the WAL: an OS crash may lose the newest
        # rows, which are recomputed, but never corrupts the file.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._write_txn_locked(self._create_tables_locked)
        self._touches.clear()
        self._clock = self._file_clock_locked()
        self._inode = self._path_inode()

    def _open_locked(self, corrupt: Optional[sqlite3.DatabaseError]) -> None:
        """Connect to the file at ``self.path`` (caller holds the lock);
        the one place a corrupt file is quarantined.

        ``corrupt`` is the error by which a statement found the current
        file corrupt.  Then, or when connecting finds the file corrupt,
        the file moves aside to ``<name>.corrupt-N`` and an empty cache
        is rebuilt at the path: the cache is derived data, so corruption
        costs warmth, never correctness.  Corruption striking again on
        the fresh file (a wrecked filesystem, not a wrecked file) raises
        :class:`~repro.errors.StoreError` instead of looping.  Leaving a
        file — quarantined, or swapped out by a sibling — counts exactly
        one recovery."""
        moved = corrupt is not None or self._inode is not None
        try:
            if corrupt is None:
                try:
                    self._connect_locked()
                    return
                except sqlite3.DatabaseError as error:
                    if not self._is_corruption(error):
                        raise
                    moved = True
            self._close_conn_locked()
            self._quarantine_locked()
            try:
                self._connect_locked()
            except sqlite3.DatabaseError as error:
                raise StoreError(
                    f"answer cache at {self.path} failed again while"
                    f" rebuilding after corruption: {error}"
                ) from error
        finally:
            if moved:
                self.recoveries += 1

    def _close_conn_locked(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass  # a wrecked or stale handle; the file is left regardless

    def _quarantine_locked(self) -> None:
        """Move the (presumed corrupt) cache file aside to the first free
        ``<name>.corrupt-N`` slot, sidecar journals included — unless it
        is already gone, e.g. a sibling process quarantined it first."""
        sidecars = ("-wal", "-shm")
        if not self.path.exists():
            for suffix in sidecars:
                Path(str(self.path) + suffix).unlink(missing_ok=True)
            return
        number = 1
        while Path(f"{self.path}.corrupt-{number}").exists():
            number += 1
        target = Path(f"{self.path}.corrupt-{number}")
        try:
            self.path.rename(target)
        except OSError:
            return  # raced a sibling's quarantine; theirs won
        for suffix in sidecars:
            sidecar = Path(str(self.path) + suffix)
            try:
                sidecar.rename(Path(str(target) + suffix))
            except OSError:
                pass  # no journal to preserve

    def _enter_locked(self) -> None:
        """The one entry check, run first under the lock by every public
        operation but :meth:`close`.

        A closed store refuses with :class:`~repro.errors.StoreError` —
        instead of the driver's raw ``ProgrammingError``, and before a
        file swap could reopen the connection :meth:`close` released.
        Recovery renames the corrupt file and creates a fresh one at the
        same path, so a sibling still holding a descriptor to the
        *renamed* inode reconnects when the inode at the path moved: it
        joins the healthy replacement instead of quarantining it.  A
        file found corrupt on the way in is quarantined and rebuilt
        (:meth:`_open_locked`), and the operation runs on the new file.
        """
        if self._closed:
            raise StoreError(f"answer cache at {self.path} is closed")
        inode = self._path_inode()
        if inode is None or inode != self._inode:
            self._close_conn_locked()
            self._open_locked(None)

    def _read_locked(self, query: Callable[..., _T], empty: _T, *args: object) -> _T:
        """The one lookup funnel (caller holds the lock): the entry
        check, then ``query(*args)``.  A statement that finds the file
        corrupt quarantines it and answers ``empty`` — the rebuilt cache
        holds nothing."""
        self._enter_locked()
        try:
            return query(*args)
        except sqlite3.DatabaseError as error:
            if not self._is_corruption(error):
                raise
            self._open_locked(error)
            return empty

    def _retry_locked(self, attempt: Callable[[], object]) -> None:
        """The one retry loop (caller holds the lock), shared by the write
        transaction and the WAL switch.

        A write attempt already waits ``busy_timeout_ms`` inside SQLite;
        the bounded loop on top covers writer convoys across N serving
        processes, and exhaustion raises the typed
        :class:`~repro.errors.CacheBusyError` (callers must never see a
        raw ``database is locked``).  An attempt that finds the file
        corrupt quarantines and rebuilds it (:meth:`_open_locked`) and
        retries against the fresh file — unless a connect is under way,
        whose corruption is :meth:`_open_locked`'s to handle."""
        last: Optional[sqlite3.DatabaseError] = None
        for number in range(self.write_retries):
            if number:
                self.busy_retries += 1
                # Exponential backoff between attempts, on top of the
                # in-driver busy wait; capped so a contended close()
                # never stalls for seconds.
                # impreciselint: disable=float-taint -- backoff seconds, not probability
                time.sleep(min(0.1, 0.005 * (1 << number)))
            try:
                attempt()
                return
            except sqlite3.DatabaseError as error:
                last = error
                if self._is_busy(error):
                    continue
                if self._inode is None or not self._is_corruption(error):
                    raise
                self._open_locked(error)
        raise CacheBusyError(
            f"cache write on {self.path} still locked after"
            f" {self.write_retries} attempts"
            f" (busy_timeout {self.busy_timeout_ms} ms)"
        ) from last

    def _write_txn_locked(self, apply: Callable[[], None]) -> None:
        """Run ``apply`` as one ``BEGIN IMMEDIATE`` write transaction under
        :meth:`_retry_locked` (caller holds the lock).

        ``BEGIN IMMEDIATE`` takes the database write lock up front — so
        the transaction either starts with the lock or fails cleanly at
        ``BEGIN``, never half-way through on a deferred lock upgrade."""
        self._retry_locked(partial(self._txn_attempt_locked, apply))

    def _txn_attempt_locked(self, apply: Callable[[], None]) -> None:
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            apply()
            self._conn.execute("COMMIT")
        except sqlite3.DatabaseError:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass  # the transaction never started or already died
            raise

    # -- schema -------------------------------------------------------------

    def _create_tables_locked(self) -> None:
        conn = self._conn
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            # Older/newer format: drop rather than misread.
            conn.execute("DROP TABLE IF EXISTS answers")
            conn.execute("DROP TABLE IF EXISTS aggregates")
            conn.execute("DROP TABLE IF EXISTS plans")
            conn.execute("DROP TABLE IF EXISTS versions")
            row = None
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS answers (
                doc_name TEXT NOT NULL,
                doc_digest TEXT NOT NULL,
                plan_digest TEXT NOT NULL,
                expression TEXT,
                payload TEXT NOT NULL,
                doc_version INTEGER NOT NULL,
                last_hit INTEGER NOT NULL DEFAULT 0,
                PRIMARY KEY (doc_name, doc_digest, plan_digest)
            )
            """
        )
        conn.execute(
            # The LRU clock (MAX) and eviction scan (ORDER BY ... LIMIT)
            # both walk this index instead of the table.
            "CREATE INDEX IF NOT EXISTS answers_last_hit"
            " ON answers (last_hit)"
        )
        conn.execute(
            # Persisted aggregate distributions: same keying discipline
            # as ``answers`` (content digest × stable spec digest, the
            # version-fence column), one row per distinct aggregate.
            # The table is outside the ``max_rows`` LRU — aggregate rows
            # are few (one per spec, not per answer value) and are
            # reclaimed by per-name invalidation.
            """
            CREATE TABLE IF NOT EXISTS aggregates (
                doc_name TEXT NOT NULL,
                doc_digest TEXT NOT NULL,
                agg_digest TEXT NOT NULL,
                spec TEXT,
                payload TEXT NOT NULL,
                doc_version INTEGER NOT NULL,
                PRIMARY KEY (doc_name, doc_digest, agg_digest)
            )
            """
        )
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS plans (
                expression TEXT PRIMARY KEY,
                plan_digest TEXT NOT NULL
            )
            """
        )
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS versions (
                doc_name TEXT PRIMARY KEY,
                version INTEGER NOT NULL
            )
            """
        )
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )

    def _run_locked(self, sql: str, params: tuple[object, ...] = ()) -> Any:
        """Execute one statement; its first row, or ``None``."""
        return self._conn.execute(sql, params).fetchone()

    def _file_clock_locked(self) -> int:
        """The file-global LRU clock: the largest ``last_hit`` stamp (an
        indexed lookup)."""
        clock: int = self._run_locked(
            "SELECT COALESCE(MAX(last_hit), 0) FROM answers"
        )[0]
        return clock

    # -- plan memo ----------------------------------------------------------

    def plan_digest(self, expression: str) -> Optional[str]:
        """Persisted fingerprint digest of a query string, if known.

        Lets a warm process key straight into :meth:`get` without
        re-compiling the expression (exact string match only; distinct
        spellings converge once compiled and remembered)."""
        with self._lock:
            row = self._read_locked(
                self._run_locked,
                None,
                "SELECT plan_digest FROM plans WHERE expression = ?",
                (expression,),
            )
        if row is None:
            return None
        digest: str = row[0]
        return digest

    def remember_plan(self, expression: str, plan_digest: str) -> None:
        """Persist the expression → fingerprint-digest mapping."""
        with self._lock:
            self._enter_locked()
            self._write_txn_locked(
                partial(self._run_locked, _REMEMBER_PLAN, (expression, plan_digest))
            )

    # -- answers ------------------------------------------------------------

    def _row_locked(self, sql: str, key: tuple[str, str, str]) -> Optional[str]:
        """Payload of the answer or aggregate row at ``key`` — ``None``
        when absent or written before the name's last invalidation."""
        row = self._run_locked(sql, key)
        if row is None or row[1] != self._version_locked(key[0]):
            return None
        payload: str = row[0]
        return payload

    def get(
        self,
        doc_name: str,
        doc_digest: str,
        plan_digest: str,
        *,
        record: bool = True,
    ) -> Optional[RankedAnswer]:
        """Cached ranked answer, or ``None``; exact-Fraction decode.

        ``record=False`` leaves the hit/miss counters untouched — for
        double-checked lookups (an optimistic probe followed by an
        under-lock re-probe) that would otherwise count one logical miss
        twice."""
        key = (doc_name, doc_digest, plan_digest)
        with self._lock:
            payload = self._read_locked(self._row_locked, None, _ANSWER_ROW, key)
            if payload is not None and self.max_rows is not None:
                # Bounded stores maintain recency — buffered in memory,
                # so the hit path stays free of writes and fsyncs.
                self._clock += 1
                self._touches[key] = self._clock
            if record:
                if payload is None:
                    self.misses += 1
                else:
                    self.hits += 1
        if payload is None:
            return None
        return _decode_answer(payload)

    def put(
        self,
        doc_name: str,
        doc_digest: str,
        plan_digest: str,
        answer: RankedAnswer,
        *,
        expression: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        """Persist a priced answer under (document content, plan) keys.

        ``version`` is the document version the caller observed *before*
        evaluating (see :meth:`version`); if an invalidation lands in
        between, the row is stamped stale and :meth:`get` will ignore it
        — that is the fence the module docstring describes.  Defaults to
        the current version (no interleaving possible, e.g. writes under
        the caller's own lock)."""
        key = (doc_name, doc_digest, plan_digest)
        payload = _encode_answer(answer)
        evicted = 0

        def apply() -> None:
            nonlocal evicted
            evicted = self._put_answer_locked(key, expression, payload, version)

        with self._lock:
            self._enter_locked()
            self._write_txn_locked(apply)
            self._touches.clear()
            self.evictions += evicted
            self.stored += 1

    def _put_answer_locked(
        self,
        key: tuple[str, str, str],
        expression: Optional[str],
        payload: str,
        version: Optional[int],
    ) -> int:
        """The body of :meth:`put`'s transaction.  Returns the evicted
        row count — the caller adds it to ``evictions`` only once the
        transaction commits (a rolled-back, retried attempt must not
        double-count)."""
        self._flush_touches_locked()
        self._conn.execute(
            "INSERT OR REPLACE INTO answers VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                *key,
                expression,
                payload,
                version if version is not None else self._version_locked(key[0]),
                self._next_stamp_locked(),
            ),
        )
        if expression is not None:
            self._conn.execute(_REMEMBER_PLAN, (expression, key[2]))
        return self._evict_locked()

    # -- aggregates ---------------------------------------------------------

    def get_aggregate(
        self,
        doc_name: str,
        doc_digest: str,
        agg_digest: str,
        *,
        record: bool = True,
    ) -> Optional[AggregateDistribution]:
        """Cached aggregate distribution, or ``None``; exact-Fraction
        decode.  ``agg_digest`` is :attr:`repro.query.aggregates.
        AggregateSpec.digest` — stable across processes, like the answer
        rows' plan digest.  ``record=False`` skips the hit/miss counters
        (double-checked lookups, as in :meth:`get`)."""
        with self._lock:
            payload = self._read_locked(
                self._row_locked,
                None,
                _AGGREGATE_ROW,
                (doc_name, doc_digest, agg_digest),
            )
            if record:
                if payload is None:
                    self.aggregate_misses += 1
                else:
                    self.aggregate_hits += 1
        if payload is None:
            return None
        return _decode_aggregate(payload)

    def put_aggregate(
        self,
        doc_name: str,
        doc_digest: str,
        agg_digest: str,
        distribution: AggregateDistribution,
        *,
        spec: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        """Persist an aggregate distribution under (document content,
        spec digest) keys; ``version`` is the same invalidation fence
        :meth:`put` documents (``spec`` is a human-readable description,
        stored for diagnostics only)."""
        key = (doc_name, doc_digest, agg_digest)
        payload = _encode_aggregate(distribution)
        with self._lock:
            self._enter_locked()
            self._write_txn_locked(
                partial(self._put_aggregate_locked, key, spec, payload, version)
            )
            self.aggregate_stored += 1

    def _put_aggregate_locked(
        self,
        key: tuple[str, str, str],
        spec: Optional[str],
        payload: str,
        version: Optional[int],
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO aggregates VALUES (?, ?, ?, ?, ?, ?)",
            (
                *key,
                spec,
                payload,
                version if version is not None else self._version_locked(key[0]),
            ),
        )

    def _next_stamp_locked(self) -> int:
        """The next value of the LRU clock: past both this instance's
        in-memory clock and the file's, so the ordering is shared by
        every process writing this file."""
        self._clock = max(self._clock, self._file_clock_locked()) + 1
        return self._clock

    def _flush_touches_locked(self) -> None:
        """Write buffered hit-recency stamps (caller holds the lock and
        commits); rows that vanished meanwhile are silent no-ops.

        Stamps are rebased above the file's current clock at flush time —
        another process may have advanced the file clock past this
        instance's buffered values, and flushing stale stamps would rank
        this instance's hottest rows as the oldest.  Relative order
        within the buffer is preserved.  The buffer itself is cleared by
        the caller *after* the transaction commits, so a busy-retried
        attempt re-flushes the same stamps instead of dropping them."""
        if not self._touches:
            return
        stamp = self._file_clock_locked()
        updates: list[tuple[int, str, str, str]] = []
        for key, _ in sorted(self._touches.items(), key=lambda entry: entry[1]):
            stamp += 1
            updates.append((stamp, *key))
        self._clock = max(self._clock, stamp)
        self._conn.executemany(
            "UPDATE answers SET last_hit = ? WHERE doc_name = ?"
            " AND doc_digest = ? AND plan_digest = ?",
            updates,
        )

    def _evict_locked(self) -> int:
        """Drop least-recently-hit rows beyond ``max_rows`` (no-op when
        unbounded); caller holds the lock, inside a write transaction.
        Returns the evicted row count."""
        if self.max_rows is None:
            return 0
        count: int = self._run_locked("SELECT COUNT(*) FROM answers")[0]
        overflow = count - self.max_rows
        if overflow <= 0:
            return 0
        cursor = self._conn.execute(
            "DELETE FROM answers WHERE rowid IN"
            " (SELECT rowid FROM answers ORDER BY last_hit ASC, rowid ASC"
            " LIMIT ?)",
            (overflow,),
        )
        return cursor.rowcount

    # -- invalidation -------------------------------------------------------

    def _version_locked(self, doc_name: str) -> int:
        row = self._run_locked(
            "SELECT version FROM versions WHERE doc_name = ?", (doc_name,)
        )
        if row is None:
            return 0
        version: int = row[0]
        return version

    def version(self, doc_name: str) -> int:
        """Monotonic invalidation counter of a document name (0 initially,
        and 0 again on a rebuilt file: pair it with :attr:`recoveries`)."""
        with self._lock:
            return self._read_locked(self._version_locked, 0, doc_name)

    def invalidate_document(self, doc_name: str) -> int:
        """Drop every persisted answer of ``doc_name`` and bump its version.

        Returns the number of rows dropped.  Content addressing already
        prevents stale serving — this reclaims space and fences off
        writers that priced an answer against the superseded content.
        """
        dropped = 0

        def apply() -> None:
            nonlocal dropped
            dropped = self._invalidate_locked(doc_name)

        with self._lock:
            self._enter_locked()
            for key in [k for k in self._touches if k[0] == doc_name]:
                del self._touches[key]  # never resurrect recency on re-put
            self._write_txn_locked(apply)
            self.invalidations += 1
        return dropped

    def _invalidate_locked(self, doc_name: str) -> int:
        dropped: int = self._conn.execute(
            "DELETE FROM answers WHERE doc_name = ?", (doc_name,)
        ).rowcount
        self._conn.execute("DELETE FROM aggregates WHERE doc_name = ?", (doc_name,))
        self._conn.execute(
            "INSERT OR REPLACE INTO versions VALUES"
            " (?, COALESCE((SELECT version FROM versions WHERE"
            " doc_name = ?), 0) + 1)",
            (doc_name, doc_name),
        )
        return dropped

    def clear(self) -> None:
        """Drop every answer and plan row (versions are kept)."""
        with self._lock:
            self._enter_locked()
            self._touches.clear()
            self._write_txn_locked(self._clear_locked)

    def _clear_locked(self) -> None:
        for table in ("answers", "aggregates", "plans"):
            self._conn.execute(f"DELETE FROM {table}")

    # -- diagnostics --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            count: int = self._read_locked(
                self._run_locked, (0,), "SELECT COUNT(*) FROM answers"
            )[0]
        return count

    def stats(self) -> dict[str, int]:
        """Process-local counters plus on-disk row counts."""
        with self._lock:
            answers, aggregates, plans = self._read_locked(
                self._run_locked,
                (0, 0, 0),
                "SELECT (SELECT COUNT(*) FROM answers),"
                " (SELECT COUNT(*) FROM aggregates),"
                " (SELECT COUNT(*) FROM plans)",
            )
        return {
            "persistent_answers": answers,
            "persistent_aggregates": aggregates,
            "persistent_plans": plans,
            "persistent_hits": self.hits,
            "persistent_misses": self.misses,
            "persistent_stored": self.stored,
            "persistent_aggregate_hits": self.aggregate_hits,
            "persistent_aggregate_misses": self.aggregate_misses,
            "persistent_aggregate_stored": self.aggregate_stored,
            "persistent_invalidations": self.invalidations,
            "persistent_evictions": self.evictions,
            "persistent_busy_retries": self.busy_retries,
            "persistent_recoveries": self.recoveries,
        }

    def close(self) -> None:
        """Persist pending recency stamps and close the connection
        (idempotent).  Contention on the final flush is tolerated — the
        stamps are recency hygiene, not correctness — so a close() racing
        N sibling processes never raises.  Every later operation raises
        :class:`~repro.errors.StoreError`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                if self._touches:
                    self._write_txn_locked(self._flush_touches_locked)
                    self._touches.clear()
            except sqlite3.DatabaseError:
                pass  # corrupt: stamps are hygiene only
            # impreciselint: disable=no-swallow -- close() is best-effort by contract; recency stamps are expendable
            except CacheBusyError:
                pass  # recency stamps are expendable; close regardless
            self._conn.close()

    def __enter__(self) -> "AnswerCacheStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AnswerCacheStore({str(self.path)!r}, hits={self.hits},"
            f" misses={self.misses})"
        )
