"""The dataspace service: concurrent, cache-persistent query serving.

This is the Figure 4 stack assembled for the heavy-traffic path the
ROADMAP aims at.  :class:`DataspaceService` composes

* a thread-safe :class:`~repro.dbms.store.DocumentStore` (per-name
  sharded locks, optional LRU bound on materialized documents),
* the in-memory amortization layers — compiled
  :class:`~repro.query.plan.QueryPlan`\\ s and per-document
  :class:`~repro.pxml.events_cache.EventProbabilityCache`\\ s — and
* an optional persistent :class:`~repro.dbms.cache_store.AnswerCacheStore`
  so priced answers survive process restarts,

behind one facade safe for many threads: :meth:`query`,
:meth:`run_batch`, :meth:`query_all` / :meth:`aggregate_all` (the
dataspace-wide fan-out with rank fusion — see
:mod:`repro.query.fusion`), :meth:`integrate`, :meth:`feedback`.

Serving discipline — two private routines state it once, and every
public method is a short adapter over one of them:

1. :meth:`~DataspaceService._serve` is every cache-keyed read
   (:meth:`query`, :meth:`aggregate`; :meth:`run_batch` and the
   fan-outs loop over them).  The key is ``(document name, content
   digest, plan or aggregate digest)``, stable across processes (see
   :mod:`repro.dbms.cache_store`).  A persistent **hit** deserializes
   exact Fractions lock-free — no walk, no pricing, no engine — so hits
   proceed in parallel; a **miss** takes the name's shard lock, prices
   on the shared :class:`~repro.query.engine.QueryEngine`, and persists
   the result stamped with the version read before pricing.
2. :meth:`~DataspaceService._mutate` is every mutation (:meth:`load`,
   :meth:`load_document`, :meth:`delete`, :meth:`integrate`,
   :meth:`feedback`): under the name's shard lock it reads the
   persistent version (a closed cache refuses here, before anything is
   written), fences the names the mutation reads, applies it, and bumps
   the version, dropping the name's rows.  Correctness never depends on
   that purge — the content digest changes with the content.
3. The per-name version is also the **cross-process fence** for
   processes sharing one cache directory (``imprecise serve --workers
   N``): reads, mutations that read a stored document, and
   :meth:`stats` first compare it with the version this instance last
   observed and, on movement, drop the name's in-memory state, so a
   sibling's mutation is re-read from disk rather than served — or
   overwritten — from a stale materialization.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

from ..core.engine import IntegrationReport
from ..core.oracle import Oracle
from ..core.rules import Rule
from ..deadline import Deadline, active
from ..errors import (
    CacheBusyError,
    DeadlineExceededError,
    MissingDocumentError,
    QueryError,
    StoreError,
)
from ..feedback.conditioning import FeedbackStep
from ..pxml.build import certain_document
from ..pxml.events_cache import cache_for
from ..pxml.events_compile import LiteralProbabilityTable, shared_literal_table
from ..pxml.model import PXDocument
from ..pxml.stats import NodeStats
from ..query.aggregates import (
    AggregateDistribution,
    AggregateSpec,
    aggregate_distribution,
    compile_aggregate,
)
from ..query.engine import QueryEngine, QueryLike
from ..query.fusion import (
    DEFAULT_RRF_K,
    FusedAnswer,
    WeightLike,
    fuse_aggregates,
    fuse_answers,
)
from ..query.plan import compile_plan
from ..query.ranking import RankedAnswer
from ..xmlkit.dtd import DTD
from ..xmlkit.nodes import XDocument
from .cache_store import AnswerCacheStore
from .module import ImpreciseModule
from .store import DocumentStore

__all__ = ["DataspaceService", "format_cache_stats"]

_SERVICE_SHARDS = 16

_T = TypeVar("_T")


def format_cache_stats(stats: dict) -> str:
    """Render a :meth:`DataspaceService.cache_stats` dict, one sorted
    ``key: value`` line per counter.

    This is the single formatting path for cache diagnostics: the
    ``imprecise serve`` CLI (``cache-stats`` protocol command and
    ``--cache-stats`` exit report) prints exactly this, and ``GET
    /stats`` on the HTTP front serves the same dict as JSON — the two
    surfaces cannot drift because neither picks its own counters.
    """
    return "\n".join(f"{key}: {value:,}" for key, value in sorted(stats.items()))


@contextmanager
def _bounded(deadline: Optional[Deadline]) -> Iterator[None]:
    """One bounded call: ``deadline`` is active on this thread and
    checked once up front.  ``None`` leaves whatever deadline is already
    active (a fan-out's or a batch's) in force."""
    if deadline is None:
        yield
        return
    with active(deadline):
        deadline.check()
        yield


def _aggregate_spec(
    kind: Union[str, AggregateSpec], target: Optional[str], text: Optional[str]
) -> AggregateSpec:
    """A compiled ``kind``, or ``(kind, target, text)`` compiled."""
    if not isinstance(kind, AggregateSpec):
        return compile_aggregate(kind, target, text=text)
    if target is not None or text is not None:
        # Mirror aggregate_distribution's guard: silently dropping the
        # filter would serve the wrong distribution.
        raise QueryError(
            "pass either a compiled AggregateSpec or (kind, target, text=),"
            " not both"
        )
    return kind


class DataspaceService:  # impreciselint: guarded-by=_mu
    """Concurrent query/integration service over a document store.

    >>> service = DataspaceService()
    >>> service.load("a", "<r><x>1</x></r>")
    >>> service.query("a", "//x").values()
    ['1']

    Construct over a store directory and a cache directory to get the
    persistent, warm-restartable configuration::

        service = DataspaceService(directory="store/", cache_dir="cache/")

    All public methods are thread-safe; concurrent queries return exactly
    the answers serial execution would (same Fractions).
    """

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        *,
        directory: Optional[Union[str, Path]] = None,
        cache_store: Optional[AnswerCacheStore] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_cached_documents: Optional[int] = None,
        cache_max_rows: Optional[int] = None,
        literal_table: Optional[LiteralProbabilityTable] = None,
    ):
        if store is not None and directory is not None:
            raise StoreError("pass either store= or directory=, not both")
        if cache_store is not None and cache_dir is not None:
            raise StoreError("pass either cache_store= or cache_dir=, not both")
        if cache_max_rows is not None and cache_dir is None:
            # Silently dropping the bound would leave the caller believing
            # the cache is bounded (or exists at all).
            raise StoreError(
                "cache_max_rows requires cache_dir=; for an explicit"
                " cache_store=, configure its max_rows directly instead"
            )
        self.store = (
            store
            if store is not None
            else DocumentStore(directory, max_cached=max_cached_documents)
        )
        if cache_store is None and cache_dir is not None:
            cache_store = AnswerCacheStore(cache_dir, max_rows=cache_max_rows)
        self.cache: Optional[AnswerCacheStore] = cache_store
        self._module = ImpreciseModule(self.store)
        #: The cross-document literal/small-conjunction row store every
        #: engine this service builds prices through (see
        #: :class:`~repro.pxml.events_compile.LiteralProbabilityTable`)
        #: — the process-shared table unless an explicit one is passed,
        #: so pricing one compiled plan over N documents shares rows.
        self.literal_table: LiteralProbabilityTable = (
            literal_table if literal_table is not None
            else shared_literal_table()
        )
        #: name -> (content digest, engine over that content); LRU-bounded
        #: by the store's max_cached so engines (which hold their document
        #: strongly) cannot defeat the store's materialization bound.
        self._engines: "OrderedDict[str, tuple[str, QueryEngine]]" = OrderedDict()
        self._max_engines = self.store.max_cached
        self._mu = threading.Lock()
        self._shards = [threading.RLock() for _ in range(_SERVICE_SHARDS)]
        #: Persistent-cache writes absorbed under pathological write-lock
        #: contention (see :meth:`_cache_put_guarded`): each one cost
        #: warmth (the answer was served uncached), never the request.
        self.cache_write_failures = 0
        #: name -> (cache file generation, persistent version) last
        #: observed by this instance — the cross-process invalidation
        #: fence (see :meth:`_fence_check`).
        self._observed_versions: dict[str, tuple[int, int]] = {}

    # -- internals ----------------------------------------------------------

    def _name_lock(self, name: str) -> threading.RLock:
        return self._shards[zlib.crc32(name.encode("utf-8")) % _SERVICE_SHARDS]

    def _engine(self, name: str, digest: str) -> QueryEngine:
        """The shared engine over ``name``'s current content (rebuilt when
        the digest moved; least-recently-used entries evicted beyond the
        store's ``max_cached`` bound)."""
        with self._mu:
            entry = self._engines.get(name)
            if entry is not None and entry[0] == digest:
                self._engines.move_to_end(name)
                return entry[1]
        document = self.store.get(name)
        if isinstance(document, XDocument):
            document = certain_document(document)
        # Stamp the service's cross-document table on the document's
        # shared cache before the engine adopts it: every engine this
        # service builds then prices literals and small conjunctions
        # through one row store.
        cache = cache_for(document)
        cache.literal_table = self.literal_table
        engine = QueryEngine(document, cache=cache)
        with self._mu:
            entry = self._engines.get(name)
            if entry is not None and entry[0] == digest:
                self._engines.move_to_end(name)
                return entry[1]  # lost the race; share the winner's engine
            self._engines[name] = (digest, engine)
            self._engines.move_to_end(name)
            if self._max_engines is not None:
                while len(self._engines) > self._max_engines:
                    self._engines.popitem(last=False)
        return engine

    def _cache_put_guarded(self, write: Callable[[], None]) -> None:
        """Run one persistent-cache write, absorbing
        :class:`~repro.errors.CacheBusyError`.

        By the time a write runs, the answer is already computed; a
        cache row is warmth, never correctness — so pathological
        write-lock contention (N sibling processes in a writer convoy)
        must cost the row, not the request that did the work.  Absorbed
        writes tick ``cache_write_failures`` (surfaced by
        :meth:`cache_stats`).  This is the *only* sanctioned absorb
        point: reads and mutations let the typed error propagate."""
        try:
            write()
        # impreciselint: disable=no-swallow -- the sanctioned absorb point this rule exists to make unique; counted, documented above
        except CacheBusyError:
            with self._mu:
                self.cache_write_failures += 1

    def _plan_and_digest(self, expression: QueryLike) -> tuple[QueryLike, str]:
        """Resolve the plan-digest half of the cache key and what a miss
        runs: the compiled plan, or ``expression`` itself when the
        persistent plan memo answers without compiling."""
        if self.cache is not None and isinstance(expression, str):
            known = self.cache.plan_digest(expression)
            if known is not None:
                return expression, known
        plan = compile_plan(expression)
        if self.cache is not None and isinstance(expression, str):
            self._cache_put_guarded(
                lambda: self.cache.remember_plan(
                    expression, plan.fingerprint_digest
                )
            )
        return plan, plan.fingerprint_digest

    @staticmethod
    def _fan_out(
        names: Sequence[str],
        price: Callable[[str], object],
        deadline: Optional[Deadline],
        allow_partial: bool,
        *,
        what: str,
    ) -> tuple[dict, tuple[str, ...]]:
        """Price ``names`` in order on the calling thread, with
        ``deadline`` active for the whole loop; returns the finished
        results by name and the omitted tail (the contract is
        :meth:`query_all`'s)."""
        results: dict = {}
        with active(deadline):
            for index, name in enumerate(names):
                try:
                    if deadline is not None:
                        deadline.check()
                    results[name] = price(name)
                # impreciselint: disable=no-swallow -- the expiry becomes the omitted tail; raised typed below unless allow_partial keeps the finished prefix
                except DeadlineExceededError as error:
                    expired, omitted = error, tuple(names[index:])
                    break
            else:
                return results, ()
        if not allow_partial:
            raise DeadlineExceededError(
                f"{what}: {expired} with {len(omitted)} of {len(names)}"
                " documents unfinished"
            ) from expired
        if not results:
            raise DeadlineExceededError(
                f"{what}: {expired} before any of {len(names)} documents"
                " finished"
            ) from expired
        return results, omitted

    def _select_names(
        self,
        names: Optional[Sequence[str]],
        glob: Optional[str],
        *,
        what: str,
    ) -> list[str]:
        """Resolve a fan-out membership to a pinned sorted name list.

        ``names=None, glob=None`` selects the whole store; explicit
        names are deduplicated, sorted, and checked to exist up front
        (better one clean error than a half-submitted fan-out)."""
        if names is not None and glob is not None:
            raise StoreError(f"{what}: pass either names= or glob=, not both")
        if names is not None:
            selected = sorted(set(names))
            for name in selected:
                if name not in self.store:
                    raise MissingDocumentError(f"no document named {name!r}")
        elif glob is not None:
            selected = self.store.glob(glob)
        else:
            selected = self.store.list()
        if not selected:
            raise MissingDocumentError(
                f"{what} selected no documents"
                + (f" (glob {glob!r})" if glob is not None else "")
            )
        return selected

    def _serve(
        self,
        name: str,
        key: str,
        get: Callable[..., Optional[_T]],
        put: Callable[..., None],
        price: Callable[[QueryEngine], _T],
    ) -> _T:
        """The cache-keyed read (serving-discipline point 1).  ``key``
        is the plan or aggregate digest; ``get``/``put`` are the row
        family's :class:`AnswerCacheStore` accessors, called as
        ``get(cache, name, digest, key)`` and ``put(cache, name, digest,
        key, value, version=)``; ``price`` computes a miss on the shared
        engine."""
        self._fence_check(name)
        cache = self.cache
        if cache is not None:
            # Optimistic lock-free fast path: hits deserialize in parallel.
            hit = get(cache, name, self.store.digest(name), key)
            if hit is not None:
                return hit
        with self._name_lock(name):
            # Mutations hold this same lock, so the digest is stable for
            # the whole price-and-persist step below.
            digest = self.store.digest(name)
            if cache is None:
                return price(self._engine(name, digest))
            # Re-check under the lock (a racing miss may have landed);
            # record=False — the optimistic probe already counted.
            hit = get(cache, name, digest, key, record=False)
            if hit is not None:
                return hit
            # Version observed before pricing: if another *process*
            # invalidates meanwhile, our row is stamped stale and ignored.
            observed = cache.version(name)
            value = price(self._engine(name, digest))
            self._cache_put_guarded(
                lambda: put(cache, name, digest, key, value, version=observed)
            )
            return value

    def _mutate(
        self, name: str, apply: Callable[[], _T], reads: Sequence[str] = ()
    ) -> _T:
        """The mutation routine (serving-discipline point 2): under
        ``name``'s shard lock, read its persistent version, fence every
        name in ``reads`` (the stored documents ``apply`` reads), run
        ``apply``, and invalidate ``name``.  Reading the version first
        makes a closed cache refuse before ``apply`` writes anything."""
        with self._name_lock(name):
            before = self._version_key(name)
            for read in reads:
                self._fence_check(read)
            result = apply()
            self._invalidate(name, before)
            return result

    def _invalidate(
        self, name: str, before: Optional[tuple[int, int]]
    ) -> None:
        """Drop ``name``'s engine and persistent rows and bump its
        version; ``before`` is the version key read before the mutation."""
        with self._mu:
            self._engines.pop(name, None)
        if self.cache is None:
            return
        self.cache.invalidate_document(name)
        after = self._version_key(name)
        with self._mu:
            if before is not None and after == (before[0], before[1] + 1):
                # Only our own bump: the in-memory state (we just wrote
                # it) is current, so record the version and keep the
                # materialization warm.
                self._observed_versions[name] = after
            else:
                # A sibling process interleaved a mutation, or the cache
                # moved to a new file — forget what we observed so the
                # next read refreshes.
                self._observed_versions.pop(name, None)

    def _version_key(self, name: str) -> Optional[tuple[int, int]]:
        """``name``'s persistent version keyed by the cache's file
        generation (:attr:`AnswerCacheStore.recoveries`): a rebuilt file
        restarts every version at 0, so a version alone cannot tell a
        fresh file from an unmutated name.  ``None`` without a cache, or
        when the generation moved during the read."""
        cache = self.cache
        if cache is None:
            return None
        generation = cache.recoveries
        version = cache.version(name)
        return (generation, version) if cache.recoveries == generation else None

    def _fence_check(self, name: str) -> None:
        """The cross-process invalidation fence (serving-discipline
        point 3): compare the persistent per-name version key against
        the one this instance last observed and, on movement, drop every
        piece of in-memory state derived from the old content — the
        shared engine and the store's materialization + content digest
        — so a mutation committed by a sibling process is re-read from
        disk instead of served from a stale materialization.

        Version 0 of generation 0 with nothing observed means the name
        was never invalidated in any file this instance used, so
        whatever we hold came straight from disk and is current.  A
        request racing the sibling's mutation itself may still price the
        pre-mutation content — that answer is keyed by the *old* content
        digest and stamped with a stale version, so it is never served
        to anyone reading the new state.
        """
        if self.cache is None:
            return
        current = self._version_key(name)
        with self._mu:
            known = self._observed_versions.pop(name, None)
            if current is not None:
                self._observed_versions[name] = current
                if known == current or (known is None and current == (0, 0)):
                    return
            self._engines.pop(name, None)
        self.store.refresh(name)

    # -- loading ------------------------------------------------------------

    def load(self, name: str, xml_text: str) -> None:
        """Parse and store a plain XML source document."""
        self._mutate(name, lambda: self._module.load(name, xml_text))

    def load_document(
        self, name: str, document: Union[XDocument, PXDocument]
    ) -> None:
        """Store an already-built document under ``name``."""
        self._mutate(name, lambda: self._module.load_document(name, document))

    def delete(self, name: str) -> None:
        """Remove a document and every answer cached for it."""
        self._mutate(name, lambda: self.store.delete(name))

    def list(self) -> list[str]:
        """All stored document names, sorted."""
        return self.store.list()

    def documents(self) -> list[dict]:
        """``[{"name": ..., "kind": "xml" | "pxml"}, ...]``, sorted by
        name — the listing surface the CLI and the HTTP front share.
        A name deleted concurrently between the listing and its kind
        lookup is skipped, not an error."""
        entries = []
        for name in self.store.list():
            try:
                entries.append({"name": name, "kind": self.store.kind(name)})
            except MissingDocumentError:
                continue  # deleted mid-listing by another thread
        return entries

    # -- querying -----------------------------------------------------------

    def query(
        self,
        name: str,
        expression: QueryLike,
        *,
        deadline: Optional[Deadline] = None,
    ) -> RankedAnswer:
        """Ranked probabilistic answer of an XPath query over ``name``.

        Served from the persistent cache when the (content, plan) pair
        has been priced before — by this process or any earlier one.

        ``deadline=`` bounds wall-clock, never precision: it is
        activated on this thread for the duration of the call, the
        engine's evaluation loops poll it, and expiry raises the typed
        :class:`DeadlineExceededError` — the answer is exact or absent,
        never approximate.
        """
        with _bounded(deadline):
            runnable, plan_digest = self._plan_and_digest(expression)
            text = expression if isinstance(expression, str) else None
            return self._serve(
                name,
                plan_digest,
                AnswerCacheStore.get,
                partial(AnswerCacheStore.put, expression=text),
                lambda engine: engine.run(runnable),
            )

    def run_batch(
        self,
        name: str,
        expressions: Sequence[QueryLike],
        *,
        deadline: Optional[Deadline] = None,
    ) -> list[RankedAnswer]:
        """Evaluate a workload over ``name``; answers align with inputs.

        A batch is :meth:`query` called once per expression — each one
        fenced, probed and priced exactly as that call would be, sharing
        the document's engine and caches — so it is Fraction-identical
        to serial :meth:`query` calls, and an empty batch touches
        nothing.  ``deadline=`` bounds the whole batch: it either
        completes exactly or raises typed.
        """
        with _bounded(deadline):
            return [self.query(name, expression) for expression in expressions]

    def query_all(
        self,
        expression: QueryLike,
        *,
        names: Optional[Sequence[str]] = None,
        glob: Optional[str] = None,
        strategy: str = "prob",
        weights: Optional[Mapping[str, WeightLike]] = None,
        rrf_k: Union[int, str, Fraction] = DEFAULT_RRF_K,
        deadline: Optional[Deadline] = None,
        allow_partial: bool = False,
    ) -> FusedAnswer:
        """Fan one query across many documents and fuse the per-document
        answers into a single ranked result (ROADMAP item 2: querying
        the dataspace *as a whole*).

        The membership is the whole store by default, or ``names=``
        (explicit list) / ``glob=`` (shell-style pattern, see
        :meth:`DocumentStore.glob`) — always resolved to the pinned
        sorted order, so fused ranks are reproducible across platforms
        and argument orders.  The plan is compiled **once** and the
        documents are priced one after another on the calling thread,
        each through the full serving stack (:meth:`query`): persistent
        rows hit without touching an engine, misses price through the
        shared engines and the service's cross-document
        ``literal_table``.  The first per-document error propagates at
        once and no later document is priced.  Parallelism belongs to
        the serving tier (threads and worker processes), not to one
        request.  Fusion semantics (``strategy``, ``weights``,
        ``rrf_k``) are :func:`repro.query.fusion.fuse_answers`.

        ``deadline=`` bounds the whole fan-out end to end: it is active
        on this thread for the loop, checked before each document and
        inside pricing.  The document that runs out of budget and every
        document after it in name order are unfinished.  The call then
        raises the typed :class:`DeadlineExceededError`, or — with
        ``allow_partial=True`` — returns the fusion of the finished
        prefix, with the unfinished tail recorded in the answer's
        ``omitted`` marker (``FusedAnswer.partial`` is then true) and
        the prior renormalized over the finished documents.  If no
        document finished it raises the typed error.  Every fused
        per-document answer remains exact.  ``allow_partial`` without
        a ``deadline`` raises :class:`~repro.errors.QueryError`.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><x>1</x></r>")
        >>> service.load("b", "<r><x>1</x><x>2</x></r>")
        >>> service.query_all("//x").values()
        ['1', '2']

        Fraction-identical to fusing serial :meth:`query` calls.
        """
        if allow_partial and deadline is None:
            raise QueryError("query_all: allow_partial requires a deadline")
        selected = self._select_names(names, glob, what="query_all")
        plan = compile_plan(expression)
        # The deadline travels as the active one, not as a keyword, so
        # test doubles (and subclasses) that shim ``query(name, plan)``
        # stay compatible.
        answers, omitted = self._fan_out(
            selected,
            lambda name: self.query(name, plan),
            deadline,
            allow_partial,
            what="query_all",
        )
        if omitted and weights is not None:
            # The prior renormalizes over the documents that finished; a
            # weight naming an omitted document would otherwise be
            # rejected as unknown to the fusion.
            weights = {
                name: value
                for name, value in weights.items()
                if name in answers
            }
        fused = fuse_answers(
            answers, strategy=strategy, weights=weights, rrf_k=rrf_k
        )
        fused.omitted = omitted
        return fused

    def aggregate_all(
        self,
        kind: Union[str, AggregateSpec],
        target: Optional[str] = None,
        *,
        text: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
        glob: Optional[str] = None,
        weights: Optional[Mapping[str, WeightLike]] = None,
        deadline: Optional[Deadline] = None,
    ) -> AggregateDistribution:
        """Fan one aggregate across many documents and return the exact
        mixture distribution under the per-document prior (see
        :func:`repro.query.fusion.fuse_aggregates`).

        The spec is compiled once; the documents go one after another
        on the calling thread through :meth:`aggregate`'s serving
        discipline (persistent aggregate rows hit lock-free), and the
        first error propagates at once.  ``deadline=`` bounds the
        fan-out as in :meth:`query_all`, and the convolution polls it
        too; expiry raises the typed error.  There is no partial mode
        here, because a mixture silently renormalized over a subset of
        documents would *misrepresent* the distribution rather than
        degrade it visibly.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><p>1</p></r>")
        >>> service.load("b", "<r><p>1</p><p>2</p></r>")
        >>> service.aggregate_all("count", "p")
        {1: Fraction(1, 2), 2: Fraction(1, 2)}
        """
        selected = self._select_names(names, glob, what="aggregate_all")
        spec = _aggregate_spec(kind, target, text)
        distributions, _ = self._fan_out(
            selected,
            lambda name: self.aggregate(name, spec),
            deadline,
            False,
            what="aggregate_all",
        )
        return fuse_aggregates(distributions, weights=weights)

    def aggregate(
        self,
        name: str,
        kind: Union[str, AggregateSpec],
        target: Optional[str] = None,
        *,
        text: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> AggregateDistribution:
        """Exact aggregate distribution (``count``/``sum``/``min``/
        ``max``/``exists`` — see :mod:`repro.query.aggregates`) over
        ``name``, with the same serving discipline as :meth:`query`:
        persistent hits deserialize lock-free from the aggregate rows,
        misses convolve under the name's shard lock (through the shared
        engine's document, so the in-memory memo side table is shared
        with queries) and persist the distribution.  ``deadline=``
        behaves as in :meth:`query`.

        >>> service = DataspaceService()
        >>> service.load("a", "<r><p>3</p><p>4</p></r>")
        >>> service.aggregate("a", "sum", "p")
        {7: Fraction(1, 1)}
        """
        with _bounded(deadline):
            spec = _aggregate_spec(kind, target, text)
            return self._serve(
                name,
                spec.digest,
                AnswerCacheStore.get_aggregate,
                partial(AnswerCacheStore.put_aggregate, spec=spec.describe()),
                lambda engine: aggregate_distribution(
                    engine.document, spec, cache=engine.cache
                ),
            )

    def stats(self, name: str) -> NodeStats:
        """Uncertainty census of a stored document (fenced, so a
        sibling process's mutation is counted)."""
        self._fence_check(name)
        return self._module.stats(name)

    # -- integration / feedback ---------------------------------------------

    def integrate(
        self,
        name_a: str,
        name_b: str,
        output: str,
        *,
        rules: Sequence[Rule] = (),
        oracle: Optional[Oracle] = None,
        dtd: Optional[DTD] = None,
        factor_components: bool = True,
        max_possibilities: int = 20_000,
    ) -> IntegrationReport:
        """Integrate two stored sources into a stored probabilistic
        document (see :meth:`ImpreciseModule.integrate`); invalidates any
        answers previously cached under ``output``."""
        return self._mutate(
            output,
            lambda: self._module.integrate(
                name_a,
                name_b,
                output,
                rules=rules,
                oracle=oracle,
                dtd=dtd,
                factor_components=factor_components,
                max_possibilities=max_possibilities,
            ),
            reads=(name_a, name_b),
        )

    def feedback(
        self, name: str, expression: str, value: str, *, correct: bool = True
    ) -> FeedbackStep:
        """Apply one piece of answer feedback, persist the conditioned
        posterior document, and invalidate ``name``'s cached answers."""
        return self._mutate(
            name,
            lambda: self._module.feedback(
                name, expression, value, correct=correct
            ),
            reads=(name,),
        )

    # -- diagnostics ---------------------------------------------------------

    def cache_stats(self) -> dict:
        """Merged counters: persistent store plus in-memory engine caches."""
        stats: dict = {}
        if self.cache is not None:
            stats.update(self.cache.stats())
        with self._mu:
            engines = list(self._engines.items())
        memory_entries = 0
        memory_hits = 0
        memory_misses = 0
        memory_evictions = 0
        for _, (_, engine) in engines:
            counters = engine.cache_stats()
            memory_entries += counters.get("entries", 0)
            memory_hits += counters.get("hits", 0)
            memory_misses += counters.get("misses", 0)
            memory_evictions += counters.get("evictions", 0)
        stats.update(
            {
                "engines": len(engines),
                "memory_entries": memory_entries,
                "memory_hits": memory_hits,
                "memory_misses": memory_misses,
                "memory_evictions": memory_evictions,
                "cache_write_failures": self.cache_write_failures,
            }
        )
        # The cross-document row store is one shared instance, so its
        # counters are reported once, never summed per engine.
        for key, value in self.literal_table.stats().items():
            stats[f"literal_table_{key}"] = value
        return stats

    def close(self) -> None:
        """Release the persistent cache connection.  Idempotent — a
        second :meth:`close` is a no-op; any later call that needs the
        cache raises :class:`StoreError` (see
        :meth:`AnswerCacheStore.close`)."""
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "DataspaceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        persistent = self.cache.path if self.cache is not None else None
        return (
            f"DataspaceService(documents={len(self.store.list())},"
            f" persistent={str(persistent)!r})"
        )
