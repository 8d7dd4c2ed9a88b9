"""Named document collections with optional on-disk persistence.

Documents are either plain (:class:`XDocument`) or probabilistic
(:class:`PXDocument`); the store keeps both behind one namespace, persists
them as ``<name>.xml`` / ``<name>.pxml`` files when a directory is given,
and loads lazily with an in-memory cache.

Built for concurrent callers (the :class:`~repro.dbms.service.
DataspaceService` serves many threads over one store):

* **per-name sharded locks** — operations on one document serialize,
  operations on different documents (parsing, disk I/O) proceed in
  parallel; a short global mutex guards only the metadata maps;
* **LRU materialization cache** — pass ``max_cached`` to bound how many
  parsed documents stay in memory; evicting a document also releases its
  :class:`~repro.pxml.events_cache.EventProbabilityCache` (the registry
  holds documents weakly, so the cache dies with the last reference);
* **atomic writes** — :meth:`put` encodes the whole text first, then
  replaces the file in one ``os.replace``: a write that fails (text UTF-8
  cannot encode is a :class:`StoreError`) leaves the old document as it
  was, on disk and in memory;
* **content digests** — :meth:`digest` is the document's content hash
  (the persistent-cache key half, see
  :func:`repro.dbms.cache_store.document_digest`), computed from the
  file bytes when the document is not materialized so a warm process
  never has to parse just to key a cache lookup.
"""

from __future__ import annotations

import fnmatch
import os
import re
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from ..errors import MissingDocumentError, StoreError
from ..pxml.model import PXDocument
from ..pxml.serialize import parse_pxml, pxml_to_text
from ..xmlkit.nodes import XDocument
from ..xmlkit.parser import parse_document
from ..xmlkit.serializer import serialize
from .cache_store import content_digest, document_digest, utf8_bytes

StoredDocument = Union[XDocument, PXDocument]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,127}$")

#: Number of lock shards; contention is per-name, so a handful suffices.
_SHARD_COUNT = 16


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StoreError(
            f"invalid document name {name!r}"
            " (letters, digits, '_', '.', '-'; max 128 chars)"
        )
    return name


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` over ``path`` atomically: readers see the old bytes
    or the new ones, never a truncated file.  The sibling temp file's name
    does not end in ``.xml``/``.pxml``, so :meth:`DocumentStore.list`
    never shows it; the process id keeps concurrent writers apart."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


class DocumentStore:  # impreciselint: guarded-by=_mu
    """A thread-safe collection of named documents.

    >>> store = DocumentStore()            # in-memory
    >>> from repro.xmlkit import parse_document
    >>> store.put("movies", parse_document("<movies/>"))
    >>> store.kind("movies")
    'xml'

    ``max_cached`` bounds the number of *materialized* documents kept in
    memory (least-recently-used eviction); persisted files are never
    touched by eviction, and an evicted document transparently reloads on
    the next :meth:`get`.  ``None`` (the default) keeps everything.
    Directory-backed stores only — an in-memory store rejects the bound,
    since evicting a document with no backing file would lose it.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        max_cached: Optional[int] = None,
    ):
        if max_cached is not None and max_cached < 1:
            raise StoreError(f"max_cached must be >= 1, got {max_cached}")
        if max_cached is not None and directory is None:
            raise StoreError(
                "max_cached requires a backing directory — evicting an"
                " in-memory document would lose it"
            )
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_cached = max_cached
        self._cache: "OrderedDict[str, StoredDocument]" = OrderedDict()
        self._digests: dict[str, str] = {}
        self._mu = threading.RLock()  # metadata maps only — never held on I/O
        self._shards = [threading.RLock() for _ in range(_SHARD_COUNT)]

    # -- helpers ---------------------------------------------------------------

    def _name_lock(self, name: str) -> threading.RLock:
        """The shard lock serializing operations on ``name``."""
        shard = zlib.crc32(name.encode("utf-8")) % _SHARD_COUNT
        return self._shards[shard]

    def _path(self, name: str, kind: str) -> Optional[Path]:
        if self.directory is None:
            return None
        suffix = ".pxml" if kind == "pxml" else ".xml"
        return self.directory / f"{name}{suffix}"

    def _find_file(self, name: str) -> Optional[Path]:
        if self.directory is None:
            return None
        for suffix in (".pxml", ".xml"):
            candidate = self.directory / f"{name}{suffix}"
            if candidate.exists():
                return candidate
        return None

    def _remember(self, name: str, document: StoredDocument) -> None:
        """Insert into the LRU under the metadata lock, evicting if over."""
        with self._mu:
            self._cache[name] = document
            self._cache.move_to_end(name)
            if self.max_cached is not None:
                while len(self._cache) > self.max_cached:
                    # The digest is content-derived and stays valid; the
                    # evicted document's event cache is reclaimed with it
                    # (weak registry) once callers drop their references.
                    self._cache.popitem(last=False)

    # -- operations ---------------------------------------------------------

    def put(self, name: str, document: StoredDocument) -> None:
        """Store (and persist, when directory-backed) a document."""
        _check_name(name)
        if not isinstance(document, (XDocument, PXDocument)):
            raise StoreError(
                f"cannot store {type(document).__name__};"
                " expected XDocument or PXDocument"
            )
        with self._name_lock(name):
            digest: Optional[str] = None
            if self.directory is not None:
                kind = "pxml" if isinstance(document, PXDocument) else "xml"
                if isinstance(document, PXDocument):
                    text = pxml_to_text(document)
                else:
                    text = serialize(document)
                data = utf8_bytes(text, f"store {name!r}")
                path = self._path(name, kind)
                assert path is not None
                _replace_file(path, data)
                # Drop a stale file of the other kind only once the new
                # one is in place.
                other = self._path(name, "xml" if kind == "pxml" else "pxml")
                if other is not None and other.exists():
                    other.unlink()
                # Hash the serialization already in hand — identical to
                # document_digest(document) and to hashing the file bytes
                # just written, without a second serialization pass.
                digest = content_digest(kind, data)
            with self._mu:
                if digest is not None:
                    self._digests[name] = digest
                else:
                    # In-memory: digest() computes lazily on first use —
                    # don't serialize a document nobody may ever key on.
                    self._digests.pop(name, None)
            self._remember(name, document)

    def get(self, name: str) -> StoredDocument:
        """Fetch a document; raises :class:`StoreError` when missing."""
        _check_name(name)
        with self._mu:
            cached = self._cache.get(name)
            if cached is not None:
                self._cache.move_to_end(name)
                return cached
        with self._name_lock(name):
            # Re-check: another thread may have materialized it meanwhile.
            with self._mu:
                cached = self._cache.get(name)
                if cached is not None:
                    self._cache.move_to_end(name)
                    return cached
            path = self._find_file(name)
            if path is None:
                raise MissingDocumentError(f"no document named {name!r}")
            # Decode the bytes as written: read_text's universal newlines
            # would turn a stored "\r\n" into "\n".
            text = path.read_bytes().decode("utf-8")
            document: StoredDocument
            if path.suffix == ".pxml":
                document = parse_pxml(text)
            else:
                document = parse_document(text)
            self._remember(name, document)
            return document

    def digest(self, name: str) -> str:
        """Content hash of the stored document (see
        :func:`repro.dbms.cache_store.document_digest`).

        Directory-backed stores always hash the persisted **file bytes**
        — never a parse, and the same value no matter whether the
        document was materialized first (for ``put()``-authored files
        the bytes *are* the canonical serialization, so this equals
        ``document_digest``; for externally-authored files the bytes are
        the one cross-process-stable identity).  In-memory documents
        hash their canonical serialization.  Memoized until the next
        :meth:`put`/:meth:`delete`.
        """
        _check_name(name)
        with self._mu:
            known = self._digests.get(name)
            if known is not None:
                return known
        with self._name_lock(name):
            with self._mu:
                known = self._digests.get(name)
                if known is not None:
                    return known
                cached = self._cache.get(name)
            path = self._find_file(name)
            if path is not None:
                kind = "pxml" if path.suffix == ".pxml" else "xml"
                digest = content_digest(kind, path.read_bytes())
            elif cached is not None:
                digest = document_digest(cached)
            else:
                raise MissingDocumentError(f"no document named {name!r}")
            with self._mu:
                self._digests[name] = digest
            return digest

    def refresh(self, name: str) -> None:
        """Forget ``name``'s in-memory state (materialized document and
        memoized content digest) so the next read re-reads the file.

        This is the store half of the cross-process invalidation fence
        (:meth:`repro.dbms.service.DataspaceService._fence_check`): when
        a sibling process sharing the directory rewrites a document, the
        bytes on disk are new but this process still holds the old
        materialization and digest.  Unknown names are a no-op — there
        is nothing stale to forget.
        """
        _check_name(name)
        with self._name_lock(name):
            with self._mu:
                self._cache.pop(name, None)
                self._digests.pop(name, None)

    def kind(self, name: str) -> str:
        """'xml' or 'pxml' — from the in-memory type or the file suffix,
        without parsing; raises :class:`StoreError` when missing."""
        _check_name(name)
        with self._mu:
            cached = self._cache.get(name)
        if cached is not None:
            return "pxml" if isinstance(cached, PXDocument) else "xml"
        path = self._find_file(name)
        if path is None:
            raise MissingDocumentError(f"no document named {name!r}")
        return "pxml" if path.suffix == ".pxml" else "xml"

    def __contains__(self, name: str) -> bool:
        try:
            _check_name(name)
        except StoreError:
            return False
        with self._mu:
            if name in self._cache:
                return True
        return self._find_file(name) is not None

    def list(self) -> list[str]:
        """All document names in **pinned order**: sorted by Unicode
        code point, case-sensitive, on every platform.

        Never the filesystem's enumeration order — directory iteration
        is insertion-ordered on some filesystems and collated on others,
        and downstream consumers (fan-out ranks in
        :meth:`repro.dbms.service.DataspaceService.query_all`, the
        ``documents`` listings) must be reproducible across OSes.
        """
        with self._mu:
            names = set(self._cache)
        if self.directory is not None:
            for path in self.directory.iterdir():
                if path.suffix in (".xml", ".pxml"):
                    names.add(path.stem)
        return sorted(names)

    def glob(self, pattern: str) -> list[str]:
        """Document names matching a shell-style pattern (``*``, ``?``,
        ``[seq]``), in the same pinned sorted order as :meth:`list`.

        Matching is :func:`fnmatch.fnmatchcase` — case-sensitive on
        every platform (plain ``fnmatch.fnmatch`` silently folds case on
        case-insensitive OSes) and never the filesystem's native glob,
        whose result order and case rules are both platform-dependent.
        An unmatched pattern returns ``[]``, not an error.
        """
        return [
            name
            for name in self.list()
            if fnmatch.fnmatchcase(name, pattern)
        ]

    def delete(self, name: str) -> None:
        """Remove a document from memory and disk; raises when absent."""
        _check_name(name)
        with self._name_lock(name):
            with self._mu:
                found = name in self._cache
                self._cache.pop(name, None)
                self._digests.pop(name, None)
            path = self._find_file(name)
            if path is not None:
                path.unlink()
                found = True
            if not found:
                raise MissingDocumentError(f"no document named {name!r}")

    def cached_count(self) -> int:
        """Number of currently materialized documents (diagnostics)."""
        with self._mu:
            return len(self._cache)
