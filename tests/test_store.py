"""Tests for the document store."""

import pytest

from repro.dbms.cache_store import document_digest
from repro.dbms.store import DocumentStore
from repro.errors import StoreError
from repro.pxml.build import certain_document
from repro.pxml.model import PXDocument, px_deep_equal
from repro.xmlkit.nodes import XDocument, XText, deep_equal, element
from repro.xmlkit.parser import parse_document


@pytest.fixture
def plain_doc():
    return parse_document("<movies><movie><title>Jaws</title></movie></movies>")


class TestInMemory:
    def test_put_get(self, plain_doc):
        store = DocumentStore()
        store.put("movies", plain_doc)
        assert store.get("movies") is plain_doc

    def test_missing_raises(self):
        with pytest.raises(StoreError):
            DocumentStore().get("nope")

    def test_contains(self, plain_doc):
        store = DocumentStore()
        store.put("movies", plain_doc)
        assert "movies" in store
        assert "other" not in store

    def test_list_sorted(self, plain_doc):
        store = DocumentStore()
        store.put("zeta", plain_doc)
        store.put("alpha", plain_doc.copy())
        assert store.list() == ["alpha", "zeta"]

    def test_list_pinned_order_ignores_insertion_order(self, plain_doc):
        """The listing order is code-point sorted, never insertion order
        (directory iteration is insertion-ordered on some filesystems) —
        fan-out ranks depend on this being reproducible everywhere."""
        store = DocumentStore()
        names = ["m2", "Z", "a-1", "m10", "A", "a.1"]
        for name in names:
            store.put(name, plain_doc.copy())
        expected = sorted(names)  # code points: upper < '-'/'.' < lower
        assert store.list() == expected
        assert store.glob("*") == expected

    def test_glob_patterns(self, plain_doc):
        store = DocumentStore()
        for name in ("pair.b", "pair.a", "other", "p2"):
            store.put(name, plain_doc.copy())
        assert store.glob("pair.*") == ["pair.a", "pair.b"]
        assert store.glob("p*") == ["p2", "pair.a", "pair.b"]
        assert store.glob("?ther") == ["other"]
        assert store.glob("pair.[ab]") == ["pair.a", "pair.b"]
        assert store.glob("zzz*") == []

    def test_glob_is_case_sensitive_everywhere(self, plain_doc):
        """fnmatchcase semantics: 'Doc*' must not match 'doc1' even on a
        case-insensitive OS (plain fnmatch folds case per platform,
        which would reorder/regrow fan-outs across machines)."""
        store = DocumentStore()
        store.put("Doc1", plain_doc)
        store.put("doc1", plain_doc.copy())
        assert store.glob("Doc*") == ["Doc1"]
        assert store.glob("doc*") == ["doc1"]
        assert store.glob("[Dd]oc*") == ["Doc1", "doc1"]

    def test_delete(self, plain_doc):
        store = DocumentStore()
        store.put("movies", plain_doc)
        store.delete("movies")
        assert "movies" not in store

    def test_delete_missing_raises(self):
        with pytest.raises(StoreError):
            DocumentStore().delete("nope")

    def test_kind(self, plain_doc):
        store = DocumentStore()
        store.put("plain", plain_doc)
        store.put("prob", certain_document(plain_doc))
        assert store.kind("plain") == "xml"
        assert store.kind("prob") == "pxml"

    @pytest.mark.parametrize("name", ["", "a b", "../etc", "x" * 200, ".hidden"])
    def test_invalid_names_rejected(self, name, plain_doc):
        with pytest.raises(StoreError):
            DocumentStore().put(name, plain_doc)

    def test_invalid_payload_rejected(self):
        with pytest.raises(StoreError):
            DocumentStore().put("x", "<not-a-document/>")


class TestPersistence:
    def test_plain_roundtrip(self, tmp_path, plain_doc):
        DocumentStore(tmp_path).put("movies", plain_doc)
        loaded = DocumentStore(tmp_path).get("movies")
        assert isinstance(loaded, XDocument)
        assert deep_equal(loaded.root, plain_doc.root)

    def test_pxml_roundtrip(self, tmp_path, plain_doc):
        document = certain_document(plain_doc)
        DocumentStore(tmp_path).put("movies", document)
        loaded = DocumentStore(tmp_path).get("movies")
        assert isinstance(loaded, PXDocument)
        assert px_deep_equal(loaded.root, document.root)

    def test_glob_sees_unmaterialized_files(self, tmp_path, plain_doc):
        """glob/list pick up on-disk documents a fresh store has never
        parsed, in the same pinned order as a warm one."""
        warm = DocumentStore(tmp_path)
        for name in ("pair.b", "other", "pair.a"):
            warm.put(name, plain_doc.copy())
        fresh = DocumentStore(tmp_path)
        assert fresh.glob("pair.*") == ["pair.a", "pair.b"]
        assert fresh.list() == warm.list() == ["other", "pair.a", "pair.b"]
        assert fresh.cached_count() == 0  # listing parsed nothing

    def test_files_on_disk(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path)
        store.put("plain", plain_doc)
        store.put("prob", certain_document(plain_doc))
        assert (tmp_path / "plain.xml").exists()
        assert (tmp_path / "prob.pxml").exists()

    def test_overwrite_changes_kind(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path)
        store.put("doc", plain_doc)
        store.put("doc", certain_document(plain_doc))
        assert not (tmp_path / "doc.xml").exists()
        assert DocumentStore(tmp_path).kind("doc") == "pxml"

    def test_list_sees_disk(self, tmp_path, plain_doc):
        DocumentStore(tmp_path).put("movies", plain_doc)
        assert DocumentStore(tmp_path).list() == ["movies"]

    def test_delete_removes_file(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path)
        store.put("movies", plain_doc)
        store.delete("movies")
        assert not (tmp_path / "movies.xml").exists()

    def test_failed_overwrite_keeps_the_stored_document(self, tmp_path):
        store = DocumentStore(tmp_path)
        store.put("good", parse_document("<a>fine</a>"))
        before = (tmp_path / "good.xml").read_bytes()
        unencodable = XDocument(element("a", XText("\ud800")))
        with pytest.raises(StoreError, match="not UTF-8 encodable"):
            store.put("good", unencodable)
        assert (tmp_path / "good.xml").read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["good.xml"]
        assert store.get("good").root.text() == "fine"
        assert DocumentStore(tmp_path).get("good").root.text() == "fine"

    def test_failed_overwrite_keeps_the_other_kind(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path)
        store.put("doc", plain_doc)
        unencodable = certain_document(XDocument(element("a", XText("\udfff"))))
        with pytest.raises(StoreError):
            store.put("doc", unencodable)
        assert [path.name for path in tmp_path.iterdir()] == ["doc.xml"]
        assert DocumentStore(tmp_path).kind("doc") == "xml"


class TestDigestsAndVersions:
    def test_digest_matches_document_digest(self, plain_doc):
        from repro.dbms.cache_store import document_digest

        store = DocumentStore()
        store.put("movies", plain_doc)
        assert store.digest("movies") == document_digest(plain_doc)

    def test_digest_from_file_without_materializing(self, tmp_path, plain_doc):
        document = certain_document(plain_doc)
        DocumentStore(tmp_path).put("movies", document)
        from repro.dbms.cache_store import document_digest

        fresh = DocumentStore(tmp_path)
        assert fresh.digest("movies") == document_digest(document)
        assert fresh.cached_count() == 0  # keyed without parsing

    def test_digest_changes_with_content(self, tmp_path):
        from repro.xmlkit.parser import parse_document as parse

        store = DocumentStore(tmp_path)
        store.put("doc", parse("<r><x>1</x></r>"))
        first = store.digest("doc")
        store.put("doc", parse("<r><x>2</x></r>"))
        assert store.digest("doc") != first

    @pytest.mark.parametrize("kind", ["xml", "pxml"])
    def test_fresh_store_reads_back_the_bytes_put_wrote(self, tmp_path, kind):
        """Text with \\r\\n and a lone \\r reads back byte for byte, and a
        fresh store's digest of the file is the one put recorded."""
        document = parse_document("<a>x\r\ny\rz</a>")
        if kind == "pxml":
            document = certain_document(document)
        store = DocumentStore(tmp_path)
        store.put("lines", document)
        recorded = store.digest("lines")
        fresh = DocumentStore(tmp_path)
        read_back = fresh.get("lines")
        if kind == "pxml":
            read_back = read_back.root.possibilities[0].children[0]
            text = read_back.children[0].possibilities[0].children[0].value
        else:
            text = read_back.root.text()
        assert text == "x\r\ny\rz"
        assert DocumentStore(tmp_path).digest("lines") == recorded
        assert recorded == document_digest(document)

    def test_in_memory_digest_refuses_unencodable_text(self):
        """An in-memory store refuses at digest what a directory-backed
        one refuses at put: a typed StoreError, never UnicodeEncodeError."""
        store = DocumentStore()
        store.put("bad", XDocument(element("a", XText("\ud800"))))
        with pytest.raises(StoreError, match="not UTF-8 encodable"):
            store.digest("bad")
        with pytest.raises(StoreError, match="not UTF-8 encodable"):
            document_digest(certain_document(XDocument(element("a", XText("\udfff")))))

    def test_digest_missing_raises(self):
        with pytest.raises(StoreError):
            DocumentStore().digest("nope")


class TestLRU:
    def test_bound_enforced(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path, max_cached=2)
        for index in range(5):
            store.put(f"doc{index}", plain_doc.copy())
        assert store.cached_count() == 2
        assert len(store.list()) == 5  # disk unaffected

    def test_recently_used_survives(self, tmp_path, plain_doc):
        store = DocumentStore(tmp_path, max_cached=2)
        store.put("a", plain_doc.copy())
        store.put("b", plain_doc.copy())
        kept = store.get("a")  # refresh 'a'
        store.put("c", plain_doc.copy())  # evicts 'b'
        assert store.get("a") is kept
        assert store.get("b") is not None  # reloads from disk

    def test_bound_requires_directory(self):
        # Evicting from an in-memory store would silently lose documents.
        with pytest.raises(StoreError):
            DocumentStore(max_cached=2)

    def test_unbounded_by_default(self, plain_doc):
        store = DocumentStore()
        for index in range(10):
            store.put(f"doc{index}", plain_doc.copy())
        assert store.cached_count() == 10


class TestConcurrency:
    def test_parallel_readers_share_one_materialization(self, tmp_path, plain_doc):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        DocumentStore(tmp_path).put("movies", certain_document(plain_doc))
        store = DocumentStore(tmp_path)
        barrier = threading.Barrier(8)

        def read(_):
            barrier.wait(timeout=30)
            return store.get("movies")

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(8)))
        assert all(result is results[0] for result in results)

    def test_parallel_writers_distinct_names(self, tmp_path, plain_doc):
        from concurrent.futures import ThreadPoolExecutor

        store = DocumentStore(tmp_path)

        def write(index):
            store.put(f"doc{index}", plain_doc.copy())
            return store.digest(f"doc{index}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            digests = list(pool.map(write, range(16)))
        assert len(store.list()) == 16
        assert len(set(digests)) == 1  # identical content, identical digest


class TestRefresh:
    """`refresh()` — the store half of the cross-process invalidation
    fence: forget in-memory state so the next read hits the disk that a
    sibling process rewrote."""

    def test_refresh_drops_materialization_and_digest(self, tmp_path):
        from repro.xmlkit.parser import parse_document as parse

        writer = DocumentStore(tmp_path)
        reader = DocumentStore(tmp_path)
        writer.put("doc", parse("<r><x>old</x></r>"))
        stale = reader.get("doc")
        stale_digest = reader.digest("doc")
        # A sibling rewrites the file; the reader's memos are now stale.
        writer.put("doc", parse("<r><x>new</x></r>"))
        assert reader.get("doc") is stale          # served from memory
        assert reader.digest("doc") == stale_digest
        reader.refresh("doc")
        assert reader.get("doc") is not stale
        # The re-read digest now matches the rewritten disk content.
        assert reader.digest("doc") == writer.digest("doc")
        assert reader.digest("doc") != stale_digest

    def test_refresh_unknown_name_is_noop(self, tmp_path):
        DocumentStore(tmp_path).refresh("never-stored")

    def test_refresh_rejects_bad_names(self, tmp_path):
        with pytest.raises(StoreError):
            DocumentStore(tmp_path).refresh("../escape")
