"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data.addressbook import addressbook_documents
from repro.pxml.serialize import pxml_to_text
from repro.xmlkit.serializer import serialize
from .test_tree_pass import merged_book

DTD_TEXT = (
    "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel)>"
    "<!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>"
)


@pytest.fixture
def workspace(tmp_path):
    book_a, book_b = addressbook_documents()
    (tmp_path / "a.xml").write_text(serialize(book_a), encoding="utf-8")
    (tmp_path / "b.xml").write_text(serialize(book_b), encoding="utf-8")
    (tmp_path / "ab.dtd").write_text(DTD_TEXT, encoding="utf-8")
    return tmp_path


def run(args):
    return main([str(arg) for arg in args])


class TestIntegrate:
    def test_integrate_writes_pxml(self, workspace, capsys):
        status = run([
            "integrate", workspace / "a.xml", workspace / "b.xml",
            "--dtd", workspace / "ab.dtd", "-o", workspace / "out.pxml",
        ])
        assert status == 0
        assert (workspace / "out.pxml").exists()
        assert "3 worlds" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, workspace, capsys):
        status = run([
            "integrate", workspace / "missing.xml", workspace / "b.xml",
            "-o", workspace / "out.pxml",
        ])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_mismatched_roots_error(self, workspace, capsys):
        (workspace / "c.xml").write_text("<other/>", encoding="utf-8")
        status = run([
            "integrate", workspace / "a.xml", workspace / "c.xml",
            "-o", workspace / "out.pxml",
        ])
        assert status == 1
        assert "error" in capsys.readouterr().err


class TestQueryAndStats:
    @pytest.fixture
    def integrated(self, workspace, capsys):
        run([
            "integrate", workspace / "a.xml", workspace / "b.xml",
            "--dtd", workspace / "ab.dtd", "-o", workspace / "out.pxml",
        ])
        capsys.readouterr()
        return workspace / "out.pxml"

    def test_query_ranked_output(self, integrated, capsys):
        assert run(["query", integrated, "//person/tel"]) == 0
        out = capsys.readouterr().out
        assert "75% 1111" in out

    def test_stats_output(self, integrated, capsys):
        assert run(["stats", integrated]) == 0
        out = capsys.readouterr().out
        assert "possible worlds:   3" in out

    def test_worlds_output(self, integrated, capsys):
        assert run(["worlds", integrated, "--limit", 10]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_worlds_limit_caps_the_printout(self, workspace, capsys):
        """``--limit`` is how many worlds to print, not an enumeration
        guard: the merged 3x3 book holds 467 worlds."""
        book = workspace / "book.pxml"
        book.write_text(pxml_to_text(merged_book(3)), encoding="utf-8")
        assert run(["worlds", book, "--limit", 5]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.startswith("[") for line in lines)

    def test_feedback_roundtrip(self, integrated, workspace, capsys):
        assert run([
            "feedback", integrated, "//person/tel", "1111", "--correct",
            "-o", workspace / "post.pxml",
        ]) == 0
        capsys.readouterr()
        assert run(["query", workspace / "post.pxml", "//person/tel"]) == 0
        assert "100% 1111" in capsys.readouterr().out

    def test_bad_xpath_fails_cleanly(self, integrated, capsys):
        assert run(["query", integrated, "//person["]) == 1
        assert "error" in capsys.readouterr().err

    def test_batch_query_output(self, integrated, capsys):
        assert run([
            "query", integrated, "--batch", "//person/tel", "//person/nm",
        ]) == 0
        out = capsys.readouterr().out
        assert "== //person/tel" in out
        assert "== //person/nm" in out
        assert "75% 1111" in out

    def test_multiple_queries_imply_batch(self, integrated, capsys):
        assert run(["query", integrated, "//person/tel", "//person/nm"]) == 0
        assert "== //person/tel" in capsys.readouterr().out

    def test_queries_file(self, integrated, workspace, capsys):
        (workspace / "workload.txt").write_text(
            "# the workload\n//person/tel\n\n//person/nm\n", encoding="utf-8"
        )
        assert run([
            "query", integrated, "--queries-file", workspace / "workload.txt",
        ]) == 0
        out = capsys.readouterr().out
        assert "== //person/tel" in out and "== //person/nm" in out

    def test_no_queries_fails_cleanly(self, integrated, capsys):
        assert run(["query", integrated]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_no_cache_and_stats_flags(self, integrated, capsys):
        assert run([
            "query", integrated, "//person/tel", "--no-cache", "--cache-stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "75% 1111" in captured.out
        assert "cache:" in captured.err

    def test_aggregate_count(self, integrated, capsys):
        assert run(["query", integrated, "//person", "--aggregate", "count"]) == 0
        out = capsys.readouterr().out
        assert "== count //person" in out
        assert "expected:" in out

    def test_aggregate_sum_with_distribution_lines(self, integrated, capsys):
        assert run(["query", integrated, "tel", "--aggregate", "sum"]) == 0
        out = capsys.readouterr().out
        assert "== sum tel" in out
        # The 1111/2222 conflict: sums 1111 and 2222 at 50% each, plus
        # the exact fraction rendering of each outcome's probability.
        assert "(1/2)" in out

    def test_aggregate_text_filter(self, integrated, capsys):
        assert run([
            "query", integrated, "tel", "--aggregate", "count",
            "--text", "1111",
        ]) == 0
        out = capsys.readouterr().out
        assert "[text='1111']" in out

    def test_text_without_aggregate_fails_cleanly(self, integrated, capsys):
        assert run(["query", integrated, "//person", "--text", "x"]) == 1
        assert "--aggregate" in capsys.readouterr().err

    def test_aggregate_cache_stats(self, integrated, capsys):
        assert run([
            "query", integrated, "//person", "--aggregate", "count",
            "--cache-stats",
        ]) == 0
        captured = capsys.readouterr()
        assert "== count //person" in captured.out
        assert "cache: 1 aggregate distribution(s) memoized" in captured.err

    def test_aggregate_rejects_batch(self, integrated, capsys):
        assert run([
            "query", integrated, "//person", "--aggregate", "count", "--batch",
        ]) == 1
        assert "--batch" in capsys.readouterr().err

    def test_aggregate_bad_target_fails_cleanly(self, integrated, capsys):
        assert run([
            "query", integrated, "person/nm", "--aggregate", "count",
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_aggregate_non_numeric_fails_cleanly(self, integrated, capsys):
        assert run(["query", integrated, "nm", "--aggregate", "sum"]) == 1
        assert "not numeric" in capsys.readouterr().err


class TestSearchFanOut:
    """``imprecise query STORE --all/--glob``: the dataspace fan-out."""

    @pytest.fixture
    def store(self, workspace, capsys):
        store = workspace / "store"
        assert run([
            "serve", store,
            "--exec", f"put a {workspace / 'a.xml'}",
            "--exec", f"put b {workspace / 'b.xml'}",
            "--exec", "integrate a b ab",
        ]) == 0
        capsys.readouterr()
        return store

    def test_all_prob_fusion_with_provenance(self, store, capsys):
        assert run(["query", store, "//person/tel", "--all"]) == 0
        out = capsys.readouterr().out
        # Probability-weighted fusion over {a, ab, b}: both phone
        # numbers score 2/3, ties broken by value, provenance listing
        # each contributing document with its local rank.
        assert " 67% 1111  [a#1, ab#1]" in out
        assert " 67% 2222  [ab#2, b#1]" in out

    def test_glob_rrf_fusion(self, store, capsys):
        assert run([
            "query", store, "//person/tel",
            "--glob", "a*", "--fusion", "rrf", "--rrf-k", "10",
        ]) == 0
        out = capsys.readouterr().out
        # Exact-rational RRF over {a, ab} at k=10: 1111 ranks first in
        # both (1/2·1/11 + 1/2·1/11 = 1/11), 2222 only in ab at rank 2.
        assert "1/11 1111  [a#1, ab#1]" in out
        assert "1/24 2222  [ab#2]" in out

    def test_multiple_queries_get_labels(self, store, capsys):
        assert run([
            "query", store, "//person/tel", "//person/nm", "--all",
        ]) == 0
        out = capsys.readouterr().out
        assert "== //person/tel" in out and "== //person/nm" in out

    def test_all_aggregate_mixture(self, store, capsys):
        assert run([
            "query", store, "//person", "--all", "--aggregate", "count",
        ]) == 0
        out = capsys.readouterr().out
        assert "== count //person" in out
        # Equal-weight mixture of the three per-document count
        # distributions: a and b are certain (1 person), ab is 1-or-2.
        assert "83% 1  (5/6)" in out
        assert "17% 2  (1/6)" in out

    def test_fan_out_cache_stats(self, store, capsys):
        assert run([
            "query", store, "//person/tel", "--all", "--cache-stats",
        ]) == 0
        assert "engines" in capsys.readouterr().err

    def test_fusion_without_fan_out_fails_cleanly(self, workspace, capsys):
        run([
            "integrate", workspace / "a.xml", workspace / "b.xml",
            "--dtd", workspace / "ab.dtd", "-o", workspace / "out.pxml",
        ])
        capsys.readouterr()
        assert run([
            "query", workspace / "out.pxml", "//person/tel",
            "--fusion", "rrf",
        ]) == 1
        assert "--all or --glob" in capsys.readouterr().err

    def test_all_and_glob_together_fails_cleanly(self, store, capsys):
        assert run([
            "query", store, "//x", "--all", "--glob", "a*",
        ]) == 1
        assert "not both" in capsys.readouterr().err

    def test_fan_out_needs_a_directory(self, workspace, capsys):
        assert run(["query", workspace / "a.xml", "//x", "--all"]) == 1
        assert "store directory" in capsys.readouterr().err

    def test_fan_out_rejects_batch(self, store, capsys):
        assert run([
            "query", store, "//x", "--all", "--batch",
        ]) == 1
        assert "--batch" in capsys.readouterr().err

    def test_aggregate_fan_out_rejects_fusion_flag(self, store, capsys):
        assert run([
            "query", store, "//person", "--all", "--aggregate", "count",
            "--fusion", "rrf",
        ]) == 1
        assert "mixture" in capsys.readouterr().err

    def test_allow_partial_without_deadline_fails_cleanly(
        self, store, capsys
    ):
        assert run([
            "query", store, "//person/tel", "--all", "--allow-partial",
        ]) == 1
        assert "requires a deadline" in capsys.readouterr().err

    def test_allow_partial_without_fan_out_fails_cleanly(
        self, workspace, capsys
    ):
        assert run([
            "query", workspace / "a.xml", "//person/tel", "--allow-partial",
        ]) == 1
        assert "--all or --glob" in capsys.readouterr().err

    def test_unmatched_glob_fails_cleanly(self, store, capsys):
        assert run(["query", store, "//x", "--glob", "zzz*"]) == 1
        assert "selected no documents" in capsys.readouterr().err

    def test_serve_search_command(self, store, workspace, capsys):
        assert run([
            "serve", store,
            "--exec", "search //person/tel",
            "--exec", "search //person/nm a* rrf 5",
        ]) == 0
        out = capsys.readouterr().out
        assert " 67% 1111  [a#1, ab#1]" in out
        assert "1/6 John  [a#1, ab#1]" in out

    def test_serve_search_usage_error_keeps_serving(self, store, capsys):
        assert run([
            "serve", store,
            "--exec", "search",
            "--exec", "search //person/tel",
        ]) == 1  # the bad command failed, the loop kept serving
        captured = capsys.readouterr()
        assert "usage: search" in captured.err
        assert "1111" in captured.out


class TestEstimate:
    def test_estimate_output(self, workspace, capsys):
        assert run([
            "estimate", workspace / "a.xml", workspace / "b.xml",
            "--dtd", workspace / "ab.dtd",
        ]) == 0
        out = capsys.readouterr().out
        assert "worlds:        3" in out

    def test_estimate_joint(self, workspace, capsys):
        assert run([
            "estimate", workspace / "a.xml", workspace / "b.xml",
            "--dtd", workspace / "ab.dtd", "--joint",
        ]) == 0
        assert "nodes:" in capsys.readouterr().out


class TestServe:
    @pytest.fixture
    def dataspace(self, workspace):
        store = workspace / "store"
        cache = workspace / "cache"
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", f"put a {workspace / 'a.xml'}",
            "--exec", f"put b {workspace / 'b.xml'}",
            "--exec", "integrate a b ab",
        ]) == 0
        return store, cache

    def test_exec_query(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "query ab //person/tel",
        ]) == 0
        assert "100% 1111" in capsys.readouterr().out

    def test_warm_restart_hits(self, dataspace, capsys):
        store, cache = dataspace
        run(["serve", store, "--cache-dir", cache,
             "--exec", "query ab //person/tel"])
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache, "--cache-stats",
            "--exec", "query ab //person/tel",
        ]) == 0
        captured = capsys.readouterr()
        assert "100% 1111" in captured.out
        # --cache-stats renders through the shared format_cache_stats
        # path: one sorted "key: value" line per counter.
        assert "persistent_hits: 1" in captured.err

    def test_stdin_protocol(self, dataspace, capsys, monkeypatch):
        import io

        store, cache = dataspace
        capsys.readouterr()
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("list\nstats ab\nquit\nquery ab //x\n")
        )
        assert run(["serve", store, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "pxml ab" in out
        assert "worlds" in out
        assert "//x" not in out  # nothing after quit runs

    def test_batch_and_feedback(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "batch ab //person/tel //person/nm",
            "--exec", "feedback ab //person/tel 1111 correct",
            "--exec", "query ab //person/tel",
        ]) == 0
        out = capsys.readouterr().out
        assert "== //person/tel" in out and "== //person/nm" in out
        assert "confirm '1111'" in out
        assert "100% 1111" in out

    def test_aggregate_command(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "aggregate ab count person",
            "--exec", "aggregate ab sum tel",
            "--exec", "aggregate ab count tel 1111",
        ]) == 0
        out = capsys.readouterr().out
        # count(//person) is itself uncertain: 1 or 2, even odds.
        assert "50% 1  (1/2)" in out and "50% 2  (1/2)" in out

    def test_aggregate_warm_restart_hits(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "aggregate ab sum tel",
        ]) == 0
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache, "--cache-stats",
            "--exec", "aggregate ab sum tel",
        ]) == 0
        captured = capsys.readouterr()
        assert "persistent_aggregate_hits: 1" in captured.err

    def test_aggregate_usage_error_keeps_serving(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "aggregate ab",
            "--exec", "aggregate ab count person",
        ]) == 1  # the bad command failed, the loop kept serving
        captured = capsys.readouterr()
        assert "usage: aggregate" in captured.err
        assert "50%" in captured.out

    def test_bad_command_keeps_serving(self, dataspace, capsys):
        store, cache = dataspace
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache,
            "--exec", "nonsense",
            "--exec", "query ab //person/nm",
        ]) == 1
        captured = capsys.readouterr()
        assert "unknown service command" in captured.err
        assert "John" in captured.out  # the loop survived the bad command

    def test_serve_without_cache_dir(self, workspace, capsys):
        assert run([
            "serve", workspace / "store2",
            "--exec", f"put a {workspace / 'a.xml'}",
            "--exec", "query a //person/nm",
            "--exec", "delete a",
            "--exec", "list",
        ]) == 0
        out = capsys.readouterr().out
        assert "100% John" in out
        assert "deleted a" in out


class TestServeHttp:
    """Flag handling of `imprecise serve --http` (the live-server paths
    are exercised end-to-end in tests/test_http_server.py)."""

    def test_http_conflicts_with_exec(self, workspace, capsys):
        status = run([
            "serve", workspace / "store", "--http", "127.0.0.1:0",
            "--exec", "list",
        ])
        assert status == 1
        assert "--http" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["notaport", "1.2.3.4:notaport",
                                         "1.2.3.4:99999", "::1"])
    def test_invalid_address_fails_cleanly(self, workspace, capsys, address):
        status = run(["serve", workspace / "store", "--http", address])
        assert status == 1
        assert "invalid --http address" in capsys.readouterr().err

    def test_parse_http_address(self):
        from repro.cli import _parse_http_address

        assert _parse_http_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_http_address("8080") == ("127.0.0.1", 8080)
        assert _parse_http_address("[::1]:0") == ("::1", 0)

    def test_cache_max_rows_flag_bounds_the_store(self, workspace, capsys):
        store, cache2 = workspace / "store", workspace / "cache2"
        assert run([
            "serve", store, "--cache-dir", cache2,
            "--exec", f"put a {workspace / 'a.xml'}",
            "--exec", f"put b {workspace / 'b.xml'}",
            "--exec", "integrate a b ab",
        ]) == 0
        capsys.readouterr()
        assert run([
            "serve", store, "--cache-dir", cache2, "--cache-max-rows", "1",
            "--exec", "query ab //person/tel",
            "--exec", "query ab //person/nm",
            "--exec", "cache-stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "persistent_answers: 1" in out   # bound enforced
        assert "persistent_evictions: 1" in out
