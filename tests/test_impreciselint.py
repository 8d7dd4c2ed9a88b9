"""Tests for ``tools.impreciselint`` — the invariant checker suite.

Each rule family gets positive / negative / suppressed / baselined
fixtures (written under ``tmp_path`` with ``repro/...`` suffixes, which
is how the scope matching works), plus *seeded mutations* of the real
source: we take the live module, break the invariant the way a careless
edit would, and assert the rule catches it.  Finally a meta-test runs
the linter over the real ``src/`` tree and requires it clean modulo the
checked-in baseline — the same gate CI enforces.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # ``tools`` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.impreciselint import (  # noqa: E402
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    run_paths,
    save_baseline,
)
from tools.impreciselint.rules import codec_surface_digest  # noqa: E402
from tools.impreciselint import load_source  # noqa: E402

SRC = REPO_ROOT / "src"


def write_fixture(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def lint(tmp_path: Path, rules=None):
    findings, suppressed, checked = run_paths([tmp_path], rules=rules)
    return findings, suppressed


# -- float-taint --------------------------------------------------------------


class TestFloatTaint:
    def test_flags_float_literal_call_division_math_annotation(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            """\
            import math

            def leak(x, share: float):
                a = 0.5
                b = float(x)
                c = x / 2
                d = math.sqrt(x)
                return a, b, c, d
            """,
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        details = sorted(f.detail for f in findings)
        assert details == [
            "float-annotation",
            "float-call",
            "float-literal:0.5",
            "math.sqrt",
            "true-division",
        ]
        assert all(f.rule == "float-taint" for f in findings)
        assert all(f.qualname == "leak" for f in findings)

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/experiments.py",  # not a probability-carrying module
            "def f(x):\n    return x / 2 + 0.5\n",
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert findings == []

    def test_exact_code_in_scope_is_clean(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            """\
            from fractions import Fraction

            def half():
                return Fraction(1, 2)
            """,
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert findings == []

    def test_inline_and_line_above_suppression(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            """\
            def f(x):
                a = 0.5  # impreciselint: disable=float-taint -- fixture
                # impreciselint: disable=float-taint -- fixture
                b = 0.25
                return a, b
            """,
        )
        findings, suppressed = lint(tmp_path, rules=["float-taint"])
        assert findings == []
        assert suppressed == 2

    def test_disable_file_pragma(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/core/similarity.py",
            """\
            # impreciselint: disable-file=float-taint -- fixture
            def f(x):
                return x / 2 + 0.5
            """,
        )
        findings, suppressed = lint(tmp_path, rules=["float-taint"])
        assert findings == []
        assert suppressed == 2

    def test_wrong_rule_suppression_does_not_apply(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            """\
            def f():
                return 0.5  # impreciselint: disable=no-recursion -- wrong rule
            """,
        )
        findings, suppressed = lint(tmp_path, rules=["float-taint"])
        assert [f.detail for f in findings] == ["float-literal:0.5"]
        assert suppressed == 0

    def test_display_allowlist(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            """\
            def format_probability(value):
                return f"{float(value):.4g}"

            def not_allowlisted(value):
                return float(value)
            """,
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert [f.qualname for f in findings] == ["not_allowlisted"]

    def test_seeded_mutation_of_real_probability_module(self, tmp_path):
        """Stripping the justified suppressions from the real module must
        resurface its (exact, Fraction/Fraction) divisions."""
        source = (SRC / "repro/probability.py").read_text(encoding="utf-8")
        stripped = "\n".join(
            line
            for line in source.splitlines()
            if "impreciselint: disable" not in line
        )
        write_fixture(tmp_path, "repro/probability.py", stripped)
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert any(f.detail == "true-division" for f in findings)


# -- lock-discipline ----------------------------------------------------------


LOCKED_CLASS = """\
import threading

class Stats:  # impreciselint: guarded-by=_lock
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0
        self.rows = []

    def good(self):
        with self._lock:
            self.hits += 1
            self.rows.append(1)

    def _bump_locked(self):
        self.hits += 1  # caller holds the lock (naming convention)

    def bad_write(self):
        self.hits += 1

    def bad_mutation(self):
        self.rows.append(2)

    def bad_closure(self):
        with self._lock:
            def later():
                self.hits += 1
            return later
"""


class TestLockDiscipline:
    def test_flags_unguarded_writes_only(self, tmp_path):
        write_fixture(tmp_path, "repro/dbms/stats.py", LOCKED_CLASS)
        findings, _ = lint(tmp_path, rules=["lock-discipline"])
        assert sorted((f.qualname, f.detail) for f in findings) == [
            ("Stats.bad_closure", "unguarded-write:hits"),
            ("Stats.bad_mutation", "unguarded-mutation:rows.append"),
            ("Stats.bad_write", "unguarded-write:hits"),
        ]

    def test_unmarked_class_is_ignored(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/stats.py",
            LOCKED_CLASS.replace("  # impreciselint: guarded-by=_lock", ""),
        )
        findings, _ = lint(tmp_path, rules=["lock-discipline"])
        assert findings == []

    def test_helper_lock_context_counts_as_guarded(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/stats.py",
            """\
            class Sharded:  # impreciselint: guarded-by=_mu
                def put(self, name):
                    with self._name_lock(name):
                        self.count += 1
            """,
        )
        findings, _ = lint(tmp_path, rules=["lock-discipline"])
        assert findings == []

    def test_seeded_mutation_of_real_cache_store(self, tmp_path):
        """Replacing the first ``with self._lock:`` of the real store
        with ``if True:`` must produce unguarded findings."""
        source = (SRC / "repro/dbms/cache_store.py").read_text(encoding="utf-8")
        mutated = source.replace("with self._lock:", "if True:")
        assert mutated != source
        write_fixture(tmp_path, "repro/dbms/cache_store.py", mutated)
        findings, _ = lint(tmp_path, rules=["lock-discipline"])
        assert any(f.detail.startswith("unguarded-") for f in findings)
        # the untouched original is clean
        write_fixture(tmp_path / "clean", "repro/dbms/cache_store.py", source)
        findings, _ = lint(tmp_path / "clean", rules=["lock-discipline"])
        assert findings == []


# -- no-recursion -------------------------------------------------------------


class TestNoRecursion:
    def test_flags_direct_and_mutual_recursion(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/pxml/events.py",
            """\
            def direct(x):
                return direct(x)

            def ping(x):
                return pong(x)

            def pong(x):
                return ping(x)

            def iterative(x):
                while x:
                    x -= 1
                return x
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        names = {f.qualname for f in findings}
        assert "direct" in names
        assert names & {"ping", "pong"}
        assert "iterative" not in names

    def test_method_self_recursion(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/query/aggregates.py",
            """\
            class Agg:
                def fold(self, node):
                    return self.fold(node)
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["Agg.fold"]

    def test_out_of_scope_recursion_allowed(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/xmlkit/dtd.py",  # recursion is fine outside the scope
            "def walk(n):\n    return walk(n)\n",
        )
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert findings == []

    def test_seeded_mutation_of_real_events_module(self, tmp_path):
        source = (SRC / "repro/pxml/events.py").read_text(encoding="utf-8")
        mutated = source + "\n\ndef _resurrect(event):\n    return _resurrect(event)\n"
        write_fixture(tmp_path, "repro/pxml/events.py", mutated)
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["_resurrect"]
        # the real module itself is recursion-free
        write_fixture(tmp_path / "clean", "repro/pxml/events.py", source)
        findings, _ = lint(tmp_path / "clean", rules=["no-recursion"])
        assert findings == []

    @pytest.mark.parametrize(
        "module",
        ["repro/xmlkit/parser.py", "repro/xmlkit/serializer.py",
         "repro/pxml/serialize.py"],
    )
    def test_seeded_mutation_of_real_codec_module(self, tmp_path, module):
        source = (SRC / module).read_text(encoding="utf-8")
        mutated = source + (
            "\n\ndef _descend(text, pos):\n"
            "    return _descend(text, pos + 1) if pos < len(text) else pos\n"
        )
        write_fixture(tmp_path, module, mutated)
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["_descend"]
        # the real module itself is recursion-free
        write_fixture(tmp_path / "clean", module, source)
        findings, _ = lint(tmp_path / "clean", rules=["no-recursion"])
        assert findings == []

    @pytest.mark.parametrize(
        "module",
        [
            "repro/pxml/treefold.py",
            "repro/pxml/simplify.py",
            "repro/pxml/build.py",
            "repro/pxml/stats.py",
            "repro/pxml/model.py",
            "repro/pxml/worlds.py",
            "repro/pxml/sampling.py",
            "repro/pxml/measures.py",
            "repro/xmlkit/nodes.py",
            "repro/feedback/conditioning.py",
        ],
    )
    def test_seeded_mutation_of_real_tree_module(self, tmp_path, module):
        source = (SRC / module).read_text(encoding="utf-8")
        mutated = source + (
            "\n\ndef _copy(node):\n"
            "    return [_copy(child) for child in node.children]\n"
        )
        write_fixture(tmp_path, module, mutated)
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["_copy"]
        # the real module itself is recursion-free
        write_fixture(tmp_path / "clean", module, source)
        findings, _ = lint(tmp_path / "clean", rules=["no-recursion"])
        assert findings == []

    def test_method_recursion_through_another_object(self, tmp_path):
        """Inside a method ``m``, ``x.m()`` on a plain name other than
        ``self`` may reach any ``m`` of the module; a function of another
        name calling ``x.key()`` is no cycle."""
        write_fixture(
            tmp_path,
            "repro/pxml/model.py",
            """\
            class Leaf:
                def key(self):
                    return ("leaf",)

                def copy(self):
                    return Leaf()


            class Branch:
                def copy(self):
                    return Branch([child.copy() for child in self.children])


            def _key_of(current):
                return current.key()
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["Branch.copy"]

    def test_seeded_method_recursion_in_real_model(self, tmp_path):
        source = (SRC / "repro/pxml/model.py").read_text(encoding="utf-8")
        anchor = (
            '    """A regular element node; its children are probability nodes."""\n'
        )
        assert anchor in source
        mutated = source.replace(anchor, anchor + (
            "\n    def copy(self):\n"
            "        return PXElement(\n"
            "            self.tag, dict(self.attributes),"
            " [child.copy() for child in self.children]\n"
            "        )\n"
        ))
        write_fixture(tmp_path, "repro/pxml/model.py", mutated)
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["PXElement.copy"]

    def test_seeded_method_recursion_in_real_xml_nodes(self, tmp_path):
        source = (SRC / "repro/xmlkit/nodes.py").read_text(encoding="utf-8")
        anchor = "    # -- navigation ---"
        assert anchor in source
        mutated = source.replace(anchor, (
            "    def iter(self):\n"
            "        yield self\n"
            "        for child in self.children:\n"
            "            yield from child.iter()\n\n"
        ) + anchor)
        write_fixture(tmp_path, "repro/xmlkit/nodes.py", mutated)
        findings, _ = lint(tmp_path, rules=["no-recursion"])
        assert [f.qualname for f in findings] == ["XElement.iter"]


# -- no-swallow ---------------------------------------------------------------


class TestNoSwallow:
    def test_flags_bare_umbrella_and_explicit_swallows(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/server/multiproc.py",
            """\
            def supervise(step):
                try:
                    step()
                except:
                    pass

            def probe(step):
                try:
                    step()
                except Exception:
                    return None

            def absorb(step):
                try:
                    step()
                except (OSError, CacheBusyError):
                    return None

            def expire(step):
                try:
                    step()
                except DeadlineExceededError:
                    return None
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        details = sorted(f.detail for f in findings)
        assert details == [
            "swallow:CacheBusyError",
            "swallow:DeadlineExceededError",
            "swallow:Exception",
            "swallow:bare",
        ]
        assert all(f.rule == "no-swallow" for f in findings)

    def test_reraise_and_unrelated_types_are_clean(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/service.py",
            """\
            def contained(step):
                try:
                    step()
                except Exception:
                    cleanup()
                    raise

            def typed_raise(step):
                try:
                    step()
                except CacheBusyError as error:
                    raise StoreError("busy") from error

            def benign(step):
                try:
                    step()
                except (OSError, ValueError):
                    return None
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert findings == []

    def test_nested_callable_raise_does_not_count(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/cache_store.py",
            """\
            def hook(step):
                try:
                    step()
                except DeadlineExceededError:
                    def later():
                        raise RuntimeError("too late")
                    return later
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert [f.detail for f in findings] == [
            "swallow:DeadlineExceededError"
        ]

    def test_attribute_qualified_names_are_seen(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/testing/faults.py",
            """\
            import repro.errors as errors

            def hook(step):
                try:
                    step()
                except errors.CacheBusyError:
                    return None
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert [f.detail for f in findings] == ["swallow:CacheBusyError"]

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/cli.py",  # the CLI maps errors to exit codes
            """\
            def handle(step):
                try:
                    step()
                except Exception:
                    return None
            """,
        )
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert findings == []

    def test_seeded_mutation_of_real_events_module(self, tmp_path):
        """A broad handler around the kernel's worklist would eat the
        deadline checkpoint's typed error before it reached the
        fan-out."""
        source = (SRC / "repro/pxml/events.py").read_text(encoding="utf-8")
        needle = "            checkpoint()\n"
        assert source.count(needle) == 1
        mutated = source.replace(
            needle,
            "            try:\n"
            "                checkpoint()\n"
            "            except Exception:\n"
            "                pass\n",
        )
        write_fixture(tmp_path, "repro/pxml/events.py", mutated)
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert [
            (f.qualname, f.detail) for f in findings
        ] == [("event_probability", "swallow:Exception")]
        # the real module itself has no broad handler
        write_fixture(tmp_path / "clean", "repro/pxml/events.py", source)
        findings, _ = lint(tmp_path / "clean", rules=["no-swallow"])
        assert findings == []

    def test_seeded_mutation_of_real_service_module(self, tmp_path):
        """The library's superclasses count: an ``except ImpreciseError``
        in the service would eat CacheBusyError and DeadlineExceededError
        alike, while the narrow ``MissingDocumentError`` the listing
        catches cannot."""
        source = (SRC / "repro/dbms/service.py").read_text(encoding="utf-8")
        needle = "            except MissingDocumentError:\n"
        assert source.count(needle) == 1
        mutated = source.replace(needle, "            except ImpreciseError:\n")
        write_fixture(tmp_path, "repro/dbms/service.py", mutated)
        findings, _ = lint(tmp_path, rules=["no-swallow"])
        assert [(f.qualname, f.detail) for f in findings] == [
            ("DataspaceService.documents", "swallow:ImpreciseError")
        ]
        # the real module's narrow handler is clean
        write_fixture(tmp_path / "clean", "repro/dbms/service.py", source)
        findings, _ = lint(tmp_path / "clean", rules=["no-swallow"])
        assert findings == []

    def test_disable_pragma_marks_the_sanctioned_absorb_point(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/service.py",
            """\
            def guarded_put(write):
                try:
                    write()
                # impreciselint: disable=no-swallow -- fixture absorb point
                except CacheBusyError:
                    count()
            """,
        )
        findings, suppressed = lint(tmp_path, rules=["no-swallow"])
        assert findings == []
        assert suppressed == 1


# -- contract-drift -----------------------------------------------------------


CODEC_MODULE = """\
SCHEMA_VERSION = 1{pin}

def encode_row(row):
    return {{"value": row.value, "prob": row.prob}}
"""


class TestContractDrift:
    def codec(self, tmp_path, pin=""):
        return write_fixture(
            tmp_path,
            "repro/dbms/cache_store.py",
            CODEC_MODULE.format(pin=pin),
        )

    def test_missing_pin_is_flagged_with_expected_digest(self, tmp_path):
        path = self.codec(tmp_path)
        expected = codec_surface_digest(load_source(path))
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        surface = [f for f in findings if f.detail == "surface-pin"]
        assert len(surface) == 1
        assert expected in surface[0].message

    def test_correct_pin_is_clean_and_field_addition_breaks_it(self, tmp_path):
        path = self.codec(tmp_path)
        digest = codec_surface_digest(load_source(path))
        self.codec(tmp_path, pin=f"  # impreciselint: schema-surface={digest}")
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        assert [f for f in findings if f.detail == "surface-pin"] == []
        # adding a payload field without refreshing the pin is caught
        path.write_text(
            path.read_text(encoding="utf-8").replace(
                '"prob": row.prob}', '"prob": row.prob, "extra": 1}'
            ),
            encoding="utf-8",
        )
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        assert [f.detail for f in findings if f.detail == "surface-pin"] == [
            "surface-pin"
        ]

    def test_missing_version_constant(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/server/wire.py",
            "def encode_x(x):\n    return {'x': x}\n",
        )
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        assert any(f.detail == "version-constant" for f in findings)

    def test_seeded_pin_tamper_of_real_cache_store(self, tmp_path):
        source = (SRC / "repro/dbms/cache_store.py").read_text(encoding="utf-8")
        tampered = re.sub(
            r"schema-surface=[0-9a-f]{12}", "schema-surface=000000000000", source
        )
        assert tampered != source
        write_fixture(tmp_path, "repro/dbms/cache_store.py", tampered)
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        assert any(f.detail == "surface-pin" for f in findings)

    def test_public_function_docs(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/newmod.py",
            """\
            def documented() -> int:
                \"\"\"Has both docstring and return annotation.\"\"\"
                return 1

            def bare(x):
                return x

            def _private(x):
                return x
            """,
        )
        findings, _ = lint(tmp_path, rules=["contract-drift"])
        assert [f.detail for f in findings] == ["public-docs:bare"]


# -- cache-funnel -------------------------------------------------------------


class TestCacheFunnel:
    def test_connect_and_conn_outside_the_routines_are_flagged(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/cache_store.py",
            """\
            import sqlite3

            class Store:
                def __init__(self):
                    self._conn = None

                def _connect_locked(self):
                    self._conn = sqlite3.connect("x")

                def _read_locked(self):
                    return self._conn.execute("SELECT 1")

                def reopen(self):
                    self._conn = sqlite3.connect("x")

                def put(self):
                    def apply():
                        self._conn.execute("DELETE FROM t")
                    return apply
            """,
        )
        findings, _ = lint(tmp_path, rules=["cache-funnel"])
        assert sorted((f.qualname, f.detail) for f in findings) == [
            ("Store.put.apply", "conn"),
            ("Store.reopen", "conn"),
            ("Store.reopen", "connect"),
        ]

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/dbms/store.py",
            "class S:\n    def get(self):\n        return self._conn\n",
        )
        findings, _ = lint(tmp_path, rules=["cache-funnel"])
        assert findings == []

    def test_seeded_mutation_of_real_cache_store(self, tmp_path):
        """A public method that runs a statement on the connection
        directly skips the entry check and the corruption funnel."""
        source = (SRC / "repro/dbms/cache_store.py").read_text(encoding="utf-8")
        needle = "    def __enter__(self)"
        assert source.count(needle) == 1
        mutated = source.replace(
            needle,
            "    def peek(self) -> int:\n"
            "        with self._lock:\n"
            "            row = self._conn.execute(\n"
            "                \"SELECT COUNT(*) FROM answers\"\n"
            "            ).fetchone()\n"
            "        return int(row[0])\n\n" + needle,
        )
        write_fixture(tmp_path, "repro/dbms/cache_store.py", mutated)
        findings, _ = lint(tmp_path, rules=["cache-funnel"])
        assert [(f.qualname, f.detail) for f in findings] == [
            ("AnswerCacheStore.peek", "conn")
        ]
        # the real module keeps every statement behind the routines
        write_fixture(tmp_path / "clean", "repro/dbms/cache_store.py", source)
        findings, _ = lint(tmp_path / "clean", rules=["cache-funnel"])
        assert findings == []


# -- baseline and identities --------------------------------------------------


class TestBaseline:
    def make_findings(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            "def f():\n    return 0.5\n\ndef g():\n    return 0.25\n",
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert len(findings) == 2
        return findings

    def test_identity_has_no_line_numbers(self, tmp_path):
        finding = self.make_findings(tmp_path)[0]
        parts = finding.identity.split("::")
        assert parts[0] == "float-taint"
        assert parts[2] == "f"
        assert str(finding.line) not in parts

    def test_round_trip_and_split(self, tmp_path):
        findings = self.make_findings(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, findings[:1])
        baseline = load_baseline(baseline_path)
        new, baselined, stale = apply_baseline(findings, baseline)
        assert [f.identity for f in baselined] == [findings[0].identity]
        assert [f.identity for f in new] == [findings[1].identity]
        assert stale == []

    def test_stale_entries_are_reported(self, tmp_path):
        findings = self.make_findings(tmp_path)
        baseline = {"float-taint::gone.py::h::float-literal:0.5": 1}
        new, baselined, stale = apply_baseline(findings, baseline)
        assert len(new) == 2 and baselined == []
        assert stale == ["float-taint::gone.py::h::float-literal:0.5"]

    def test_baseline_count_caps_matches(self, tmp_path):
        write_fixture(
            tmp_path,
            "repro/probability.py",
            "def f():\n    return 0.5 + 0.5\n",
        )
        findings, _ = lint(tmp_path, rules=["float-taint"])
        assert len(findings) == 2  # same identity, twice
        baseline = {findings[0].identity: 1}
        new, baselined, _ = apply_baseline(findings, baseline)
        assert len(baselined) == 1 and len(new) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def run_cli(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.impreciselint", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
        )

    def test_dirty_fixture_fails_and_emits_json(self, tmp_path):
        write_fixture(
            tmp_path, "repro/probability.py", "def f():\n    return 0.5\n"
        )
        report = tmp_path / "report.json"
        result = self.run_cli(
            str(tmp_path),
            "--no-baseline",
            "--rules",
            "float-taint",
            "--json",
            str(report),
        )
        assert result.returncode == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["counts"]["new"] == 1
        assert payload["findings"][0]["rule"] == "float-taint"

    def test_unknown_rule_exits_2(self, tmp_path):
        write_fixture(tmp_path, "repro/probability.py", "x = 1\n")
        result = self.run_cli(str(tmp_path), "--rules", "no-such-rule")
        assert result.returncode == 2

    def test_update_baseline_then_clean(self, tmp_path):
        write_fixture(
            tmp_path, "repro/probability.py", "def f():\n    return 0.5\n"
        )
        baseline = tmp_path / "baseline.json"
        first = self.run_cli(
            str(tmp_path), "--baseline", str(baseline), "--update-baseline"
        )
        assert first.returncode == 0
        second = self.run_cli(str(tmp_path), "--baseline", str(baseline))
        assert second.returncode == 0


# -- the real tree ------------------------------------------------------------


class TestLiveTree:
    def test_src_is_clean_modulo_checked_in_baseline(self):
        """The CI gate: the live source produces no findings beyond the
        checked-in baseline, and the baseline carries no stale entries."""
        findings, _suppressed, checked = run_paths([SRC])
        assert checked > 50  # sanity: the tree was actually scanned
        baseline = load_baseline(DEFAULT_BASELINE)
        new, baselined, stale = apply_baseline(findings, baseline)
        assert [f.render() for f in new] == []
        assert stale == []

    def test_checked_in_baseline_is_small_and_known(self):
        """The baseline shrinks, never grows, and has shrunk to nothing:
        the aggregate convolution's recursion cycle, its last two
        grandfathered identities, now runs on the tree pass's
        explicit-stack traversal."""
        assert load_baseline(DEFAULT_BASELINE) == {}

    def test_real_codec_pins_match_current_surface(self):
        for rel in ("repro/dbms/cache_store.py", "repro/server/wire.py"):
            module = load_source(SRC / rel)
            digest = codec_surface_digest(module)
            assert f"schema-surface={digest}" in module.source
