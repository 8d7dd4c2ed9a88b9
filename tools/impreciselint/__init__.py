"""impreciselint — AST-based invariant checker for the IMPrECISE repro.

The repository's correctness story rests on conventions that ordinary
test suites cannot see: probabilities must stay exact
:class:`fractions.Fraction` values end to end, shared ``dbms`` state must
only be mutated under its locks, and the PR-4 event kernel must stay
worklist-driven.  This package checks those conventions *structurally*,
from the AST, with no third-party dependencies.  Rule families (see
:mod:`tools.impreciselint.rules` and ``docs/development.md``):

``float-taint``
    Float literals, ``float()`` calls, true division, ``math.*`` use and
    ``float`` annotations inside the probability-carrying modules.
``lock-discipline``
    Writes to attributes of a ``# impreciselint: guarded-by=<lock>``
    class outside a ``with <lock>:`` block.
``no-recursion``
    Direct or mutual recursion in the worklist-contract modules.
``no-swallow``
    ``except`` handlers in the supervisor/fault-hook modules that could
    catch ``CacheBusyError`` or ``DeadlineExceededError`` (bare, the
    umbrella ``Exception``/``BaseException``, or the types themselves)
    without re-raising — the self-healing tier must route those to
    their sanctioned handling points, never drop them.
``contract-drift``
    Codec field changes without a schema/wire version acknowledgement,
    and public ``repro.*`` functions missing docstrings or return
    annotations.
``cache-funnel``
    In the answer cache, ``sqlite3.connect`` outside its one connect
    routine, or ``self._conn`` outside the ``*_locked`` fault-rule
    routines (and ``__init__``/``close``).

Findings can be silenced three ways, in increasing scope:

* ``# impreciselint: disable=RULE[,RULE] -- reason`` on the finding's
  line or the line directly above it;
* ``# impreciselint: disable-file=RULE -- reason`` anywhere in a file;
* an entry in the checked-in baseline (``baseline.json``) keyed by the
  finding's stable identity — grandfathered findings that should not
  grow in number but are not worth churning code over.

The CLI lives in ``__main__.py``: ``python -m tools.impreciselint src/``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

__all__ = [
    "Finding",
    "SourceModule",
    "Suppressions",
    "RULE_NAMES",
    "load_source",
    "iter_source_files",
    "run_paths",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
    "report_json",
]

#: Repository root (``tools/impreciselint/`` is two levels down).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Default baseline location — next to this package so that
#: ``python -m tools.impreciselint src/`` needs no flags.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``identity`` deliberately excludes the line number: baselines must
    survive unrelated edits above a grandfathered finding.  ``detail``
    is the stable discriminator within a scope (e.g. which attribute was
    written, which literal appeared).
    """

    rule: str
    path: str  # repository-relative posix path (stable across checkouts)
    line: int
    qualname: str  # enclosing class/function path, or "<module>"
    detail: str
    message: str

    @property
    def identity(self) -> str:
        return f"{self.rule}::{self.path}::{self.qualname}::{self.detail}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_DISABLE_FILE_RE = re.compile(
    r"#\s*impreciselint:\s*disable-file=([a-z\-, ]+?)(?:\s+--\s+\S.*)?$"
)
_DISABLE_RE = re.compile(
    r"#\s*impreciselint:\s*disable=([a-z\-, ]+?)(?:\s+--\s+\S.*)?$"
)


def _parse_rule_list(text: str) -> set:
    return {name.strip() for name in text.split(",") if name.strip()}


class Suppressions:
    """Per-file suppression comments, parsed once from the source text.

    A line-scoped ``disable`` comment silences findings on its own line
    and on the line directly below it (so a comment can sit above a long
    statement).  ``disable-file`` silences a rule for the whole file.
    """

    def __init__(self, source: str):
        self.file_rules: set = set()
        self.line_rules: dict = {}
        for number, line in enumerate(source.splitlines(), 1):
            match = _DISABLE_FILE_RE.search(line)
            if match:
                self.file_rules |= _parse_rule_list(match.group(1))
                continue
            match = _DISABLE_RE.search(line)
            if match:
                self.line_rules.setdefault(number, set()).update(
                    _parse_rule_list(match.group(1))
                )

    def suppresses(self, rule: str, line: int) -> bool:
        if rule in self.file_rules:
            return True
        return rule in self.line_rules.get(line, ()) or rule in self.line_rules.get(
            line - 1, ()
        )


@dataclass
class SourceModule:
    """A parsed source file handed to every rule checker."""

    path: Path  # absolute
    rel: str  # repository-relative posix path (finding identity key)
    source: str
    tree: ast.Module
    lines: list  # 1-indexed via lines[number - 1]
    suppressions: Suppressions

    def matches(self, suffixes: Iterable[str]) -> bool:
        """True when this file is one of the given scope suffixes."""
        posix = self.path.as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)


def load_source(path: Path) -> SourceModule:
    path = Path(path).resolve()
    source = path.read_text(encoding="utf-8")
    try:
        rel = path.relative_to(REPO_ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    return SourceModule(
        path=path,
        rel=rel,
        source=source,
        tree=ast.parse(source, filename=str(path)),
        lines=source.splitlines(),
        suppressions=Suppressions(source),
    )


def iter_source_files(paths: Iterable[Path]) -> list:
    """All ``*.py`` files under the given files/directories, sorted."""
    files: set = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.update(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            files.add(entry)
    return sorted(path.resolve() for path in files)


def run_paths(
    paths: Iterable[Path],
    *,
    rules: Optional[Iterable[str]] = None,
    checkers: Optional[dict] = None,
) -> tuple:
    """Run the rule checkers over ``paths``.

    Returns ``(findings, suppressed_count, checked_file_count)`` with
    suppression comments already applied (but no baseline filtering —
    that is the caller's policy, see :func:`apply_baseline`).
    """
    from . import rules as rules_module

    if checkers is None:
        checkers = rules_module.CHECKERS
    selected = set(rules) if rules is not None else set(checkers)
    unknown = selected - set(checkers)
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    findings: list = []
    suppressed = 0
    files = iter_source_files(paths)
    for path in files:
        module = load_source(path)
        for rule_name, checker in checkers.items():
            if rule_name not in selected:
                continue
            for finding in checker(module):
                if module.suppressions.suppresses(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))
    return findings, suppressed, len(files)


# -- baseline -----------------------------------------------------------------


def load_baseline(path: Path) -> dict:
    """``identity -> allowed count`` from a baseline JSON file (empty when
    the file does not exist — a fresh tree has nothing grandfathered)."""
    path = Path(path)
    if not path.exists():
        return {}
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload.get("findings", {})
    if not isinstance(entries, dict) or not all(
        isinstance(key, str) and isinstance(value, int)
        for key, value in entries.items()
    ):
        raise ValueError(f"malformed baseline file {path}")
    return dict(entries)


def save_baseline(path: Path, findings: Iterable[Finding]) -> None:
    counts: dict = {}
    for finding in findings:
        counts[finding.identity] = counts.get(finding.identity, 0) + 1
    payload = {
        "comment": (
            "Grandfathered impreciselint findings; identities are"
            " rule::path::qualname::detail with an allowed count."
            " Shrink, never grow."
        ),
        "findings": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def apply_baseline(findings: Iterable[Finding], baseline: dict) -> tuple:
    """Split findings into ``(new, baselined, stale_identities)``.

    Up to ``count`` findings per baselined identity pass; the rest are
    new.  ``stale_identities`` are baseline entries that no longer match
    anything — safe to prune with ``--update-baseline``.
    """
    remaining = dict(baseline)
    new: list = []
    baselined: list = []
    for finding in findings:
        if remaining.get(finding.identity, 0) > 0:
            remaining[finding.identity] -= 1
            baselined.append(finding)
        else:
            new.append(finding)
    matched = {finding.identity for finding in baselined}
    stale = sorted(identity for identity in baseline if identity not in matched)
    return new, baselined, stale


# -- machine-readable report --------------------------------------------------


def report_json(
    *,
    new: Iterable[Finding],
    baselined: Iterable[Finding],
    suppressed: int,
    stale: Iterable[str],
    checked_files: int,
) -> dict:
    new = list(new)
    baselined = list(baselined)
    return {
        "version": 1,
        "checked_files": checked_files,
        "counts": {
            "new": len(new),
            "baselined": len(baselined),
            "suppressed": suppressed,
            "stale_baseline_entries": len(list(stale)),
        },
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "qualname": finding.qualname,
                "detail": finding.detail,
                "message": finding.message,
                "identity": finding.identity,
                "baselined": grandfathered,
            }
            for grandfathered, group in ((False, new), (True, baselined))
            for finding in group
        ],
        "stale_baseline_entries": list(stale),
    }


def _rule_names() -> tuple:
    from . import rules as rules_module

    return tuple(rules_module.CHECKERS)


# Re-exported lazily to avoid importing rules at package import time in
# contexts that only need Finding/baseline plumbing.
def __getattr__(name: str):
    if name == "RULE_NAMES":
        return _rule_names()
    raise AttributeError(name)
