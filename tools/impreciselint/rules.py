"""The six impreciselint rule families.

Each checker is a function ``(SourceModule) -> list[Finding]``; the
registry at the bottom (:data:`CHECKERS`) is what the runner iterates.
Rules self-scope: a checker first decides whether the file is one it
guards (path-suffix match against the scope tuples below, or presence of
a marker comment) and returns nothing otherwise, so the whole tree can
be scanned with one command.

Scope tuples are *suffixes* of posix paths, which makes the rules
testable against fixture trees (``tmp/repro/probability.py`` matches the
same rules as ``src/repro/probability.py``).
"""

from __future__ import annotations

import ast
import hashlib
import re
from typing import Iterator, Optional

from . import Finding, SourceModule

__all__ = [
    "CHECKERS",
    "FLOAT_TAINT_SCOPE",
    "FLOAT_TAINT_ALLOWLIST",
    "NO_RECURSION_SCOPE",
    "NO_SWALLOW_SCOPE",
    "CONTRACT_CODEC_SCOPE",
    "CACHE_FUNNEL_SCOPE",
    "check_float_taint",
    "check_lock_discipline",
    "check_no_recursion",
    "check_no_swallow",
    "check_contract_drift",
    "check_cache_funnel",
    "codec_surface_digest",
]


def _scoped_nodes(root: ast.AST, qualname: str = "<module>") -> Iterator:
    """Yield ``(node, qualname)`` for every node, where ``qualname`` is
    the dotted class/function scope the node lives in."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (
                child.name
                if qualname == "<module>"
                else f"{qualname}.{child.name}"
            )
            yield child, qualname
            yield from _scoped_nodes(child, inner)
        else:
            yield child, qualname
            yield from _scoped_nodes(child, qualname)


# -- float-taint --------------------------------------------------------------

#: Probability-carrying modules: float literals, ``float()``, true
#: division, ``math.*`` and ``float`` annotations are all suspect here.
FLOAT_TAINT_SCOPE = (
    "repro/probability.py",
    "repro/pxml/events.py",
    "repro/pxml/events_cache.py",
    "repro/pxml/events_compile.py",
    "repro/pxml/simplify.py",
    "repro/feedback/conditioning.py",
    "repro/query/plan.py",
    "repro/query/aggregates.py",
    "repro/query/treepass.py",
    "repro/query/fusion.py",
    "repro/query/ranking.py",
    "repro/query/approximate.py",
    "repro/core/similarity.py",
    "repro/core/estimate.py",
    "repro/dbms/cache_store.py",
    "repro/server/wire.py",
)

#: Explicitly-lossy display surfaces: (path suffix, qualname) -> reason.
#: These functions exist to turn exact Fractions into human-facing text,
#: so their float use is the contract, not a leak.
FLOAT_TAINT_ALLOWLIST = {
    (
        "repro/probability.py",
        "format_probability",
    ): "display-only decimal rendering of an exact Fraction",
    (
        "repro/probability.py",
        "format_percent",
    ): "display-only percent rendering (ranked-answer tables)",
}


def _allowlisted(module: SourceModule, qualname: str) -> bool:
    posix = module.path.as_posix()
    for (suffix, allowed), _reason in FLOAT_TAINT_ALLOWLIST.items():
        if posix.endswith(suffix) and (
            qualname == allowed or qualname.startswith(allowed + ".")
        ):
            return True
    return False


def _annotation_has_float(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    return any(
        isinstance(node, ast.Name) and node.id == "float"
        for node in ast.walk(annotation)
    )


def check_float_taint(module: SourceModule) -> list:
    if not module.matches(FLOAT_TAINT_SCOPE):
        return []
    findings: list = []

    def report(node: ast.AST, qualname: str, detail: str, message: str) -> None:
        if _allowlisted(module, qualname):
            return
        findings.append(
            Finding(
                rule="float-taint",
                path=module.rel,
                line=getattr(node, "lineno", 1),
                qualname=qualname,
                detail=detail,
                message=message,
            )
        )

    for node, qualname in _scoped_nodes(module.tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            report(
                node,
                qualname,
                f"float-literal:{node.value!r}",
                f"float literal {node.value!r} in probability-carrying module"
                " (use Fraction)",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            report(
                node,
                qualname,
                "float-call",
                "float(...) conversion in probability-carrying module"
                " (convert via repro.probability.as_probability)",
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            report(
                node,
                qualname,
                "true-division",
                "true division in probability-carrying module (floats unless"
                " both operands are exact; use Fraction or justify inline)",
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            report(
                node,
                qualname,
                f"math.{node.attr}",
                f"math.{node.attr} in probability-carrying module"
                " (float-valued; keep exactness or justify inline)",
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotated = [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                args.vararg,
                args.kwarg,
            ]
            tainted = any(
                arg is not None and _annotation_has_float(arg.annotation)
                for arg in annotated
            ) or _annotation_has_float(node.returns)
            if tainted:
                inner = (
                    node.name
                    if qualname == "<module>"
                    else f"{qualname}.{node.name}"
                )
                report(
                    node,
                    inner,
                    "float-annotation",
                    f"{node.name} declares float in its signature inside a"
                    " probability-carrying module (accept ProbLike and coerce"
                    " via as_probability)",
                )
        elif isinstance(node, ast.AnnAssign) and _annotation_has_float(
            node.annotation
        ):
            report(
                node,
                qualname,
                "float-annotation",
                "float-annotated binding in probability-carrying module",
            )
    return findings


# -- lock-discipline ----------------------------------------------------------

_GUARDED_BY_RE = re.compile(r"#\s*impreciselint:\s*guarded-by=([A-Za-z_]\w*)")

#: Method names whose call mutates the receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "add",
        "remove",
        "discard",
        "setdefault",
        "move_to_end",
    }
)

#: Construction happens before the object is shared; no lock needed.
_EXEMPT_METHODS = frozenset({"__init__", "__new__"})


def _guard_name(module: SourceModule, node: ast.ClassDef) -> Optional[str]:
    """The declared lock attribute, read from a ``guarded-by`` marker on
    the class header (the ``class`` line through the first body
    statement — conventionally the docstring)."""
    stop = node.body[0].end_lineno if node.body else node.lineno
    for line in module.lines[node.lineno - 1 : stop]:
        match = _GUARDED_BY_RE.search(line)
        if match:
            return match.group(1)
    return None


def _root_self_attr(node: ast.AST) -> Optional[str]:
    """For ``self.X``, ``self.X[...]``, ``self.X.Y[...]`` … the name of
    the attribute on ``self`` at the root of the chain, else ``None``."""
    chain: list = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    if isinstance(current, ast.Name) and current.id == "self" and chain:
        return chain[-1]
    return None


def _lockish(expr: ast.AST, guard: str) -> bool:
    """Does a ``with`` context expression acquire the class's lock?
    Matches the declared guard attribute and anything lock-named, which
    covers shard-lock helpers like ``self._name_lock(name)``."""
    names = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return guard in names or any("lock" in name.lower() for name in names)


def check_lock_discipline(module: SourceModule) -> list:
    findings: list = []
    for node, qualname in _scoped_nodes(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        guard = _guard_name(module, node)
        if guard is None:
            continue
        class_qual = (
            node.name if qualname == "<module>" else f"{qualname}.{node.name}"
        )
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in _EXEMPT_METHODS or method.name.endswith("_locked"):
                # ``*_locked`` is the repo's caller-holds-the-lock naming
                # convention (see docs/development.md).
                continue
            _check_method(
                module, findings, f"{class_qual}.{method.name}", method, guard
            )
    return findings


def _check_method(
    module: SourceModule,
    findings: list,
    qualname: str,
    method: ast.AST,
    guard: str,
) -> None:
    def report(node: ast.AST, detail: str, message: str) -> None:
        findings.append(
            Finding(
                rule="lock-discipline",
                path=module.rel,
                line=node.lineno,
                qualname=qualname,
                detail=detail,
                message=message,
            )
        )

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inside = guarded or any(
                _lockish(item.context_expr, guard) for item in node.items
            )
            for child in ast.iter_child_nodes(node):
                visit(child, inside)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A closure created under the lock may run after it is
            # released — its body starts over as unguarded.
            for child in ast.iter_child_nodes(node):
                visit(child, False)
            return
        if not guarded:
            targets: list = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                attr = _root_self_attr(target)
                if attr is not None:
                    report(
                        node,
                        f"unguarded-write:{attr}",
                        f"write to guarded attribute self.{attr} outside"
                        f" `with self.{guard}` (or a *lock* context)",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                attr = _root_self_attr(node.func.value)
                if attr is not None:
                    report(
                        node,
                        f"unguarded-mutation:{attr}.{node.func.attr}",
                        f"self.{attr}.{node.func.attr}(...) mutates guarded"
                        f" state outside `with self.{guard}`",
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for statement in method.body:
        visit(statement, False)


# -- no-recursion -------------------------------------------------------------

#: The worklist contract: these modules must stay recursion-free so deep
#: documents cannot blow the interpreter stack — every module of the
#: probabilistic layer but the test oracle ``events_reference.py`` (the
#: tree model and its walks, the pricing kernels, the shared tree
#: traversal, compaction, the census, world enumeration, sampling and
#: measures, the PXML wire format), what runs on the traversal (answer
#: pass, aggregates), feedback conditioning, and plain XML's node walks
#: and codec.
NO_RECURSION_SCOPE = (
    "repro/pxml/__init__.py",
    "repro/pxml/build.py",
    "repro/pxml/events.py",
    "repro/pxml/events_cache.py",
    "repro/pxml/events_compile.py",
    "repro/pxml/measures.py",
    "repro/pxml/model.py",
    "repro/pxml/sampling.py",
    "repro/pxml/serialize.py",
    "repro/pxml/simplify.py",
    "repro/pxml/stats.py",
    "repro/pxml/treefold.py",
    "repro/pxml/worlds.py",
    "repro/feedback/conditioning.py",
    "repro/query/aggregates.py",
    "repro/query/treepass.py",
    "repro/xmlkit/nodes.py",
    "repro/xmlkit/parser.py",
    "repro/xmlkit/serializer.py",
)


def check_no_recursion(module: SourceModule) -> list:
    if not module.matches(NO_RECURSION_SCOPE):
        return []

    # Collect module-level functions and class methods as graph nodes.
    functions: dict = {}  # ("", name) or (class, name) -> def node
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[("", node.name)] = node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[(node.name, member.name)] = member

    # Method recursion: inside a function or method named ``m``, a call
    # ``x.m(...)`` on a plain name other than ``self`` may reach any ``m``
    # the module defines (``child.copy()`` inside a node class's ``copy``).
    named: dict = {}
    for key in functions:
        named.setdefault(key[1], set()).add(key)

    edges: dict = {key: set() for key in functions}
    for (owner, name), definition in functions.items():
        for node in ast.walk(definition):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and ("", node.func.id) in functions:
                edges[(owner, name)].add(("", node.func.id))
            elif isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name
            ):
                if node.func.value.id == "self":
                    if owner and (owner, node.func.attr) in functions:
                        edges[(owner, name)].add((owner, node.func.attr))
                elif node.func.attr == name:
                    edges[(owner, name)].update(named[name])

    findings: list = []
    for cycle in _cycles(edges):
        display = sorted(
            f"{owner}.{name}" if owner else name for owner, name in cycle
        )
        detail = "cycle:" + "+".join(display)
        for key in cycle:
            definition = functions[key]
            owner, name = key
            qualname = f"{owner}.{name}" if owner else name
            findings.append(
                Finding(
                    rule="no-recursion",
                    path=module.rel,
                    line=definition.lineno,
                    qualname=qualname,
                    detail=detail,
                    message=(
                        f"{qualname} participates in recursion"
                        f" ({' <-> '.join(display)}) in a worklist-contract"
                        " module — rewrite with an explicit stack"
                    ),
                )
            )
    return findings


def _cycles(edges: dict) -> list:
    """Strongly connected components of size > 1, plus self-loops
    (iterative Tarjan — the recursion linter must not recurse)."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = [0]
    components: list = []

    for start in edges:
        if start in index:
            continue
        work = [(start, iter(sorted(edges[start])))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(edges[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in edges[node]:
                    components.append(sorted(component))
    return components


# -- no-swallow ---------------------------------------------------------------

#: Supervisor / fault-hook modules, the HTTP status mapping, plus the
#: pricing path a deadline is raised from: the self-healing story
#: depends on :class:`~repro.errors.CacheBusyError` and
#: :class:`~repro.errors.DeadlineExceededError` reaching their sanctioned
#: handling points (absorb-and-count, the fan-out's omitted tail, HTTP
#: 503 and 504) — a handler here that could catch one and not re-raise
#: hides a fault instead of healing it.
NO_SWALLOW_SCOPE = (
    "repro/server/multiproc.py",
    "repro/server/app.py",
    "repro/dbms/service.py",
    "repro/dbms/cache_store.py",
    "repro/testing/faults.py",
    "repro/pxml/events.py",
    "repro/pxml/events_cache.py",
    "repro/pxml/events_compile.py",
    "repro/query/engine.py",
    "repro/query/aggregates.py",
)

#: The two critical exceptions, plus every umbrella type (and the bare
#: ``except:``, handled separately) whose handler would catch them:
#: the library's own superclasses (``CacheBusyError`` is a
#: ``StoreError``, and both are ``ImpreciseError``\ s) as well as the
#: builtin ones.
_NO_SWALLOW_CRITICAL = frozenset(
    {
        "CacheBusyError",
        "DeadlineExceededError",
        "StoreError",
        "ImpreciseError",
        "Exception",
        "BaseException",
    }
)


def _handler_type_names(annotation: ast.AST) -> set:
    """The exception class names an ``except <annotation>`` catches —
    ``Name`` ids and ``Attribute`` tails, through tuples."""
    names: set = set()
    nodes = (
        annotation.elts if isinstance(annotation, ast.Tuple) else [annotation]
    )
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a ``raise`` of its own (nested
    callables excluded — a closure raising later proves nothing about
    this handler's control flow)."""
    stack: list = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def check_no_swallow(module: SourceModule) -> list:
    if not module.matches(NO_SWALLOW_SCOPE):
        return []
    findings: list = []
    for node, qualname in _scoped_nodes(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            caught = "bare"
        else:
            hit = sorted(
                _handler_type_names(node.type) & _NO_SWALLOW_CRITICAL
            )
            if not hit:
                continue
            caught = "+".join(hit)
        if _handler_reraises(node):
            continue
        findings.append(
            Finding(
                rule="no-swallow",
                path=module.rel,
                line=node.lineno,
                qualname=qualname,
                detail=f"swallow:{caught}",
                message=(
                    f"except handler catching {caught} swallows"
                    " CacheBusyError/DeadlineExceededError in a"
                    " supervisor/fault-hook module — re-raise, or"
                    " disable with a reason at a sanctioned absorb point"
                ),
            )
        )
    return findings


# -- contract-drift -----------------------------------------------------------

#: Codec modules and the version constant each must reference.
CONTRACT_CODEC_SCOPE = {
    "repro/dbms/cache_store.py": "SCHEMA_VERSION",
    "repro/server/wire.py": "WIRE_VERSION",
}

_PIN_RE = re.compile(r"#\s*impreciselint:\s*schema-surface=([0-9a-f]{12})")


def codec_surface_digest(module: SourceModule) -> str:
    """A 12-hex-digit fingerprint of the module's codec *surface*: the
    whitespace-free string constants inside ``encode_*``/``decode_*``
    functions (field keys and formats; prose and docstrings contain
    spaces and are excluded), module-level ``*_FIELDS`` tuples, and
    whitespace-normalised ``CREATE TABLE`` statements.  Adding a field
    or column changes the digest; rewording an error message does not.
    """
    items: list = []
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name.startswith("encode_") or node.name.startswith("decode_")
        ):
            tokens = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    text = sub.value
                    if text and not any(ch.isspace() for ch in text):
                        tokens.add(text)
            items.append(f"fn:{node.name}:" + ",".join(sorted(tokens)))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.endswith("_FIELDS"):
                    elements = ",".join(
                        repr(element.value)
                        for element in node.value.elts
                        if isinstance(element, ast.Constant)
                    )
                    items.append(f"fields:{target.id}:{elements}")
    for sub in ast.walk(module.tree):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "create table" in sub.value.lower()
        ):
            items.append("sql:" + " ".join(sub.value.split()))
    digest = hashlib.blake2b("\n".join(sorted(items)).encode(), digest_size=6)
    return digest.hexdigest()


def _check_codec_surface(module: SourceModule) -> list:
    posix = module.path.as_posix()
    version_name = next(
        (
            name
            for suffix, name in CONTRACT_CODEC_SCOPE.items()
            if posix.endswith(suffix)
        ),
        None,
    )
    if version_name is None:
        return []
    findings: list = []

    version_line = None
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == version_name
            for target in node.targets
        ):
            version_line = node.lineno
    if version_line is None:
        findings.append(
            Finding(
                rule="contract-drift",
                path=module.rel,
                line=1,
                qualname="<module>",
                detail="version-constant",
                message=f"codec module must define {version_name}",
            )
        )

    expected = codec_surface_digest(module)
    pin = None
    pin_line = version_line or 1
    for number, line in enumerate(module.lines, 1):
        match = _PIN_RE.search(line)
        if match:
            pin, pin_line = match.group(1), number
            break
    if pin is None:
        findings.append(
            Finding(
                rule="contract-drift",
                path=module.rel,
                line=pin_line,
                qualname="<module>",
                detail="surface-pin",
                message=(
                    "codec surface is unpinned — add"
                    f" `# impreciselint: schema-surface={expected}` next to"
                    f" {version_name}"
                ),
            )
        )
    elif pin != expected:
        findings.append(
            Finding(
                rule="contract-drift",
                path=module.rel,
                line=pin_line,
                qualname="<module>",
                detail="surface-pin",
                message=(
                    f"codec surface changed (pin {pin}, now {expected}) —"
                    f" decide whether {version_name} must bump, then update"
                    " the schema-surface pin"
                ),
            )
        )
    return findings


def _module_is_public_repro(module: SourceModule) -> bool:
    parts = module.path.parts
    if "repro" not in parts:
        return False
    tail = parts[parts.index("repro") + 1 :]
    for part in tail:
        name = part[:-3] if part.endswith(".py") else part
        if name.startswith("_") and name != "__init__":
            return False
    return True


def _check_public_docs(module: SourceModule) -> list:
    if not _module_is_public_repro(module):
        return []
    findings: list = []
    for node in module.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        missing = []
        if ast.get_docstring(node) is None:
            missing.append("a docstring")
        if node.returns is None:
            missing.append("a return annotation")
        if missing:
            findings.append(
                Finding(
                    rule="contract-drift",
                    path=module.rel,
                    line=node.lineno,
                    qualname=node.name,
                    detail=f"public-docs:{node.name}",
                    message=(
                        f"public function {node.name} is missing"
                        f" {' and '.join(missing)}"
                    ),
                )
            )
    return findings


def check_contract_drift(module: SourceModule) -> list:
    return _check_codec_surface(module) + _check_public_docs(module)


# -- cache-funnel -------------------------------------------------------------

#: The answer cache states each fault rule once — one connect routine,
#: one entry check, one lookup funnel, one retry loop; copies per public
#: method are how its fault handling drifted before.
CACHE_FUNNEL_SCOPE = ("repro/dbms/cache_store.py",)

#: Methods besides the ``*_locked`` ones that may use the connection.
_CONN_OWNERS = frozenset({"__init__", "close"})


def check_cache_funnel(module: SourceModule) -> list:
    if not module.matches(CACHE_FUNNEL_SCOPE):
        return []
    findings: list = []
    for node, qualname in _scoped_nodes(module.tree):
        # ``Class.method`` or ``Class.method.closure``: closures count as
        # their enclosing method.
        parts = qualname.split(".")
        method = parts[1] if len(parts) > 1 else ""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "connect"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "sqlite3"
            and method != "_connect_locked"
        ):
            detail = "connect"
            message = (
                "sqlite3.connect(...) outside _connect_locked, the one"
                " connect routine"
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "_conn"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and not (method.endswith("_locked") or method in _CONN_OWNERS)
        ):
            detail = "conn"
            message = (
                f"self._conn used in {qualname}: public operations reach"
                " the file only through the entry check, the lookup"
                " funnel or the write transaction (*_locked methods)"
            )
        else:
            continue
        findings.append(
            Finding(
                rule="cache-funnel",
                path=module.rel,
                line=node.lineno,
                qualname=qualname,
                detail=detail,
                message=message,
            )
        )
    return findings


CHECKERS = {
    "float-taint": check_float_taint,
    "lock-discipline": check_lock_discipline,
    "no-recursion": check_no_recursion,
    "no-swallow": check_no_swallow,
    "contract-drift": check_contract_drift,
    "cache-funnel": check_cache_funnel,
}
