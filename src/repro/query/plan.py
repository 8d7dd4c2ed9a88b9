"""Compiled query plans for probabilistic XPath evaluation.

Parsing and re-validating an XPath on every execution wastes work that is
identical across runs, and defers "this query has no possible-worlds
semantics" errors to evaluation time.  A :class:`QueryPlan` front-loads
everything that is static:

* **validation** — the whole AST is checked once at compile time against
  the probabilistically-supported subset (axes, functions, operators,
  variable scoping); unsupported constructs raise
  :class:`~repro.errors.QueryError` *before* any document is touched;
* **pre-resolved axis steps** — every location step is resolved to a
  :class:`StepPlan` whose node matcher is specialized for its test kind
  (named element/attribute, wildcard, ``text()``, ``node()``), so the
  per-candidate hot loop does one precomputed check instead of
  re-dispatching on AST node types;
* **predicate event templates** — each step's predicates are kept as
  validated sub-ASTs ready to be instantiated into boolean events at each
  candidate node (instantiation must happen per node; validation must
  not);
* **static-structure fingerprint** — a canonical hashable form of the
  AST, independent of surface syntax (whitespace, redundant syntax), used
  by :class:`repro.pxml.events_cache.EventProbabilityCache` to key
  per-document answer caches: two engines compiling ``//a/b`` and
  ``//a/b`` (or the same plan reused) share one cached answer-event map;
* **anchor** — whether the plan is *anchored*, i.e. priceable by the
  one-pass tree DP of :mod:`repro.query.treepass` (see :class:`Anchor`);
  decided from the AST alone, once per plan.

Plans are immutable and document-independent: compile once, run against
any number of documents, from any number of engines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import QueryError
from ..pxml.model import PXElement, PXText
from ..xmlkit.xpath.ast import (
    AXES,
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_DESCENDANT,
    AXIS_SELF,
    BinaryOp,
    FunctionCall,
    Literal,
    NameTest,
    Negate,
    NodeTest,
    Number,
    Path,
    Quantified,
    Step,
    TextTest,
    Union as UnionExpr,
    VarRef,
    XPathNode,
)
from ..xmlkit.xpath.parser import compile_xpath

__all__ = ["Anchor", "PAttr", "StepPlan", "QueryPlan", "compile_plan"]

#: Functions with a possible-worlds compilation in the engine.
SUPPORTED_FUNCTIONS = frozenset(
    {"not", "true", "false", "contains", "starts-with", "ends-with"}
)

#: Comparison operators with an event compilation; ``and``/``or`` are
#: handled structurally.
SUPPORTED_COMPARISONS = frozenset({"=", "!=", "<", "<=", ">", ">="})


@dataclass(frozen=True)
class PAttr:
    """Attribute pseudo-node of a probabilistic element."""

    owner: PXElement
    name: str
    value: str


def _make_matcher(test: object) -> Callable[[object], bool]:
    """Specialize the node test into a single-call matcher."""
    if isinstance(test, NodeTest):
        return lambda node: not isinstance(node, PAttr)
    if isinstance(test, TextTest):
        return lambda node: isinstance(node, PXText)
    if isinstance(test, NameTest):
        if test.is_wildcard:
            return lambda node: isinstance(node, (PXElement, PAttr))
        name = test.name
        return lambda node: (
            node.tag == name
            if isinstance(node, PXElement)
            else isinstance(node, PAttr) and node.name == name
        )
    raise QueryError(f"unknown node test {test!r}")


@dataclass(frozen=True)
class StepPlan:
    """One pre-resolved location step.

    ``matches`` is the specialized node matcher; ``predicates`` are the
    validated predicate event templates, instantiated per candidate node
    by the engine.
    """

    axis: str
    test: object
    predicates: tuple[XPathNode, ...]
    matches: Callable[[object], bool]

    @classmethod
    def resolve(cls, step: Step) -> "StepPlan":
        if step.axis not in AXES:
            raise QueryError(
                f"unsupported axis {step.axis!r} over probabilistic XML"
            )
        return cls(step.axis, step.test, step.predicates, _make_matcher(step.test))


@dataclass(frozen=True)
class Anchor:
    """The tree-pass shape of an anchored plan.

    A plan is *anchored* when it is one path whose leading steps use the
    child or descendant axis with a name or ``*`` test, and whatever
    follows the *anchor* — the first leading step that carries
    predicates, or else the last leading step — stays inside the anchor
    element's subtree: the anchor's predicates and the later steps use
    only child, descendant, self and attribute axes and relative paths,
    and every variable a predicate reads is bound by a quantifier inside
    that same predicate.

    ``descendant`` and ``names`` describe the leading steps up to and
    including the anchor (``None`` is the ``*`` test): they are the DP
    state of :mod:`repro.query.treepass`.  ``local`` is the path the
    engine walks from each anchor element — a ``self::node()`` step
    carrying the anchor's predicates, then the later steps — or ``None``
    when the anchor itself is the answer node and contributes its string
    value.
    """

    descendant: tuple[bool, ...]
    names: tuple[Optional[str], ...]
    local: Optional[Path]


class QueryPlan:
    """A compiled, reusable, document-independent query.

    Use :func:`compile_plan` (or ``QueryEngine.compile``) rather than
    constructing directly.
    """

    __slots__ = ("expression", "ast", "fingerprint", "anchor", "_steps", "_digest")

    def __init__(self, expression: Optional[str], ast: XPathNode) -> None:
        self.expression = expression
        self.ast = ast
        _validate(ast, scope=frozenset(), as_nodeset=True)
        steps: dict[Step, StepPlan] = {}
        _collect_steps(ast, steps)
        self.anchor: Optional[Anchor] = _anchor_of(ast)
        if self.anchor is not None and self.anchor.local is not None:
            _collect_steps(self.anchor.local, steps)
        self._steps = steps
        self.fingerprint: tuple[object, ...] = _fingerprint(ast)
        self._digest: Optional[str] = None

    @property
    def fingerprint_digest(self) -> str:
        """Hex digest of the structural fingerprint — the plan's
        *persistent* identity.

        **Stability contract**: the digest is a SHA-256 over a canonical
        byte encoding of :attr:`fingerprint` (which contains only axis
        names, test names, operators, literals and tuple shapes — no
        object ids, no hash randomization), so it is stable across
        processes, interpreter restarts and platforms.  On-disk caches
        (:mod:`repro.dbms.cache_store`) key persisted answers by it;
        changing the fingerprint encoding is a cache-format break and
        must bump :data:`repro.dbms.cache_store.SCHEMA_VERSION`.
        """
        digest = self._digest
        if digest is None:
            digest = hashlib.sha256(
                _encode_fingerprint(self.fingerprint).encode("utf-8")
            ).hexdigest()
            self._digest = digest
        return digest

    def step(self, step: Step) -> StepPlan:
        """The pre-resolved plan of one of this query's location steps."""
        plan = self._steps.get(step)
        if plan is None:  # step injected from outside this plan's AST
            plan = StepPlan.resolve(step)
        return plan

    @property
    def step_count(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        shown = self.expression if self.expression is not None else self.ast
        return f"QueryPlan({shown!r}, steps={len(self._steps)})"


def compile_plan(expression: Union[str, XPathNode, QueryPlan]) -> QueryPlan:
    """Compile an XPath string or AST into a :class:`QueryPlan`.

    Idempotent on plans.  Raises :class:`~repro.errors.QueryError` when
    the query falls outside the probabilistically-supported subset
    (positional predicates, arithmetic, unknown functions, unbound
    variables, unsupported axes).

    >>> plan = compile_plan("//person/tel")
    >>> plan.fingerprint == compile_plan("//person/tel").fingerprint
    True
    """
    if isinstance(expression, QueryPlan):
        return expression
    if isinstance(expression, str):
        return QueryPlan(expression, compile_xpath(expression))
    if isinstance(expression, XPathNode):
        return QueryPlan(None, expression)
    raise QueryError(
        f"cannot compile {type(expression).__name__} into a query plan"
    )


# -- compile-time validation ---------------------------------------------------

def _validate(ast: XPathNode, scope: frozenset[str], as_nodeset: bool) -> None:
    """Check ``ast`` against the supported subset.

    ``scope`` carries the variables bound by enclosing quantifiers;
    ``as_nodeset`` distinguishes node-selecting positions from predicate
    positions (the sets of legal constructs differ).
    """
    if isinstance(ast, Path):
        if ast.base is not None:
            _validate(ast.base, scope, as_nodeset=True)
        for step in ast.steps:
            if step.axis not in AXES:
                raise QueryError(
                    f"unsupported axis {step.axis!r} over probabilistic XML"
                )
            for predicate in step.predicates:
                _validate_predicate(predicate, scope)
        return
    if isinstance(ast, UnionExpr):
        _validate(ast.left, scope, as_nodeset=True)
        _validate(ast.right, scope, as_nodeset=True)
        return
    if isinstance(ast, VarRef):
        if ast.name not in scope:
            raise QueryError(f"unbound variable ${ast.name}")
        return
    if as_nodeset:
        raise QueryError(
            f"expression does not select nodes: {type(ast).__name__}"
        )
    _validate_predicate(ast, scope)


def _validate_predicate(ast: XPathNode, scope: frozenset[str]) -> None:
    if isinstance(ast, (Path, UnionExpr, VarRef)):
        _validate(ast, scope, as_nodeset=True)
        return
    if isinstance(ast, Literal):
        return
    if isinstance(ast, Number):
        raise QueryError(
            "positional predicates have no possible-worlds semantics here"
        )
    if isinstance(ast, Negate):
        raise QueryError("arithmetic is not supported in probabilistic queries")
    if isinstance(ast, BinaryOp):
        if ast.op in ("and", "or"):
            _validate_predicate(ast.left, scope)
            _validate_predicate(ast.right, scope)
            return
        if ast.op in SUPPORTED_COMPARISONS:
            _validate_operand(ast.left, scope)
            _validate_operand(ast.right, scope)
            return
        raise QueryError(
            f"operator {ast.op!r} is not supported in probabilistic queries"
        )
    if isinstance(ast, FunctionCall):
        if ast.name not in SUPPORTED_FUNCTIONS:
            raise QueryError(
                f"function {ast.name}() is not supported in probabilistic queries"
            )
        if ast.name == "not":
            if len(ast.args) != 1:
                raise QueryError("not() takes exactly one argument")
            _validate_predicate(ast.args[0], scope)
        elif ast.name in ("true", "false"):
            if ast.args:
                raise QueryError(f"{ast.name}() takes no arguments")
        else:
            if len(ast.args) != 2:
                raise QueryError(f"{ast.name}() takes exactly two arguments")
            for arg in ast.args:
                _validate_operand(arg, scope)
        return
    if isinstance(ast, Quantified):
        if ast.kind not in ("some", "every"):
            raise QueryError(f"unknown quantifier {ast.kind!r}")
        _validate(ast.sequence, scope, as_nodeset=True)
        _validate_predicate(ast.condition, scope | {ast.variable})
        return
    raise QueryError(f"unsupported predicate {type(ast).__name__}")


def _validate_operand(ast: XPathNode, scope: frozenset[str]) -> None:
    if isinstance(ast, (Literal, Number)):
        return
    if isinstance(ast, (Path, UnionExpr, VarRef)):
        _validate(ast, scope, as_nodeset=True)
        return
    raise QueryError(f"unsupported comparison operand {type(ast).__name__}")


# -- anchors -------------------------------------------------------------------

#: Axes that never leave the context node's subtree.
_LOCAL_AXES = frozenset({AXIS_CHILD, AXIS_DESCENDANT, AXIS_SELF, AXIS_ATTRIBUTE})


def _anchor_of(ast: XPathNode) -> Optional[Anchor]:
    """The :class:`Anchor` of ``ast``, or ``None`` when it is not anchored."""
    if not isinstance(ast, Path) or ast.base is not None:
        return None
    descendant: list[bool] = []
    names: list[Optional[str]] = []
    for step in ast.steps:
        test = step.test
        if step.axis not in (AXIS_CHILD, AXIS_DESCENDANT) or not isinstance(
            test, NameTest
        ):
            break
        descendant.append(step.axis == AXIS_DESCENDANT)
        names.append(None if test.is_wildcard else test.name)
        if step.predicates:
            break
    if not names:
        return None
    anchor = ast.steps[len(names) - 1]
    later = ast.steps[len(names):]
    local: Optional[Path] = None
    if anchor.predicates or later:
        local = Path((Step(AXIS_SELF, NodeTest(), anchor.predicates), *later))
        if not _is_local(local, frozenset()):
            return None
    return Anchor(tuple(descendant), tuple(names), local)


def _is_local(ast: XPathNode, scope: frozenset[str]) -> bool:
    """Whether ``ast``, evaluated at an element, reads only that element's
    subtree: local axes, relative paths, and variables from ``scope`` —
    the quantifiers of the predicate being checked (each step predicate
    starts a fresh scope)."""
    if isinstance(ast, Path):
        if ast.absolute or (
            ast.base is not None and not _is_local(ast.base, scope)
        ):
            return False
        return all(
            step.axis in _LOCAL_AXES
            and all(_is_local(p, frozenset()) for p in step.predicates)
            for step in ast.steps
        )
    if isinstance(ast, VarRef):
        return ast.name in scope
    if isinstance(ast, (Literal, Number)):
        return True
    if isinstance(ast, (UnionExpr, BinaryOp)):
        return _is_local(ast.left, scope) and _is_local(ast.right, scope)
    if isinstance(ast, FunctionCall):
        return all(_is_local(arg, scope) for arg in ast.args)
    if isinstance(ast, Quantified):
        return _is_local(ast.sequence, scope) and _is_local(
            ast.condition, scope | {ast.variable}
        )
    return False


# -- step collection -----------------------------------------------------------

def _collect_steps(ast: XPathNode, into: dict[Step, StepPlan]) -> None:
    if isinstance(ast, Path):
        if ast.base is not None:
            _collect_steps(ast.base, into)
        for step in ast.steps:
            if step not in into:
                into[step] = StepPlan.resolve(step)
            for predicate in step.predicates:
                _collect_steps(predicate, into)
    elif isinstance(ast, UnionExpr):
        _collect_steps(ast.left, into)
        _collect_steps(ast.right, into)
    elif isinstance(ast, BinaryOp):
        _collect_steps(ast.left, into)
        _collect_steps(ast.right, into)
    elif isinstance(ast, FunctionCall):
        for arg in ast.args:
            _collect_steps(arg, into)
    elif isinstance(ast, Negate):
        _collect_steps(ast.operand, into)
    elif isinstance(ast, Quantified):
        _collect_steps(ast.sequence, into)
        _collect_steps(ast.condition, into)


# -- fingerprints --------------------------------------------------------------

def _fingerprint(ast: XPathNode) -> tuple[object, ...]:
    """A canonical, hashable form of the AST's static structure.

    Stable across process runs for string-compiled queries (it contains
    only axis names, test names, operators, literals and shapes), so it
    doubles as a persistent cache key."""
    if isinstance(ast, Path):
        return (
            "path",
            ast.absolute,
            _fingerprint(ast.base) if ast.base is not None else None,
            tuple(
                (
                    "step",
                    step.axis,
                    _test_fingerprint(step.test),
                    tuple(_fingerprint(p) for p in step.predicates),
                )
                for step in ast.steps
            ),
        )
    if isinstance(ast, UnionExpr):
        return ("union", _fingerprint(ast.left), _fingerprint(ast.right))
    if isinstance(ast, VarRef):
        return ("var", ast.name)
    if isinstance(ast, Literal):
        return ("lit", ast.value)
    if isinstance(ast, Number):
        return ("num", ast.value)
    if isinstance(ast, BinaryOp):
        return ("op", ast.op, _fingerprint(ast.left), _fingerprint(ast.right))
    if isinstance(ast, Negate):
        return ("neg", _fingerprint(ast.operand))
    if isinstance(ast, FunctionCall):
        return ("fn", ast.name, tuple(_fingerprint(a) for a in ast.args))
    if isinstance(ast, Quantified):
        return (
            "quant",
            ast.kind,
            ast.variable,
            _fingerprint(ast.sequence),
            _fingerprint(ast.condition),
        )
    raise QueryError(f"cannot fingerprint {type(ast).__name__}")


def _encode_fingerprint(value: object) -> str:
    """Canonical, unambiguous string encoding of a fingerprint tuple.

    Length-prefixed strings (no escaping ambiguity), explicit type tags,
    ``repr`` for numbers (exact for floats in Python ≥3.1).  Only the
    types that :func:`_fingerprint` can emit are accepted — anything else
    is a programming error, surfaced loudly rather than hashed lossily.
    """
    if value is None:
        return "N"
    if value is True:
        return "T"
    if value is False:
        return "F"
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, int):
        return f"i{value!r}"
    if isinstance(value, tuple):
        return "(" + ",".join(_encode_fingerprint(item) for item in value) + ")"
    raise QueryError(
        f"cannot encode fingerprint component {type(value).__name__}"
    )


def _test_fingerprint(test: object) -> tuple[object, ...]:
    if isinstance(test, NameTest):
        return ("name", test.name)
    if isinstance(test, TextTest):
        return ("text",)
    if isinstance(test, NodeTest):
        return ("node",)
    raise QueryError(f"unknown node test {test!r}")
