"""Exception hierarchy for the IMPrECISE reproduction.

Every error raised by this library derives from :class:`ImpreciseError`, so
callers can catch library failures with a single ``except`` clause while the
subclasses keep failure modes distinguishable (parse errors vs. semantic
model violations vs. combinatorial explosion guards).
"""

from __future__ import annotations


class ImpreciseError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class XMLParseError(ImpreciseError):
    """Raised when XML text cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending input
    position so callers can point users at the problem.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class DTDError(ImpreciseError):
    """Raised for malformed DTD declarations."""


class DTDViolation(ImpreciseError):
    """Raised (in strict mode) when a document violates its DTD."""


class XPathSyntaxError(ImpreciseError):
    """Raised when an XPath expression cannot be parsed."""

    def __init__(self, message: str, position: int = -1, text: str = ""):
        pointer = ""
        if position >= 0 and text:
            pointer = f" at offset {position} in {text!r}"
        super().__init__(f"{message}{pointer}")
        self.position = position


class XPathEvaluationError(ImpreciseError):
    """Raised when a syntactically valid XPath cannot be evaluated
    (unknown function, wrong argument types, unsupported feature)."""


class ModelError(ImpreciseError):
    """Raised when a probabilistic XML tree violates the layered model
    invariants (wrong node layering, probabilities outside [0, 1],
    sibling possibilities not summing to 1)."""


class ProbabilityError(ImpreciseError):
    """Raised for invalid probability values or distributions."""


class IntegrationError(ImpreciseError):
    """Base class for integration failures."""


class IntegrationConflict(IntegrationError):
    """Raised when knowledge rules force contradictory decisions, e.g. two
    certain matches that would pair one element with two partners."""


class ExplosionError(IntegrationError):
    """Raised when integration would enumerate more possibilities than the
    configured budget allows.

    The paper's whole point is that unchecked integration explodes
    (Figure 5); this guard turns the explosion into a diagnosable error
    that names the offending element and the possibility count, instead of
    an out-of-memory crash.
    """

    def __init__(self, message: str, estimated: int | None = None):
        super().__init__(message)
        self.estimated = estimated


class QueryError(ImpreciseError):
    """Raised when a query cannot be answered over a probabilistic tree
    (e.g. a feature with no possible-worlds compilation)."""


class FeedbackError(ImpreciseError):
    """Raised when user feedback cannot be applied, e.g. conditioning on an
    impossible (probability zero) event."""


class StoreError(ImpreciseError):
    """Raised by the document store for invalid names or I/O issues."""


class MissingDocumentError(StoreError):
    """Raised when a named document does not exist in the store.

    A distinct type (not a message) so callers — the HTTP front maps it
    to 404 where other store errors are 400 — can classify without
    string matching."""


class CacheBusyError(StoreError):
    """Raised when the persistent answer cache cannot acquire its SQLite
    write lock within the configured budget (``busy_timeout`` plus the
    bounded in-library retries).

    This is the *typed* surface of ``sqlite3.OperationalError: database
    is locked`` for multi-process deployments sharing one ``--cache-dir``
    — callers never see the raw driver exception, and the HTTP front can
    map sustained contention to a retryable condition instead of a 500.
    Retrying later is always safe: the cache is a cache, and the write
    that lost the race will simply be recomputed or re-stored."""


class DeadlineExceededError(ImpreciseError):
    """Raised when a request's end-to-end ``deadline_ms`` budget expires
    before evaluation finishes.

    A distinct type so every layer can classify without string matching:
    the engine and the probability kernel raise it from their
    checkpoints, the service fan-out raises it when a document runs out
    of budget (unless the caller opted into a partial fused answer), the
    HTTP front maps it to 504 Gateway Timeout, and
    :class:`~repro.server.client.DataspaceClient` re-raises the 504 as
    this same type.  Deadline expiry is a property
    of the *request*, never of the data — retrying with a larger budget
    is always safe and always exact."""


class WireFormatError(ImpreciseError):
    """Raised when a serialized payload (persistent-cache row, HTTP
    request/response body) does not decode to the exact-Fraction wire
    format — malformed fraction strings, wrong shapes, wrong types."""
