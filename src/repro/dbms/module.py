"""The "IMPrECISE module": the paper's Figure 4 middle/top layers.

One façade object that applications talk to: load documents, integrate
them (producing stored probabilistic documents), query with ranked
answers, inspect uncertainty statistics, and apply user feedback — the
full demo workflow of §VII, minus the GUI.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..core.engine import (
    IntegrationConfig,
    IntegrationReport,
    Integrator,
)
from ..core.oracle import Oracle
from ..core.rules import Rule
from ..errors import StoreError
from ..feedback.conditioning import FeedbackSession, FeedbackStep
from ..pxml.build import certain_document
from ..pxml.model import PXDocument
from ..pxml.stats import NodeStats, tree_stats
from ..pxml.worlds import World, iter_worlds
from ..query.engine import ProbQueryEngine
from ..query.ranking import RankedAnswer
from ..xmlkit.dtd import DTD
from ..xmlkit.nodes import XDocument
from ..xmlkit.parser import parse_document
from .store import DocumentStore


class ImpreciseModule:
    """Probabilistic XML functionality over a document store.

    >>> module = ImpreciseModule()
    >>> module.load("a", "<r><x>1</x></r>")
    >>> module.load("b", "<r><x>1</x></r>")
    >>> from repro.core.rules import DeepEqualRule, LeafValueRule
    >>> report = module.integrate("a", "b", "ab",
    ...                           rules=[DeepEqualRule(), LeafValueRule()])
    >>> module.stats("ab").world_count
    1
    """

    def __init__(self, store: Optional[DocumentStore] = None):
        self.store = store if store is not None else DocumentStore()

    # -- loading ------------------------------------------------------------

    def load(self, name: str, xml_text: str) -> None:
        """Parse and store a plain XML source document."""
        self.store.put(name, parse_document(xml_text))

    def load_document(self, name: str, document: Union[XDocument, PXDocument]) -> None:
        """Store an already-built (plain or probabilistic) document."""
        self.store.put(name, document)

    def _plain(self, name: str) -> XDocument:
        document = self.store.get(name)
        if not isinstance(document, XDocument):
            raise StoreError(f"{name!r} is probabilistic; integration needs sources")
        return document

    def probabilistic(self, name: str) -> PXDocument:
        """The stored document as a :class:`PXDocument` — plain documents
        are wrapped as certain (single-world) probabilistic ones, so every
        stored name can be queried probabilistically."""
        document = self.store.get(name)
        if isinstance(document, PXDocument):
            return document
        # Querying a plain document works through its certain wrapper.
        return certain_document(document)

    # -- integration -----------------------------------------------------------

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
        document; returns the integration report."""
        config = IntegrationConfig(
            oracle=oracle if oracle is not None else Oracle(list(rules)),
            dtd=dtd,
            factor_components=factor_components,
            max_possibilities=max_possibilities,
        )
        result = Integrator(config).integrate(self._plain(name_a), self._plain(name_b))
        self.store.put(output, result.document)
        return result.report

    # -- querying ---------------------------------------------------------------

    def query(self, name: str, xpath: str) -> RankedAnswer:
        """Ranked probabilistic answer of an XPath query."""
        return ProbQueryEngine(self.probabilistic(name)).query(xpath)

    def stats(self, name: str) -> NodeStats:
        """Uncertainty census of a stored document."""
        return tree_stats(self.probabilistic(name))

    def worlds(self, name: str, *, limit: Optional[int] = 1000) -> list[World]:
        """Enumerate the possible worlds of a stored document."""
        return list(iter_worlds(self.probabilistic(name), limit=limit))

    # -- feedback ------------------------------------------------------------------

    def feedback(
        self, name: str, xpath: str, value: str, *, correct: bool = True
    ) -> FeedbackStep:
        """Apply one piece of answer feedback and persist the posterior."""
        session = FeedbackSession(self.probabilistic(name))
        step = session.confirm(xpath, value) if correct else session.reject(xpath, value)
        self.store.put(name, session.document)
        return step
