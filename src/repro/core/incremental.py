"""Incremental (multi-source) integration — the dataspace workflow.

The paper's vision (§I, and the DSSP alignment) is that sources arrive
over time: integrate, use, integrate the next source into the *uncertain*
result.  Exact sequential integration would require merging a new plain
source into every possible world; this module implements that semantics
with an explicit, principled budget:

1. the current probabilistic document is decomposed into its most
   probable distinct worlds (up to ``world_budget``; the retained mass is
   reported and the distribution renormalised — an *approximation* the
   caller sees in :class:`IncrementalReport`);
2. the new source is integrated into each retained world with the
   ordinary pairwise engine;
3. the per-world results are recombined into one probabilistic document
   (a mixture weighted by the world posteriors) and compacted.

With ``world_budget`` ≥ the world count, the procedure is exact.  User
feedback between steps keeps the world count small — which is precisely
the paper's "incrementally improving the integration" loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..errors import IntegrationError
from ..probability import ONE, ZERO
from ..pxml.build import certain_document
from ..pxml.model import PXDocument, Possibility, ProbNode
from ..pxml.simplify import simplify
from ..pxml.worlds import distinct_worlds
from ..xmlkit.nodes import XDocument
from .engine import IntegrationConfig, Integrator


@dataclass
class IncrementalReport:
    """What one incremental step did."""

    worlds_considered: int
    worlds_retained: int
    retained_mass: Fraction
    undecided_pairs: int
    nodes_after: int

    @property
    def is_exact(self) -> bool:
        return self.retained_mass == ONE

    def summary(self) -> str:
        exactness = "exact" if self.is_exact else (
            f"approximate (retained {float(self.retained_mass):.4f} mass)"
        )
        return (
            f"{self.worlds_retained}/{self.worlds_considered} worlds,"
            f" {self.undecided_pairs} new undecided pairs,"
            f" {self.nodes_after:,} nodes — {exactness}"
        )


@dataclass
class IncrementalIntegrator:
    """Folds a stream of sources into one probabilistic document.

    >>> # see tests/test_incremental.py and examples for usage
    """

    config: IntegrationConfig
    world_budget: int = 64
    document: Optional[PXDocument] = None
    history: list[IncrementalReport] = field(default_factory=list)

    def add_source(self, source: XDocument) -> IncrementalReport:
        """Integrate one more plain source into the running document."""
        if self.world_budget <= 0:
            raise IntegrationError("world budget must be positive")
        if self.document is None:
            self.document = certain_document(source)
            report = IncrementalReport(1, 1, ONE, 0, self.document.node_count())
            self.history.append(report)
            return report

        worlds = distinct_worlds(self.document, limit=None)
        considered = len(worlds)
        retained = worlds[: self.world_budget]
        mass = sum((prob for _, prob in retained), ZERO)
        if mass == 0:
            raise IntegrationError("no probability mass to integrate into")

        mixture = ProbNode()
        undecided = 0
        for world_doc, prob in retained:
            result = Integrator(self.config).integrate(world_doc, source)
            undecided += result.report.undecided_pairs
            weight = prob / mass
            for possibility in result.document.root.possibilities:
                mixture.append(
                    Possibility(weight * possibility.prob, possibility.children)
                )
        document, _ = simplify(PXDocument(mixture))
        # The superseded document's cache dies with it (weak registry);
        # the replacement starts with a fresh, empty cache.
        self.document = document
        report = IncrementalReport(
            worlds_considered=considered,
            worlds_retained=len(retained),
            retained_mass=mass,
            undecided_pairs=undecided,
            nodes_after=document.node_count(),
        )
        self.history.append(report)
        return report


def integrate_many(
    sources: Sequence[XDocument],
    config: IntegrationConfig,
    *,
    world_budget: int = 64,
) -> tuple[PXDocument, list[IncrementalReport]]:
    """Fold ``sources`` left-to-right into one probabilistic document.

    Raises :class:`IntegrationError` on an empty source list.
    """
    if not sources:
        raise IntegrationError("need at least one source")
    integrator = IncrementalIntegrator(config=config, world_budget=world_budget)
    for source in sources:
        integrator.add_source(source)
    assert integrator.document is not None
    return integrator.document, integrator.history
