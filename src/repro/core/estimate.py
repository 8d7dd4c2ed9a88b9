"""Exact size accounting of an integration result *without* building it.

Figure 5 of the paper plots integration results up to ~10⁹ nodes; no
interpreter materialises such a tree.  This estimator mirrors the engine's
construction arithmetic exactly:

* a merged pair's node and world counts follow ``Integrator.merge_pair``
  step by step, without building the pair;
* the combinatorial part — how many matchings exist, in how many of them a
  given pair is matched, in how many a given element stays unmatched — is
  computed by the counting DP of :mod:`repro.core.matching`;
* node totals follow from linearity:
  ``Σ_M size(M) = count·overhead + Σ_pairs size(pair)·count_with(pair)
  + Σ_elements size(element)·count_unmatched(element)``.

The test suite checks ``estimate_integration(...) ==`` the materialised
``node_count`` / ``world_count`` on every configuration small enough to
build, for both representation strategies; beyond that the formulas are
the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import IntegrationError
from ..pxml.build import certain_element
from ..xmlkit.nodes import XDocument, XElement, XText
from .engine import (
    IntegrationConfig,
    Integrator,
    SequenceAnalysis,
    _grouped_children,
    _leaf_text,
    analyze_sequences,
)
from .matching import (
    Component,
    count_matchings,
    count_matchings_containing,
    count_matchings_weighted,
    matched_count_by_element,
)
from .rules import MatchContext


@dataclass
class GroupEstimate:
    """Diagnostics for one uncertain sibling group."""

    parent_tag: str
    tag: str
    components: int
    joint_matchings: int          # Π over components (the joint possibility count)
    largest_component_matchings: int


@dataclass
class SizeEstimate:
    """Exact size of the would-be integration result."""

    total_nodes: int
    world_count: int
    groups: list[GroupEstimate] = field(default_factory=list)

    @property
    def possibility_count(self) -> int:
        """Joint matchings of the largest group (headline choice size)."""
        if not self.groups:
            return 1
        return max(group.joint_matchings for group in self.groups)


class _Estimator:
    def __init__(self, config: IntegrationConfig):
        self.config = config
        # A throwaway integrator reconciles leaf conflicts exactly as the
        # engine would, so the estimate cannot drift from its construction.
        self._integrator = Integrator(config)
        self.groups: list[GroupEstimate] = []

    # node/world counts of a certain (unmatched) element
    def certain_size(self, element: XElement) -> int:
        return certain_element(element).node_count()

    # -- element level ------------------------------------------------------

    def element(self, a: XElement, b: XElement, depth: int) -> tuple[int, int]:
        """(nodes, worlds) of the merged element — mirrors
        ``Integrator.merge_pair``."""
        text_a, text_b = _leaf_text(a), _leaf_text(b)
        if text_a is not None and text_b is not None:
            if text_a == text_b:
                return (4, 1) if text_a else (1, 1)
            if not text_a or not text_b:
                return 4, 1
            if self._integrator.reconcile_text(a.tag, text_a, text_b) is not None:
                return 4, 1
            return 6, 2

        nodes = 1
        worlds = 1
        groups_a = _grouped_children(a)
        groups_b = _grouped_children(b)
        tags = list(groups_a)
        tags.extend(tag for tag in groups_b if tag not in groups_a)
        for tag in tags:
            group_nodes, group_worlds = self.group(
                a.tag, tag, groups_a.get(tag, []), groups_b.get(tag, []), depth
            )
            nodes += group_nodes
            worlds *= group_worlds

        stray_a = [
            child.value.strip()
            for child in a.children
            if isinstance(child, XText) and child.value.strip()
        ]
        stray_b = [
            child.value.strip()
            for child in b.children
            if isinstance(child, XText) and child.value.strip()
        ]
        nodes += 3 * len(stray_a)
        nodes += 3 * sum(1 for text in stray_b if text not in stray_a)
        return nodes, worlds

    # -- group level ---------------------------------------------------------

    def group(
        self,
        parent_tag: str,
        tag: str,
        elements_a: list[XElement],
        elements_b: list[XElement],
        depth: int,
    ) -> tuple[int, int]:
        if not elements_b:
            return sum(2 + self.certain_size(e) for e in elements_a), 1
        if not elements_a:
            return sum(2 + self.certain_size(e) for e in elements_b), 1

        dtd = self.config.dtd
        if (
            dtd is not None
            and dtd.is_single(parent_tag, tag)
            and len(elements_a) == 1
            and len(elements_b) == 1
        ):
            nodes, worlds = self.element(elements_a[0], elements_b[0], depth + 1)
            return nodes + 2, worlds

        context = MatchContext(
            parent_tag=parent_tag,
            tag=tag,
            dtd=dtd,
            depth=depth,
            source_a=self.config.source_names[0],
            source_b=self.config.source_names[1],
        )
        analysis = analyze_sequences(
            tag, elements_a, elements_b, self.config.oracle, context
        )
        if self.config.factor_components:
            return self._factored(analysis, parent_tag, elements_a, elements_b, depth)
        return self._joint(analysis, parent_tag, elements_a, elements_b, depth)

    def _pair_sizes(
        self,
        analysis: SequenceAnalysis,
        elements_a: list[XElement],
        elements_b: list[XElement],
        depth: int,
    ) -> dict[tuple[int, int], tuple[int, int]]:
        sizes: dict[tuple[int, int], tuple[int, int]] = {}
        for i, j in analysis.certain_pairs:
            sizes[(i, j)] = self.element(elements_a[i], elements_b[j], depth + 1)
        for pair in analysis.problem.pairs:
            sizes[(pair.left, pair.right)] = self.element(
                elements_a[pair.left], elements_b[pair.right], depth + 1
            )
        return sizes

    def _component_sums(
        self,
        component: Component,
        pair_sizes: dict[tuple[int, int], tuple[int, int]],
        cs_left: dict[int, int],
        cs_right: dict[int, int],
    ) -> tuple[int, int, int]:
        """(count, Σ_M content_nodes(M), weighted world count) for one
        component, where content_nodes(M) = Σ merged sizes + Σ unmatched
        certain sizes."""
        count = count_matchings(component)
        content = 0
        for pair in component.pairs:
            with_pair = count_matchings_containing(component, pair)
            content += pair_sizes[(pair.left, pair.right)][0] * with_pair
        matched_left, matched_right = matched_count_by_element(component)
        for i in component.left:
            content += cs_left[i] * (count - matched_left[i])
        for j in component.right:
            content += cs_right[j] * (count - matched_right[j])
        world_weights = {
            (pair.left, pair.right): pair_sizes[(pair.left, pair.right)][1]
            for pair in component.pairs
        }
        worlds = count_matchings_weighted(component, world_weights)
        return count, content, worlds

    def _record_group(
        self, analysis: SequenceAnalysis, parent_tag: str, counts: list[int]
    ) -> None:
        if not analysis.problem.pairs:
            return
        joint = 1
        for count in counts:
            joint *= count
        self.groups.append(
            GroupEstimate(
                parent_tag=parent_tag,
                tag=analysis.tag,
                components=len(counts),
                joint_matchings=joint,
                largest_component_matchings=max(counts),
            )
        )

    def _factored(
        self,
        analysis: SequenceAnalysis,
        parent_tag: str,
        elements_a: list[XElement],
        elements_b: list[XElement],
        depth: int,
    ) -> tuple[int, int]:
        pair_sizes = self._pair_sizes(analysis, elements_a, elements_b, depth)
        cs_left = {i: self.certain_size(e) for i, e in enumerate(elements_a)}
        cs_right = {j: self.certain_size(e) for j, e in enumerate(elements_b)}

        nodes = 0
        worlds = 1
        for i, j in analysis.certain_pairs:
            size, pair_worlds = pair_sizes[(i, j)]
            nodes += 2 + size
            worlds *= pair_worlds
        for i in analysis.free_a:
            nodes += 2 + cs_left[i]
        for j in analysis.free_b:
            nodes += 2 + cs_right[j]

        counts: list[int] = []
        for component in analysis.problem.components():
            count, content, component_worlds = self._component_sums(
                component, pair_sizes, cs_left, cs_right
            )
            counts.append(count)
            nodes += 1 + count + content
            worlds *= component_worlds
        self._record_group(analysis, parent_tag, counts)
        return nodes, worlds

    def _joint(
        self,
        analysis: SequenceAnalysis,
        parent_tag: str,
        elements_a: list[XElement],
        elements_b: list[XElement],
        depth: int,
    ) -> tuple[int, int]:
        pair_sizes = self._pair_sizes(analysis, elements_a, elements_b, depth)
        cs_left = {i: self.certain_size(e) for i, e in enumerate(elements_a)}
        cs_right = {j: self.certain_size(e) for j, e in enumerate(elements_b)}

        base = 0
        base_worlds = 1
        for i, j in analysis.certain_pairs:
            size, pair_worlds = pair_sizes[(i, j)]
            base += size
            base_worlds *= pair_worlds
        base += sum(cs_left[i] for i in analysis.free_a)
        base += sum(cs_right[j] for j in analysis.free_b)

        components = analysis.problem.components()
        counts: list[int] = []
        contents: list[int] = []
        joint_worlds = base_worlds
        for component in components:
            count, content, component_worlds = self._component_sums(
                component, pair_sizes, cs_left, cs_right
            )
            counts.append(count)
            contents.append(content)
            joint_worlds *= component_worlds

        joint_count = 1
        for count in counts:
            joint_count *= count

        # One probability node; each of the joint_count possibilities
        # carries the base children plus its per-component content.
        nodes = 1 + joint_count * (1 + base)
        for count, content in zip(counts, contents):
            nodes += (joint_count // count) * content
        self._record_group(analysis, parent_tag, counts)
        return nodes, joint_worlds


def estimate_integration(
    doc_a: XDocument, doc_b: XDocument, config: IntegrationConfig
) -> SizeEstimate:
    """Exact node and world counts of ``Integrator(config).integrate(doc_a,
    doc_b)`` — without materialising the possibility cross products.

    Matches the engine bit-for-bit on feasible inputs (property-tested);
    unlike the engine it ignores ``max_possibilities`` (estimating an
    explosion is the whole point).
    """
    if doc_a.root.tag != doc_b.root.tag:
        raise IntegrationError(
            f"root tags differ (<{doc_a.root.tag}> vs <{doc_b.root.tag}>);"
            " schema alignment is assumed (§III)"
        )
    estimator = _Estimator(config)
    nodes, worlds = estimator.element(doc_a.root, doc_b.root, 0)
    return SizeEstimate(
        total_nodes=nodes + 2,  # the document's root probability+possibility
        world_count=worlds,
        groups=estimator.groups,
    )
