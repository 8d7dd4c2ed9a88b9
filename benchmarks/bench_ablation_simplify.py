"""Ablation A3: compaction of integration outputs.

Times :func:`repro.pxml.simplify.simplify`, the one compaction pass, and
measures how much it shrinks real integration results (duplicate
possibilities, factorable common content), and that the distribution
over worlds is untouched.
"""

import pytest

from repro.core.engine import Integrator
from repro.experiments import movie_config, section6_sources, table1_sources
from repro.pxml.simplify import simplify
from repro.pxml.worlds import world_count

from .conftest import format_table, write_result

WORKLOADS = {
    "table1 full rules (joint)": (
        table1_sources, ("genre", "title", "year"), False
    ),
    "table1 title rule (joint)": (table1_sources, ("title",), False),
    "section6 (factored)": (section6_sources, ("genre", "title"), True),
}

_rows: list[list[str]] = []


@pytest.mark.parametrize("label", list(WORKLOADS), ids=list(WORKLOADS))
def test_simplify_ablation(benchmark, label):
    sources_fn, rule_names, factored = WORKLOADS[label]
    source_a, source_b = sources_fn()
    config = movie_config(*rule_names, factor_components=factored,
                          max_possibilities=50_000)
    document = Integrator(config).integrate(source_a, source_b).document

    simplified, report = benchmark(simplify, document)

    assert world_count(simplified) <= world_count(document)
    assert simplified.node_count() <= document.node_count()
    _rows.append(
        [
            label,
            f"{report.nodes_before:,}",
            f"{report.nodes_after:,}",
            str(report.duplicates_merged),
            str(report.common_factored),
        ]
    )
    if len(_rows) == len(WORKLOADS):
        write_result(
            "ablation_simplify",
            "Ablation A3 — compaction of integration outputs\n"
            + format_table(
                ["workload", "nodes before", "nodes after",
                 "duplicates merged", "common factored"],
                _rows,
            ),
        )
