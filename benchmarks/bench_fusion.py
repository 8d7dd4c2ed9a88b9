"""Fan-out fusion benchmark: warm fused serving vs the cold fan-out.

The cold service fans one query plan across a 12-document dataspace —
every per-document answer is a real engine run — and persists each row
as it prices it.  The warm service is a *fresh* :class:`DataspaceService`
over the same store and cache directories (the restart shape) and must
serve the entire fan-out from the persisted per-document rows: exact
Fractions, no engine, no materialized document — only the fusion
arithmetic itself runs.

Acceptance (ISSUE 7):

* warm fan-out ≥ 5× faster than cold (per fan-out), Fraction-identical
  fused results — scores, membership order and per-document provenance
  — under *both* strategies, served without building an engine;
* the fused results round-trip exactly over the ``"num/den"`` wire
  format (encode → JSON → decode is the identity).

The warm leg also splits a fan-out into the layers it crosses and
records each one's per-fan-out median in ``BENCH_fusion.json``: the
12 persisted row hits, ``fuse_answers`` over them, and the wire round
trip of the fused result (encode → JSON → decode).
"""

import json
import os
import statistics
import time

from repro.core.rules import DeepEqualRule, LeafValueRule
from repro.data.addressbook import ADDRESSBOOK_DTD, addressbook_documents
from repro.dbms.service import DataspaceService
from repro.query.fusion import fuse_answers
from repro.query.plan import compile_plan
from repro.server.wire import decode_fused_answer, encode_fused_answer

from .conftest import format_table, write_bench_json, write_result

#: Acceptance floor for warm (persisted per-document rows) vs cold
#: (engine runs per document).  Locally the measured ratio is far above
#: 5×; CI shared runners set a lower sanity floor via this env var
#: rather than flaking on scheduler noise.
FUSION_SPEEDUP_FLOOR = float(os.environ.get("BENCH_FUSION_SPEEDUP_FLOOR", "5"))

#: Repetitions of the fan-out workload per warm timing run.
ROUNDS = 10

#: Documents in the dataspace: ``PAIRS`` integrated addressbook variants
#: (each an uncertain merge with its own conflicts) plus their 2·PAIRS
#: certain source books — 12 documents fanned per query.
PAIRS = 4

#: (expression, strategy) — both fusion strategies over the same plans,
#: so the strategy-independent per-document rows are shared.
WORKLOAD = [
    ("//person/tel", "prob"),
    ("//person/tel", "rrf"),
    ("//person/nm", "prob"),
    ("//person/nm", "rrf"),
]

PERSONS = 4  # per source book


def _populate(store_dir, cache_dir):
    """Build the 12-document dataspace: PAIRS integrated variants, each
    from its own pair of source books (distinct names/phones so every
    document ranks differently)."""
    rules = [DeepEqualRule(), LeafValueRule()]
    with DataspaceService(directory=store_dir, cache_dir=cache_dir) as service:
        for pair in range(PAIRS):
            entries_a = [(f"p{pair}{i}", f"1{pair}{i}") for i in range(PERSONS)]
            entries_b = [(f"p{pair}{i}", f"2{pair}{i}") for i in range(PERSONS)]
            book_a, book_b = addressbook_documents(entries_a, entries_b)
            service.load_document(f"src{pair}a", book_a)
            service.load_document(f"src{pair}b", book_b)
            service.integrate(
                f"src{pair}a", f"src{pair}b", f"merged{pair}",
                rules=rules, dtd=ADDRESSBOOK_DTD,
            )
        document_count = len(service.store.list())
    return document_count


def _run_workload(service, rounds):
    fused = []
    for _ in range(rounds):
        fused.append(
            [
                service.query_all(expression, strategy=strategy)
                for expression, strategy in WORKLOAD
            ]
        )
    return fused


def _warm_layers(service, rounds, expected):
    """Per-fan-out medians (seconds) of the layers a warm fan-out
    crosses, timed one after another as ``query_all`` runs them: the
    per-document row hits, ``fuse_answers``, and the fused result's
    wire round trip.  Each fused result must equal ``expected``'s."""
    names = service.store.list()
    samples = {"row_hits": [], "fuse_answers": [], "wire_round_trip": []}
    for _ in range(rounds):
        for (expression, strategy), reference in zip(WORKLOAD, expected):
            plan = compile_plan(expression)
            start = time.perf_counter()
            answers = {name: service.query(name, plan) for name in names}
            hits_done = time.perf_counter()
            fused = fuse_answers(answers, strategy=strategy)
            fused_done = time.perf_counter()
            decoded = decode_fused_answer(
                json.loads(json.dumps(encode_fused_answer(fused)))
            )
            end = time.perf_counter()
            assert fused == reference and decoded == reference
            samples["row_hits"].append(hits_done - start)
            samples["fuse_answers"].append(fused_done - hits_done)
            samples["wire_round_trip"].append(end - fused_done)
    return {layer: statistics.median(times) for layer, times in samples.items()}


def test_warm_fan_out_vs_cold(tmp_path):
    """Acceptance: a restarted service serves the fan-out workload ≥ 5×
    faster (per fan-out) from the persisted per-document rows than the
    cold service that priced it, Fraction-identical under both fusion
    strategies, without ever building an engine."""
    store_dir, cache_dir = tmp_path / "store", tmp_path / "cache"
    document_count = _populate(store_dir, cache_dir)

    # Cold: a fresh cache — the first fan-out of each plan runs one
    # engine per document; the second strategy of the same plan already
    # hits the rows the first stored (strategy is not in the cache key).
    with DataspaceService(directory=store_dir, cache_dir=cache_dir) as cold:
        start = time.perf_counter()
        cold_fused = _run_workload(cold, 1)
        cold_time = time.perf_counter() - start
        cold_stats = cold.cache_stats()
    cold_per_op = cold_time / len(WORKLOAD)

    with DataspaceService(directory=store_dir, cache_dir=cache_dir) as warm:
        start = time.perf_counter()
        warm_fused = _run_workload(warm, ROUNDS)
        warm_time = time.perf_counter() - start
        warm_stats = warm.cache_stats()
        layers = _warm_layers(warm, ROUNDS, cold_fused[0])
    warm_per_op = warm_time / (ROUNDS * len(WORKLOAD))

    # Exact agreement: strategy, scores, membership order, weights and
    # provenance triples (FusedAnswer dataclass equality), every round.
    assert all(round_ == cold_fused[0] for round_ in warm_fused)
    for fused in cold_fused[0]:
        assert fused.documents == tuple(sorted(fused.documents))
        assert len(fused.documents) == document_count
    # The warm service never built an engine: pure persistent hits.
    assert warm_stats["engines"] == 0
    plans = len({expression for expression, _ in WORKLOAD})
    assert warm_stats["persistent_hits"] == (
        ROUNDS * len(WORKLOAD) * document_count
    )
    assert cold_stats["persistent_stored"] == plans * document_count
    assert warm_stats["persistent_stored"] == 0

    # The wire format is lossless on every fused result in the workload.
    for fused in cold_fused[0]:
        encoded = json.loads(json.dumps(encode_fused_answer(fused)))
        assert decode_fused_answer(encoded) == fused

    speedup = cold_per_op / warm_per_op if warm_per_op else float("inf")
    write_result(
        "fusion",
        f"Dataspace fan-out — cold pricing vs warm restart"
        f" ({len(WORKLOAD)} fan-outs × {document_count} documents;"
        f" warm × {ROUNDS} rounds)\n"
        + format_table(
            ["mode", "total time", "per fan-out", "speedup"],
            [
                ["cold (engine per document)", f"{cold_time * 1e3:8.1f} ms",
                 f"{cold_per_op * 1e3:6.2f} ms", "1.0×"],
                ["warm (persisted rows)", f"{warm_time * 1e3:8.1f} ms",
                 f"{warm_per_op * 1e3:6.2f} ms", f"{speedup:.1f}×"],
            ],
        )
        + "\nwarm fan-out by layer (median per fan-out): "
        + ", ".join(f"{layer} {seconds * 1e3:.3f} ms" for layer, seconds in layers.items())
        + f"\ncold stats: {cold_stats}\nwarm stats: {warm_stats}",
    )
    write_bench_json(
        "fusion",
        {
            "workload": "warm_fan_out_rows_vs_cold_pricing",
            "fan_outs": len(WORKLOAD),
            "documents": document_count,
            "rounds": ROUNDS,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "cold_per_fan_out_seconds": cold_per_op,
            "warm_per_fan_out_seconds": warm_per_op,
            "warm_layer_median_seconds": layers,
            "speedup": speedup,
            "floor": FUSION_SPEEDUP_FLOOR,
            "cold_stats": cold_stats,
            "warm_stats": warm_stats,
        },
    )
    assert speedup >= FUSION_SPEEDUP_FLOOR, (
        f"warm fan-out speedup {speedup:.1f}× below the"
        f" {FUSION_SPEEDUP_FLOOR}× acceptance floor"
        f" (cold {cold_time:.3f}s vs warm {warm_time:.3f}s)"
    )
