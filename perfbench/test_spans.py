"""Span arithmetic, the cross-process join and the metric-name grammar."""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import run, spans

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def span(sid, start, end, parent=None, op=0, thread=1, name="layer"):
    return [sid, name, start, end, parent, op, thread, "f", None]


def test_nested_spans_subtract_their_children():
    own = spans.self_times([
        span(1, 0, 100),
        span(2, 10, 60, parent=1),
        span(3, 20, 30, parent=2),
        span(4, 70, 80, parent=1),
    ])
    assert own == {1: 40, 2: 40, 3: 10, 4: 10}


def test_overlapping_pool_children_split_the_overlap():
    # Two children of one parent on two pool threads overlap in [30, 50);
    # the parent keeps only the time no child covers, and the overlap is
    # split so the self times add up to the parent's wall time.
    own = spans.self_times([
        span(1, 0, 100),
        span(2, 10, 50, parent=1, thread=2),
        span(3, 30, 70, parent=1, thread=3),
    ])
    assert own == {1: 40, 2: 30, 3: 30}
    assert sum(own.values()) == 100


def test_children_are_clipped_to_their_parent():
    own = spans.self_times([span(1, 0, 10), span(2, 5, 20, parent=1)])
    assert own == {1: 5, 2: 5}


def test_pool_threads_are_adopted_by_the_hand_off_span():
    recorder = spans.Recorder()
    leaf = recorder.wrap("leaf", lambda: threading.get_ident())
    with ThreadPoolExecutor(max_workers=2) as pool:
        fan_out = recorder.wrap(
            "fan", lambda: [f.result() for f in
                            [pool.submit(leaf) for _ in range(4)]],
            adopter=True)
        recorder.op = 7
        with recorder.span(spans.OP):
            fan_out()
    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record[1], []).append(record)
    (op,), (fan,) = by_name[spans.OP], by_name["fan"]
    assert fan[4] == op[0]
    assert all(record[4] == fan[0] for record in by_name["leaf"])
    assert {record[5] for record in recorder.spans} == {7}
    totals = spans.Totals(recorder.spans)
    assert totals.ops == 1 and totals.calls["leaf"] == 4
    # Self times reconcile with the op's latency: nothing counts twice.
    assert totals.uncovered_ns >= 0
    assert sum(totals.self_ns.values()) + totals.uncovered_ns == pytest.approx(
        totals.op_ns)


def test_remote_spans_join_the_request_that_contains_them():
    local = [span(1, 0, 100, name=spans.OP, op=3),
             span(2, 10, 90, parent=1, op=3, name="server.http")]
    remote = [span(1, 20, 80, op=None, name="server.app"),
              span(2, 30, 40, parent=1, op=None, name="dbms.service"),
              span(3, 200, 300, op=None, name="server.app")]
    joined = spans.attach_remote(local, remote)
    assert [(s[1], s[4], s[5]) for s in joined[2:]] == [
        ("server.app", 2, 3), ("dbms.service", 3, 3)]
    totals = spans.Totals(joined)
    assert totals.self_ns == {"server.http": 20, "server.app": 50,
                              "dbms.service": 10}


def test_metric_names_follow_the_grammar():
    for name in ("p50_ms", "dbms.cache_store.hit_ratio", "9lives", "a-b.c"):
        assert spans.NAME_RE.match(name)
    for name in ("", "_leading", ".dot", "has space", "x" * 65, "semi;colon"):
        assert not spans.NAME_RE.match(name)


def test_benchmark_json_declares_what_the_runs_report():
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"]]
    names += [m["name"] for m in declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(spans.NAME_RE.match(name) for name in names)
    assert {w["name"] for w in declared["workloads"]} == {
        "cold", "warm", "churn"}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        spans.PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT_RE.match(metric["unit"])
