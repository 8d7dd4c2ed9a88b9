"""Tiny-size runs of every workload: every answer checks out, and the
traced run shows the layer separation each workload was chosen for."""

from __future__ import annotations

import pytest

from perfbench import run, workloads
from perfbench.corpus import Sizes

TINY = Sizes(documents=3, groups=1)
SERVER = ("server.http", "server.app", "server.wire")
PRICING = ("pxml.events", "pxml.events_cache", "pxml.events_compile",
           "query.engine")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return {
        name: workloads.run_workload(
            name, 5, 1.0, True, tmp_path_factory.mktemp(name), TINY)
        for name in ("cold", "warm", "churn")
    }


def calls(outcome, layer):
    return outcome.metrics[f"{layer}.calls"]


@pytest.mark.parametrize("name", ["cold", "warm", "churn"])
def test_every_answer_checks_out(traced, name):
    outcome = traced[name]
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert outcome.summary["error_frac"] == 0


@pytest.mark.parametrize("name", ["cold", "warm", "churn"])
def test_self_times_reconcile_with_op_latency(traced, name):
    outcome = traced[name]
    uncovered = outcome.metrics["trace.uncovered_ms"]
    assert 0 <= uncovered < outcome.summary["mean_ms"] / 10


def test_warm_timed_phase_does_no_pricing(traced):
    warm = traced["warm"]
    assert all(calls(warm, layer) == 0 for layer in PRICING)
    assert all(calls(warm, layer) > 0 for layer in SERVER)
    assert warm.metrics["dbms.cache_store.hit_ratio"] == 1


@pytest.mark.parametrize("name", ["cold", "churn"])
def test_in_process_workloads_touch_no_server_layer(traced, name):
    assert all(calls(traced[name], layer) == 0 for layer in SERVER)
    assert calls(traced[name], "pxml.events") > 0


def test_integration_and_feedback_run_only_in_churn(traced):
    for layer in ("core.engine", "feedback.conditioning"):
        assert calls(traced["churn"], layer) > 0
        assert calls(traced["cold"], layer) == 0
        assert calls(traced["warm"], layer) == 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    outcome = workloads.run_workload("cold", 5, 0.2, False, tmp_path, TINY)
    assert outcome.failed == 0
    assert set(outcome.metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in outcome.metrics.values())
