"""Telemetry overhead gate: instrumentation must be ~free.

The observability layer promises that a disabled registry costs one
attribute load and one branch per call site, and that even an *enabled*
registry stays off the critical path (a lock plus an add per record).
This bench runs the same instrumented catalog mix — prepare_cached with a
trace, execute, then the full ``ServerTelemetry.observe_request`` fan-out
— with the global registry disabled and enabled, interleaving rounds so
machine drift hits both sides equally, and gates on min-of-rounds.
"""

import time

import pytest

from repro.obs import (
    QueryTrace,
    ServerTelemetry,
    disable_metrics,
    enable_metrics,
)
from repro.queries import get_query
from repro.sparql import NATIVE_COST, SparqlEngine

#: A small read mix touching the cache-hit path, id-space joins, and ASK.
MIX = ("Q1", "Q3a", "Q12a", "Q2")

#: Interleaved (disabled, enabled) round pairs; the gate compares minima.
ROUNDS = 5

#: Allowed enabled-over-disabled slowdown: 5% relative plus a small
#: absolute slack so sub-millisecond jitter on a quiet mix cannot fail the
#: gate on a busy CI runner.
RELATIVE_SLACK = 1.05
ABSOLUTE_SLACK_SECONDS = 0.020


@pytest.fixture(scope="module")
def obs_engine(medium_graph):
    return SparqlEngine.from_graph(medium_graph, NATIVE_COST)


def run_instrumented_mix(engine, telemetry):
    """One round: every mix query through the fully instrumented path."""
    for query_id in MIX:
        text = get_query(query_id).text
        trace = QueryTrace(queue_wait=0.0)
        prepared = engine.prepare_cached(text, trace=trace)
        rows = 0
        with trace.span("execute"):
            cursor = prepared.run()
            if cursor.form == "ASK":
                bool(cursor)
            else:
                for _row in cursor:
                    rows += 1
        telemetry.observe_request(
            trace, endpoint="/sparql", method="GET", status=200,
            query_text=text, format="json", form=cursor.form, rows=rows,
        )


def test_enabled_registry_overhead_is_bounded(obs_engine):
    telemetry = ServerTelemetry()
    # Warm both sides: prepared-statement cache, statistics, histograms.
    run_instrumented_mix(obs_engine, telemetry)
    enable_metrics()
    try:
        run_instrumented_mix(obs_engine, telemetry)
    finally:
        disable_metrics()

    disabled_times, enabled_times = [], []
    try:
        for _round in range(ROUNDS):
            disable_metrics()
            started = time.perf_counter()
            run_instrumented_mix(obs_engine, telemetry)
            disabled_times.append(time.perf_counter() - started)

            enable_metrics()
            started = time.perf_counter()
            run_instrumented_mix(obs_engine, telemetry)
            enabled_times.append(time.perf_counter() - started)
    finally:
        disable_metrics()

    fastest_disabled = min(disabled_times)
    fastest_enabled = min(enabled_times)
    budget = fastest_disabled * RELATIVE_SLACK + ABSOLUTE_SLACK_SECONDS
    assert fastest_enabled <= budget, (
        f"instrumented mix took {fastest_enabled * 1e3:.1f}ms enabled vs "
        f"{fastest_disabled * 1e3:.1f}ms disabled "
        f"(budget {budget * 1e3:.1f}ms)"
    )


def test_disabled_recording_is_branch_cheap(benchmark):
    """pytest-benchmark entry: a disabled counter inc is just a branch."""
    from repro.obs import get_registry

    counter = get_registry().counter(
        "bench_disabled_probe_total", "Overhead probe counter."
    )
    disable_metrics()

    def record_batch():
        for _ in range(1000):
            counter.inc()

    benchmark(record_batch)
