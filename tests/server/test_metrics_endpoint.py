"""Live-server telemetry: /metrics exposition, logs, and extended /health.

One instrumented server (enabled registry, access log into a StringIO,
zero slow-query threshold so every request produces a slow record) serves
the module.  The global registry is shared across the process, so every
assertion works on scrape *deltas* around this module's own requests.
"""

import io
import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph, get_query
from repro.obs import ServerTelemetry, disable_metrics, enable_metrics
from repro.obs.logs import JsonLinesLogger
from repro.obs.scrape import parse_exposition
from repro.store import MvccStore

SELECT_QUERY = get_query("Q1").text


@pytest.fixture(scope="module")
def server():
    enable_metrics()
    access_stream = io.StringIO()
    telemetry = ServerTelemetry(
        access_logger=JsonLinesLogger(access_stream),
        slow_query_seconds=0.0,
        metrics_endpoint=True,
    )
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=1_000))
    with SparqlServer(engine, port=0, workers=2, default_timeout=10.0,
                      telemetry=telemetry) as live:
        live.test_access_stream = access_stream
        yield live
    disable_metrics()


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.status, response.headers["Content-Type"], \
                response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], \
            error.read().decode("utf-8")


def run_query(server, text):
    quoted = urllib.parse.urlencode({"query": text})
    status, _type, body = fetch(f"{server.url}?{quoted}")
    return status, body


def scrape(server):
    status, content_type, body = fetch(server.metrics_url)
    assert status == 200
    return content_type, parse_exposition(body)


def scrape_when(server, predicate):
    """Scrape until ``predicate(snapshot)`` holds (workers observe their
    request *after* sending the response, so metrics trail the client)."""
    deadline = time.monotonic() + 2.0
    while True:
        _type, after = scrape(server)
        if predicate(after) or time.monotonic() > deadline:
            return after


class TestMetricsEndpoint:
    def test_exposition_is_prometheus_text(self, server):
        content_type, snapshot = scrape(server)
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert snapshot.get("sp2b_server_inflight_requests") is not None

    def test_request_counters_and_stage_timings_move(self, server):
        _type, before = scrape(server)
        for _ in range(3):
            status, _body = run_query(server, SELECT_QUERY)
            assert status == 200
        after = scrape_when(
            server,
            lambda s: s.delta(before, "sp2b_http_requests_total",
                              endpoint="/sparql", status="200") == 3,
        )
        assert after.delta(before, "sp2b_http_requests_total",
                           endpoint="/sparql", status="200") == 3
        assert after.delta(before, "sp2b_http_request_seconds_count",
                           endpoint="/sparql") == 3
        for stage in ("queue", "execute", "serialize"):
            assert after.delta(before, "sp2b_query_stage_seconds_count",
                               stage=stage) == 3, stage
        assert after.delta(before, "sp2b_server_queue_wait_seconds_count") == 3
        assert after.delta(before, "sp2b_http_result_rows_total") == 3

    def test_bad_query_counts_under_its_status(self, server):
        _type, before = scrape(server)
        status, _body = run_query(server, "SELECT WHERE broken")
        assert status == 400
        after = scrape_when(
            server,
            lambda s: s.delta(before, "sp2b_http_requests_total",
                              endpoint="/sparql", status="400") == 1,
        )
        assert after.delta(before, "sp2b_http_requests_total",
                           endpoint="/sparql", status="400") == 1

    def test_prepared_cache_hit_on_repeat(self, server):
        query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 2"
        _type, before = scrape(server)
        run_query(server, query)
        run_query(server, query)
        after = scrape_when(
            server,
            lambda s: s.delta(before, "sp2b_query_stage_seconds_count",
                              stage="execute") == 2,
        )
        assert after.delta(before, "sp2b_prepared_cache_misses_total") >= 1
        assert after.delta(before, "sp2b_prepared_cache_hits_total") >= 1
        # Only the cache miss parses and plans.
        parses = after.delta(before, "sp2b_query_stage_seconds_count",
                             stage="parse")
        executes = after.delta(before, "sp2b_query_stage_seconds_count",
                               stage="execute")
        assert parses < executes

    def test_metrics_endpoint_404_without_flag(self, server):
        plain = SparqlServer(server.engine, port=0, workers=1)
        with plain:
            status, _type, body = fetch(plain.metrics_url)
        assert status == 404

    def test_histogram_buckets_scrape_consistently(self, server):
        run_query(server, SELECT_QUERY)
        _type, snapshot = scrape(server)
        inf = snapshot.get("sp2b_http_request_seconds_bucket",
                           endpoint="/sparql", le="+Inf")
        count = snapshot.get("sp2b_http_request_seconds_count",
                             endpoint="/sparql")
        assert inf == count > 0


def test_an_unrelated_publish_keeps_q2s_cached_plan(server):
    """An INSERT DATA on a predicate no catalog query mentions costs Q2
    neither a parse nor a plan: a statement-cache hit, no miss or replan.
    (``server`` keeps the shared registry enabled.)"""
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=1_000))
    engine.store = MvccStore(engine.store)
    telemetry = ServerTelemetry(metrics_endpoint=True)
    insert = b'INSERT DATA { <http://ci.example/s2> <http://ci.example/p> "again" . }'
    with SparqlServer(engine, port=0, workers=2, default_timeout=10.0,
                      telemetry=telemetry) as live:
        status, _body = run_query(live, get_query("Q2").text)
        assert status == 200
        _type, before = scrape(live)
        request = urllib.request.Request(
            live.update_url, data=insert,
            headers={"Content-Type": "application/sparql-update"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert response.status == 200
        status, _body = run_query(live, get_query("Q2").text)
        assert status == 200
        after = scrape_when(live, lambda snapshot: snapshot.delta(
            before, "sp2b_prepared_cache_hits_total"))
    moved = {outcome: after.delta(before, f"sp2b_prepared_cache_{outcome}_total")
             for outcome in ("hits", "replans", "misses")}
    assert moved["misses"] == 0 and moved["replans"] == 0, moved
    assert moved["hits"] >= 1, moved


class TestStructuredLogs:
    def records(self, server, kind, minimum=1):
        # Telemetry is observed *after* the response bytes go out, so poll
        # briefly instead of racing the worker thread.
        deadline = time.monotonic() + 2.0
        while True:
            found = [json.loads(line) for line
                     in server.test_access_stream.getvalue().splitlines()]
            found = [record for record in found if record["type"] == kind]
            if len(found) >= minimum or time.monotonic() > deadline:
                return found

    def test_access_records_carry_stage_timings(self, server):
        already = len(self.records(server, "access", minimum=0))
        status, _body = run_query(server, SELECT_QUERY)
        assert status == 200
        record = self.records(server, "access", minimum=already + 1)[-1]
        assert record["endpoint"] == "/sparql"
        assert record["status"] == 200
        assert record["form"] == "SELECT"
        assert record["query_hash"]
        assert {"queue", "execute", "serialize"} <= set(record["stages_ms"])
        assert record["budget_s"] == 10.0
        assert 0 <= record["budget_consumed_s"] <= 10.0

    def test_repeat_query_is_marked_cache_hit(self, server):
        query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"
        already = len(self.records(server, "access", minimum=0))
        run_query(server, query)
        run_query(server, query)
        records = self.records(server, "access", minimum=already + 2)
        hits = [record["cache_hit"] for record in records[already:]]
        # Records may land out of submission order (telemetry is written
        # after the response goes out), so assert the multiset: the repeat
        # run must hit, and at most one run may miss.
        assert len(hits) == 2
        assert hits.count(True) >= 1

    def test_slow_query_record_has_text_and_timed_plan(self, server):
        already = len(self.records(server, "slow_query", minimum=0))
        status, _body = run_query(server, SELECT_QUERY)
        assert status == 200
        record = self.records(server, "slow_query",
                              minimum=already + 1)[-1]
        assert record["query"].lstrip().upper().startswith(("PREFIX",
                                                            "SELECT"))
        assert "plan:" in record["plan"]
        assert "stages:" in record["plan"]
        assert "BGP" in record["plan"]


class TestHealthTelemetryFields:
    def test_health_reports_uptime_and_occupancy(self, server):
        status, _type, body = fetch(server.health_url)
        assert status == 200
        payload = json.loads(body)
        assert payload["uptime_seconds"] >= 0
        # The health request itself occupies a worker slot.
        assert payload["inflight"] >= 1
        assert 0 < payload["occupancy"] <= 1
        assert payload["workers"] == 2
