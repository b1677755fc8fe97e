"""Unit tests for the closed-loop multi-client workload generator."""

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.bench import reporting
from repro.bench.metrics import percentile
from repro.bench.workload import (
    EngineWorkloadClient,
    HttpWorkloadClient,
    WorkloadMix,
    WorkloadReport,
    run_engine_workload,
    run_http_workload,
    run_workload,
)
from random import Random


@pytest.fixture(scope="module")
def engine():
    return SparqlEngine.from_graph(generate_graph(triple_limit=1_000))


class TestWorkloadMix:
    def test_from_catalog_default_mix(self):
        mix = WorkloadMix.from_catalog()
        assert "Q1" in mix.query_ids()
        assert all(text.strip() for _i, text, _w in mix.entries)

    def test_uniform_mix(self):
        mix = WorkloadMix.from_catalog({"Q1": 1, "Q2": 1})
        assert mix.query_ids() == ["Q1", "Q2"]
        assert {weight for _i, _t, weight in mix.entries} == {1.0}

    def test_choose_is_seed_deterministic(self):
        mix = WorkloadMix.from_catalog({"Q1": 3, "Q2": 1})
        first = [mix.choose(Random(7))[0] for _ in range(20)]
        second = [mix.choose(Random(7))[0] for _ in range(20)]
        assert first == second

    def test_choose_respects_weights(self):
        mix = WorkloadMix.from_catalog({"Q1": 99, "Q2": 1})
        rng = Random(11)
        picks = [mix.choose(rng)[0] for _ in range(300)]
        assert picks.count("Q1") > picks.count("Q2")

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            WorkloadMix(())
        with pytest.raises(ValueError):
            WorkloadMix.from_catalog({"Q1": 0})

    def test_unknown_query_id_raises(self):
        with pytest.raises(KeyError):
            WorkloadMix.from_catalog({"Q99": 1})


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_single_value(self):
        assert percentile([3.0], 0.5) == 3.0

    def test_interpolation_and_bounds(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5


class TestEngineWorkload:
    def test_thread_mode_produces_successful_records(self, engine):
        report = run_engine_workload(engine, clients=2, duration=0.3, seed=5)
        assert report.total > 0
        assert report.errors == 0
        assert report.successes == report.total
        assert report.qps() > 0
        assert set(report.query_ids()) <= set(WorkloadMix.from_catalog().query_ids())

    def test_percentiles_are_monotone(self, engine):
        report = run_engine_workload(engine, clients=1, duration=0.3)
        tails = report.percentiles()
        assert 0 < tails["p50"] <= tails["p95"] <= tails["p99"]

    def test_zero_timeout_classifies_everything_as_timeout(self, engine):
        report = run_engine_workload(
            engine, clients=1, duration=0.2, timeout=0.0,
            mix=WorkloadMix.from_catalog({"Q2": 1}),
        )
        assert report.total > 0
        assert report.timeouts == report.total
        assert report.qps() == 0.0

    def test_broken_query_classifies_as_error(self, engine):
        mix = WorkloadMix([("bad", "SELECT WHERE {", 1.0)])
        report = run_engine_workload(engine, clients=1, duration=0.2, mix=mix)
        assert report.total > 0
        assert report.errors == report.total

    def test_read_only_mix_leaves_the_store_unwrapped(self, engine):
        store = engine.store
        run_engine_workload(engine, clients=1, duration=0.1,
                            mix=WorkloadMix.from_catalog({"Q1": 1}))
        assert engine.store is store

    def test_client_factory_failure_propagates(self):
        def explode():
            raise RuntimeError("no client for you")

        with pytest.raises(RuntimeError):
            run_workload(explode, WorkloadMix.from_catalog({"Q1": 1}),
                         clients=2, duration=0.1)


class TestHttpWorkload:
    def test_http_clients_against_live_server(self, engine):
        with SparqlServer(engine, port=0, workers=4) as server:
            report = run_http_workload(
                server.url, clients=2, duration=0.3,
                mix=WorkloadMix.from_catalog({"Q1": 1, "Q12c": 1}),
            )
        assert report.total > 0
        assert report.errors == 0
        assert report.successes == report.total

    def test_server_side_timeout_classified(self, engine):
        with SparqlServer(engine, port=0, workers=2) as server:
            client = HttpWorkloadClient(server.url, timeout=0.0)
            query_id, status, seconds = client.execute(
                "Q2", "SELECT ?s WHERE { ?s ?p ?o }"
            )
            client.close()
        assert status == "timeout"
        assert seconds >= 0

    def test_unreachable_endpoint_classified_as_error(self):
        client = HttpWorkloadClient("http://127.0.0.1:9/sparql")
        _query_id, status, _seconds = client.execute("Q1", "SELECT * WHERE {}")
        assert status == "error"

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            HttpWorkloadClient("ftp://example.org/sparql")


class TestWorkloadReporting:
    def make_report(self):
        report = WorkloadReport(clients=2, duration=1.0, mix_ids=["Q1", "Q2"])
        report.spans = [(0.0, 1.0), (0.1, 1.1)]
        report.records = [
            ("Q1", "success", 0.010),
            ("Q1", "success", 0.020),
            ("Q2", "timeout", 0.500),
            ("Q2", "error", 0.001),
        ]
        return report

    def test_counts_and_window(self):
        report = self.make_report()
        assert report.total == 4
        assert report.successes == 2
        assert report.timeouts == 1
        assert report.errors == 1
        assert report.elapsed == pytest.approx(1.1)
        assert report.qps() == pytest.approx(2 / 1.1)
        assert report.qps(query_id="Q2") == 0.0

    def test_as_dict_round_trips_summary(self):
        summary = self.make_report().as_dict()
        assert summary["total"] == 4
        assert summary["per_query"]["Q1"]["success"] == 2
        assert summary["per_query"]["Q2"]["timeout"] == 1
        assert summary["p50"] > 0

    def test_table_and_summary_render(self):
        report = self.make_report()
        table = reporting.workload_table(report)
        assert "overall" in table
        assert "Q1" in table and "Q2" in table
        line = reporting.workload_summary(report)
        assert "2 client(s)" in line
        assert "timeout" in line

    def test_engine_client_records_shape(self):
        engine = SparqlEngine.from_graph(generate_graph(triple_limit=1_000))
        client = EngineWorkloadClient(engine)
        query_id, status, seconds = client.execute(
            "adhoc", "SELECT ?s WHERE { ?s rdf:type bench:Journal }"
        )
        assert (query_id, status) == ("adhoc", "success")
        assert seconds > 0