"""Mixed read/write workload: classification, canary probe, report split.

The mixed workload interleaves SPARQL updates with the read mix and runs a
canary probe that turns a snapshot-isolation violation into a ``torn``
record.  These tests cover the status classifier, the mix composition, the
torn-pair detector (including a deliberately torn store), the read/write
report split, and short end-to-end runs in-process and over HTTP.
"""

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.bench.metrics import (
    ERROR,
    OVERLOAD,
    REJECTED,
    SUCCESS,
    TIMEOUT,
    TORN,
    classify_http_status,
)
from repro.bench.workload import (
    CANARY_DELETE_TEXT,
    CANARY_FRACTION,
    CANARY_LEFT,
    CANARY_PROBE_ID,
    CANARY_PROBE_TEXT,
    CANARY_RIGHT,
    DELETE_ID,
    INSERT_ID,
    EngineWorkloadClient,
    HttpWorkloadClient,
    WorkloadMix,
    WorkloadReport,
    canary_insert_text,
    run_engine_workload,
    run_http_workload,
)
from repro.bench import reporting
from repro.store import MvccStore


class TestClassifyHttpStatus:
    @pytest.mark.parametrize("status,expected", [
        (200, SUCCESS), (204, SUCCESS),
        (403, REJECTED), (405, REJECTED),
        (429, OVERLOAD),
        (400, ERROR), (404, ERROR), (500, ERROR),
    ])
    def test_status_only(self, status, expected):
        assert classify_http_status(status) == expected

    def test_503_with_timeout_code_is_timeout(self):
        body = b'{"error": {"code": "timeout", "message": "deadline"}}'
        assert classify_http_status(503, body) == TIMEOUT

    def test_503_without_timeout_code_is_overload(self):
        assert classify_http_status(503, b'{"error": {"code": "x"}}') == \
            OVERLOAD
        assert classify_http_status(503, b"Service Unavailable") == OVERLOAD

    def test_bare_503_defaults_to_timeout(self):
        assert classify_http_status(503) == TIMEOUT


def writing_mix(update_fraction=0.4):
    return WorkloadMix.from_catalog({"Q1": 1}, update_fraction=update_fraction)


class TestMixedWorkloadMix:
    def test_query_ids_include_write_operations(self):
        assert writing_mix().query_ids() == ["Q1", CANARY_PROBE_ID, INSERT_ID,
                                             DELETE_ID]
        assert WorkloadMix.from_catalog({"Q1": 1}).query_ids() == ["Q1"]

    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            writing_mix(update_fraction=1.0)
        with pytest.raises(ValueError):
            writing_mix(update_fraction=1.0 - CANARY_FRACTION)
        with pytest.raises(ValueError):
            writing_mix(update_fraction=-0.1)

    def test_choose_respects_fractions(self):
        from random import Random

        mix = writing_mix(update_fraction=0.4)
        rng = Random(5)
        counts = {}
        for _ in range(4000):
            identifier, _text = mix.choose(rng)
            counts[identifier] = counts.get(identifier, 0) + 1
        writes = counts.get(INSERT_ID, 0) + counts.get(DELETE_ID, 0)
        probes = 4000 * CANARY_FRACTION
        assert writes == pytest.approx(1600, rel=0.15)
        assert counts.get(CANARY_PROBE_ID, 0) == pytest.approx(probes, rel=0.2)
        assert counts.get("Q1", 0) == pytest.approx(2400 - probes, rel=0.15)

    def test_read_only_mix_issues_no_probes(self):
        from random import Random

        mix = WorkloadMix.from_catalog({"Q1": 1})
        rng = Random(5)
        assert {mix.choose(rng)[0] for _ in range(200)} == {"Q1"}

    def test_insert_texts_are_distinct_pairs(self):
        text = canary_insert_text(0xABC)
        assert "INSERT DATA" in text
        assert text.count(CANARY_LEFT) == 1
        assert text.count(CANARY_RIGHT) == 1
        assert canary_insert_text(1) != canary_insert_text(2)


class TestCanaryProbe:
    def test_probe_sees_no_tear_on_atomic_pairs(self):
        engine = SparqlEngine.from_graph([])
        engine.store = MvccStore(engine.store)
        engine.update(canary_insert_text(7))
        client = EngineWorkloadClient(engine)
        _id, status, _seconds = client.execute(CANARY_PROBE_ID,
                                               CANARY_PROBE_TEXT)
        assert status == SUCCESS

    def test_probe_flags_half_written_pair_as_torn(self):
        # Plant a torn state directly (one half of a pair): the probe must
        # classify it as TORN, proving the detector actually detects.
        engine = SparqlEngine.from_graph([])
        engine.store = MvccStore(engine.store)
        engine.update(
            f'INSERT DATA {{ <http://localhost/canary/cbad> '
            f'<{CANARY_LEFT}> "bad" . }}'
        )
        client = EngineWorkloadClient(engine)
        _id, status, _seconds = client.execute(CANARY_PROBE_ID,
                                               CANARY_PROBE_TEXT)
        assert status == TORN

    def test_http_probe_flags_half_written_pair_as_torn(self):
        engine = SparqlEngine.from_graph([])
        engine.store = MvccStore(engine.store)
        engine.update(
            f'INSERT DATA {{ <http://localhost/canary/cbad> '
            f'<{CANARY_RIGHT}> "bad" . }}'
        )
        with SparqlServer(engine, port=0, workers=1) as server:
            client = HttpWorkloadClient(server.url)
            _id, status, _seconds = client.execute(CANARY_PROBE_ID,
                                                   CANARY_PROBE_TEXT)
            client.close()
        assert status == TORN

    def test_delete_removes_only_complete_pairs(self):
        engine = SparqlEngine.from_graph([])
        engine.store = MvccStore(engine.store)
        engine.update(canary_insert_text(1))
        engine.update(
            f'INSERT DATA {{ <http://localhost/canary/chalf> '
            f'<{CANARY_RIGHT}> "h" . }}'
        )
        result = engine.update(CANARY_DELETE_TEXT)
        assert result.deleted == 2     # the complete pair only
        assert len(engine.store) == 1  # the torn remnant stays visible


class TestReportSplit:
    def report(self):
        return WorkloadReport(
            clients=1, duration=1.0,
            mix_ids=["Q1", CANARY_PROBE_ID, INSERT_ID, DELETE_ID],
            records=[
                ("Q1", SUCCESS, 0.01),
                ("Q1", SUCCESS, 0.01),
                (CANARY_PROBE_ID, TORN, 0.01),
                (INSERT_ID, SUCCESS, 0.02),
                (INSERT_ID, REJECTED, 0.02),
                (DELETE_ID, ERROR, 0.02),
            ],
            spans=[(0.0, 2.0)],
        )

    def test_read_write_counts(self):
        report = self.report()
        assert report.read_count() == 3
        assert report.write_count() == 3
        assert report.write_count(SUCCESS) == 1
        assert report.rejected == 1
        assert report.torn == 1

    def test_qps_split(self):
        report = self.report()
        assert report.read_qps() == pytest.approx(1.0)
        assert report.write_qps() == pytest.approx(0.5)

    def test_as_dict_carries_split(self):
        payload = self.report().as_dict()
        assert payload["reads"] == 3 and payload["writes"] == 3
        assert payload["rejected"] == 1 and payload["torn"] == 1
        assert payload["per_query"][INSERT_ID]["rejected"] == 1

    def test_summary_and_table_render_mixed_columns(self):
        report = self.report()
        summary = reporting.workload_summary(report)
        assert "1 rejected" in summary
        assert "1 TORN" in summary
        assert "read /" in summary and "write)" in summary
        table = reporting.workload_table(report)
        assert "rejected" in table and "torn" in table

    def test_read_only_reports_keep_plain_shape(self):
        report = WorkloadReport(
            clients=1, duration=1.0, mix_ids=["Q1"],
            records=[("Q1", SUCCESS, 0.01)], spans=[(0.0, 1.0)],
        )
        table = reporting.workload_table(report)
        assert "rejected" not in table and "torn" not in table
        summary = reporting.workload_summary(report)
        assert "rejected" not in summary and "read /" not in summary


class TestEndToEnd:
    def test_mixed_engine_run(self):
        engine = SparqlEngine.from_graph(generate_graph(triple_limit=1_000))
        report = run_engine_workload(
            engine, mix=writing_mix(), clients=2, duration=0.5, timeout=5.0,
            seed=11,
        )
        assert report.write_count() > 0
        assert report.torn == 0
        assert report.errors == 0
        assert report.count(query_id=CANARY_PROBE_ID) > 0

    def test_mixed_engine_run_wraps_plain_store(self):
        engine = SparqlEngine.from_graph([])
        assert not hasattr(type(engine.store), "write_transaction")
        run_engine_workload(
            engine, mix=writing_mix(update_fraction=0.5), clients=1,
            duration=0.2, seed=1,
        )
        assert isinstance(engine.store, MvccStore)

    def test_mixed_http_run_against_writable_server(self):
        engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
        engine.store = MvccStore(engine.store)
        with SparqlServer(engine, port=0, workers=2) as server:
            report = run_http_workload(
                server.url, mix=writing_mix(), clients=2, duration=0.5,
                timeout=5.0, seed=11,
            )
        assert report.write_count(SUCCESS) > 0
        assert report.torn == 0
        assert report.errors == 0

    def test_mixed_http_run_against_read_only_server(self):
        engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
        with SparqlServer(engine, port=0, workers=2,
                          read_only=True) as server:
            report = run_http_workload(
                server.url, mix=writing_mix(), clients=2, duration=0.5,
                timeout=5.0, seed=11,
            )
        # Writes are refused by policy, not errors; reads keep flowing.
        assert report.rejected > 0
        assert report.errors == 0
        assert report.write_count(SUCCESS) == 0
        assert report.read_count(SUCCESS) > 0
