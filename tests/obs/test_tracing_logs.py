"""Trace spans, JSON log records, and the ServerTelemetry bundle."""

import io
import json
import time

import pytest

from repro.obs import NULL_TRACE, QueryTrace, ServerTelemetry
from repro.obs.logs import (
    JsonLinesLogger,
    access_record,
    open_log_stream,
    query_hash,
    slow_query_record,
)
from repro.obs.registry import MetricsRegistry


class TestQueryTrace:
    def test_span_times_the_block(self):
        trace = QueryTrace()
        with trace.span("parse"):
            time.sleep(0.005)
        assert trace.stages["parse"] >= 0.004

    def test_repeated_spans_accumulate(self):
        trace = QueryTrace()
        with trace.span("execute"):
            pass
        first = trace.stages["execute"]
        with trace.span("execute"):
            time.sleep(0.002)
        assert trace.stages["execute"] > first

    def test_queue_wait_seeds_the_first_stage_and_total(self):
        trace = QueryTrace(queue_wait=1.0)
        assert list(trace.stages) == ["queue"]
        assert trace.total() >= 1.0
        assert trace.elapsed() < 1.0          # queue wait is not wall time

    def test_stages_ms_rounds_to_milliseconds(self):
        trace = QueryTrace()
        trace.add("plan", 0.0123456)
        assert trace.stages_ms()["plan"] == 12.346

    def test_null_trace_records_nothing(self):
        with NULL_TRACE.span("parse"):
            pass
        NULL_TRACE.add("plan", 1.0)
        assert NULL_TRACE.stages == {}


class TestLoggers:
    def test_one_compact_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLinesLogger(stream)
        logger.log({"a": 1})
        logger.log({"b": [1, 2]})
        lines = stream.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1},
                                                        {"b": [1, 2]}]
        assert " " not in lines[0]            # compact separators

    def test_open_log_stream_dash_means_stderr(self, capsys):
        logger = open_log_stream("-")
        logger.log({"x": 1})
        logger.close()                        # must not close stderr
        assert json.loads(capsys.readouterr().err) == {"x": 1}

    def test_open_log_stream_appends_to_file(self, tmp_path):
        path = tmp_path / "access.log"
        for record in ({"n": 1}, {"n": 2}):
            logger = open_log_stream(str(path))
            logger.log(record)
            logger.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]

    def test_query_hash_is_short_and_stable(self):
        assert query_hash("SELECT * WHERE {}") == query_hash("SELECT * WHERE {}")
        assert len(query_hash("x")) == 16
        assert query_hash("x") != query_hash("y")


class TestRecords:
    def test_access_record_fields(self):
        trace = QueryTrace(queue_wait=0.001)
        trace.add("execute", 0.01)
        record = access_record(
            endpoint="/sparql", method="GET", status=200, trace=trace,
            query_text="SELECT", format="json", form="SELECT", rows=7,
            budget_seconds=30.0, budget_consumed_seconds=0.0123,
            cache_hit=True,
        )
        assert record["type"] == "access"
        assert record["status"] == 200
        assert record["query_hash"] == query_hash("SELECT")
        assert record["stages_ms"]["execute"] == 10.0
        assert record["rows"] == 7
        assert record["cache_hit"] is True
        assert record["budget_s"] == 30.0
        assert record["budget_consumed_s"] == 0.0123

    def test_access_record_omits_absent_fields(self):
        record = access_record(endpoint="/health", method="GET", status=200,
                               trace=QueryTrace())
        for field in ("query_hash", "form", "rows", "budget_s"):
            assert field not in record

    def test_slow_query_record_carries_text_and_plan(self):
        trace = QueryTrace()
        trace.add("execute", 0.2)
        record = slow_query_record(
            threshold_seconds=0.1, trace=trace, query_text="SELECT ?x {}",
            plan="BGP [1 pattern]", status=200, rows=3,
        )
        assert record["type"] == "slow_query"
        assert record["threshold_ms"] == 100.0
        assert record["query"] == "SELECT ?x {}"
        assert record["query_hash"] == query_hash("SELECT ?x {}")
        assert record["plan"] == "BGP [1 pattern]"


class TestServerTelemetry:
    def finished_trace(self):
        trace = QueryTrace(queue_wait=0.002)
        for stage, seconds in (("parse", 0.001), ("plan", 0.001),
                               ("execute", 0.05), ("serialize", 0.003)):
            trace.add(stage, seconds)
        return trace

    def test_observe_request_moves_every_metric(self):
        registry = MetricsRegistry(enabled=True)
        telemetry = ServerTelemetry(registry=registry)
        telemetry.observe_request(
            self.finished_trace(), endpoint="/sparql", method="POST",
            status=200, query_text="SELECT", format="json", form="SELECT",
            rows=12,
        )
        assert telemetry.requests_total.labels("/sparql", "200").value == 1
        assert telemetry.request_seconds.labels("/sparql").snapshot()[2] == 1
        stages = dict(telemetry.stage_seconds.children())
        assert set(label for (label,), _child in stages.items()) == \
            {"queue", "parse", "plan", "execute", "serialize"}
        assert telemetry.queue_wait_seconds.snapshot()[2] == 1
        assert telemetry.result_rows_total.value == 12

    def test_access_log_line_written(self):
        stream = io.StringIO()
        telemetry = ServerTelemetry(
            registry=MetricsRegistry(enabled=True),
            access_logger=JsonLinesLogger(stream),
        )
        telemetry.observe_request(
            self.finished_trace(), endpoint="/sparql", method="GET",
            status=400, query_text="broken",
        )
        record = json.loads(stream.getvalue())
        assert record["status"] == 400
        assert record["query_hash"] == query_hash("broken")

    def test_slow_query_goes_to_slow_logger_with_lazy_plan(self):
        stream = io.StringIO()
        rendered = []

        def renderer():
            rendered.append(True)
            return "PLAN"

        telemetry = ServerTelemetry(
            registry=MetricsRegistry(enabled=True),
            slow_logger=JsonLinesLogger(stream),
            slow_query_seconds=0.0,
        )
        telemetry.observe_request(
            self.finished_trace(), endpoint="/sparql", method="GET",
            status=200, query_text="SELECT", plan_renderer=renderer,
        )
        assert rendered == [True]
        record = json.loads(stream.getvalue())
        assert record["type"] == "slow_query"
        assert record["plan"] == "PLAN"
        assert telemetry.slow_queries_total.value == 1

    @pytest.mark.parametrize("threshold", [float("nan"), -0.001])
    def test_nan_or_negative_threshold_raises(self, threshold):
        with pytest.raises(ValueError, match="slow_query_seconds must be"):
            ServerTelemetry(registry=MetricsRegistry(enabled=True),
                            slow_query_seconds=threshold)

    def test_fast_query_never_renders_a_plan(self):
        calls = []
        telemetry = ServerTelemetry(
            registry=MetricsRegistry(enabled=True),
            slow_logger=JsonLinesLogger(io.StringIO()),
            slow_query_seconds=1e9,
        )
        telemetry.observe_request(
            self.finished_trace(), endpoint="/sparql", method="GET",
            status=200, query_text="SELECT",
            plan_renderer=lambda: calls.append(True),
        )
        assert not calls
        assert telemetry.slow_queries_total.value == 0

    def test_failing_plan_renderer_does_not_break_logging(self):
        stream = io.StringIO()

        def renderer():
            raise RuntimeError("no plan for you")

        telemetry = ServerTelemetry(
            registry=MetricsRegistry(enabled=True),
            slow_logger=JsonLinesLogger(stream),
            slow_query_seconds=0.0,
        )
        telemetry.observe_request(
            self.finished_trace(), endpoint="/sparql", method="GET",
            status=200, query_text="SELECT", plan_renderer=renderer,
        )
        record = json.loads(stream.getvalue())
        assert record["type"] == "slow_query"
        assert "plan" not in record
