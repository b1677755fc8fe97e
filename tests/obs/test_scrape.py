"""Scrape-side parsing, snapshot diffs, and the server report."""

import pytest

from repro.obs.exposition import render
from repro.obs.registry import MetricsRegistry
from repro.obs.scrape import (
    MetricsSnapshot,
    format_server_report,
    histogram_quantile,
    metrics_url_for,
    parse_exposition,
)


class TestMetricsUrl:
    @pytest.mark.parametrize("endpoint", [
        "http://127.0.0.1:8008/sparql",
        "http://127.0.0.1:8008/sparql?query=ASK%7B%7D",
        "http://127.0.0.1:8008/",
    ])
    def test_derives_metrics_path_on_same_host(self, endpoint):
        assert metrics_url_for(endpoint) == "http://127.0.0.1:8008/metrics"


class TestParsing:
    def test_skips_comments_and_blank_lines(self):
        snapshot = parse_exposition(
            "# HELP x_total h\n# TYPE x_total counter\n\nx_total 5\n"
        )
        assert snapshot.get("x_total") == 5

    def test_parses_labels_with_escapes(self):
        snapshot = parse_exposition(
            'x_total{text="say \\"hi\\"\\n",other="v"} 2\n'
        )
        assert snapshot.get("x_total", text='say "hi"\n', other="v") == 2

    def test_label_order_is_canonicalized(self):
        snapshot = parse_exposition(
            'x_total{b="2",a="1"} 1\ny_total{a="1",b="2"} 2\n'
        )
        assert snapshot.get("x_total", a="1", b="2") == 1
        assert snapshot.get("y_total", b="2", a="1") == 2


class TestSnapshotQueries:
    def snapshot(self):
        return parse_exposition(
            'req_total{endpoint="/sparql",status="200"} 10\n'
            'req_total{endpoint="/sparql",status="400"} 2\n'
            'req_total{endpoint="/update",status="200"} 3\n'
        )

    def test_sum_with_and_without_fixed_labels(self):
        snapshot = self.snapshot()
        assert snapshot.sum("req_total") == 15
        assert snapshot.sum("req_total", endpoint="/sparql") == 12
        assert snapshot.sum("missing_total") is None

    def test_by_label_groups_and_sums(self):
        by_status = self.snapshot().by_label("req_total", "status")
        assert by_status == {"200": 13, "400": 2}

    def test_delta_floors_at_zero_and_handles_missing(self):
        before = parse_exposition("x_total 10\n")
        after = parse_exposition("x_total 12\n")
        assert after.delta(before, "x_total") == 2
        assert before.delta(after, "x_total") == 0     # floored
        assert after.delta(before, "y_total") is None
        assert after.delta(MetricsSnapshot({}), "x_total") == 12


class TestHistogramQuantile:
    def rendered(self, observations):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat_seconds", "h",
                                       buckets=(0.01, 0.1, 1.0))
        for value in observations:
            histogram.observe(value)
        return parse_exposition(render(registry))

    def test_quantile_from_scraped_buckets(self):
        snapshot = self.rendered([0.005] * 90 + [0.5] * 10)
        assert histogram_quantile(snapshot, "lat_seconds", 0.5) <= 0.01
        assert histogram_quantile(snapshot, "lat_seconds", 0.99) <= 1.0

    def test_delta_quantile_ignores_earlier_observations(self):
        before = self.rendered([5.0] * 100)
        # Fresh registry: "after" re-observes the old tail plus fast ones.
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat_seconds", "h",
                                       buckets=(0.01, 0.1, 1.0))
        for value in [5.0] * 100 + [0.005] * 900:
            histogram.observe(value)
        after = parse_exposition(render(registry))
        assert histogram_quantile(after, "lat_seconds", 0.5,
                                  before=before) <= 0.01

    def test_absent_histogram_is_none(self):
        assert histogram_quantile(MetricsSnapshot({}), "lat_seconds",
                                  0.5) is None


class TestServerReport:
    def test_report_sections_reflect_moved_series(self):
        before = parse_exposition(
            'sp2b_http_requests_total{endpoint="/sparql",status="200"} 5\n'
            "sp2b_prepared_cache_hits_total 10\n"
        )
        after = parse_exposition(
            'sp2b_http_requests_total{endpoint="/sparql",status="200"} 25\n'
            'sp2b_http_requests_total{endpoint="/sparql",status="503"} 1\n'
            "sp2b_prepared_cache_hits_total 30\n"
            "sp2b_prepared_cache_misses_total 2\n"
            "sp2b_server_inflight_requests 1\n"
        )
        report = format_server_report(before, after)
        assert "requests            21" in report
        assert "200=20" in report and "503=1" in report
        assert "hits=+20" in report and "misses=+2" in report
        assert "in-flight now       1" in report

    def test_stage_means_carry_their_sample_counts(self):
        # A parse mean is the mean over the cache misses only: without the
        # count, one first sight reads like every request's cost.
        before = parse_exposition(
            'sp2b_query_stage_seconds_count{stage="execute"} 10\n'
            'sp2b_query_stage_seconds_sum{stage="execute"} 0.5\n'
        )
        after = parse_exposition(
            'sp2b_query_stage_seconds_count{stage="execute"} 110\n'
            'sp2b_query_stage_seconds_sum{stage="execute"} 0.7\n'
            'sp2b_query_stage_seconds_count{stage="parse"} 3\n'
            'sp2b_query_stage_seconds_sum{stage="parse"} 0.0006\n'
            "sp2b_prepared_cache_replans_total 4\n"
        )
        report = format_server_report(before, after)
        assert "parse=0.20ms n=3" in report
        assert "execute=2.00ms n=100" in report
        assert "replans=+4" in report

    def test_report_skips_absent_sections(self):
        empty = MetricsSnapshot({})
        report = format_server_report(empty, empty)
        assert report == "server-side /metrics deltas:"
