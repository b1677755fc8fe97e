"""Tests for the serve-smoke metrics gate, against live servers.

One server shares the process-wide registry, as ``repro serve --metrics``
does, and has answered a query; it passes.  The other has its own empty
registry and has served nothing; it fails and names what is missing.
"""

import importlib.util
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph, get_query
from repro.obs import ServerTelemetry, disable_metrics, enable_metrics
from repro.obs.registry import MetricsRegistry

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "metrics_gate", _REPO_ROOT / "tools" / "metrics_gate.py"
)
metrics_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(metrics_gate)


@pytest.fixture(scope="module")
def engine():
    return SparqlEngine.from_graph(generate_graph(triple_limit=500))


def serve(engine, registry=None):
    telemetry = ServerTelemetry(registry=registry, metrics_endpoint=True)
    return SparqlServer(engine, port=0, workers=1, default_timeout=10.0,
                        telemetry=telemetry)


def test_passes_after_a_query_has_run(engine, capsys, tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    enable_metrics()
    try:
        with serve(engine) as live:
            url = live.url + "?" + urllib.parse.urlencode(
                {"query": get_query("Q1").text})
            # The second run of the text is a statement-cache hit.
            for _ in range(2):
                with urllib.request.urlopen(url, timeout=10.0) as response:
                    response.read()
            assert metrics_gate.main([live.metrics_url]) == 0
    finally:
        disable_metrics()
    out = capsys.readouterr().out
    assert "requests scraped from /metrics" in out and "p99=" in out
    assert summary.read_text().startswith("### Serve smoke telemetry\n")


def test_fails_naming_the_missing_series_before_any_query(engine, capsys):
    with serve(engine, registry=MetricsRegistry()) as live:
        assert metrics_gate.main([live.metrics_url]) == 1
    out = capsys.readouterr().out
    assert out.startswith("metrics scrape gate failed:")
    for name, _labels in metrics_gate.REQUIRED:
        assert name in out
    assert "sp2b_server_inflight_requests" not in out


def test_usage_error_without_a_url(capsys):
    assert metrics_gate.main([]) == 2
    assert "usage:" in capsys.readouterr().err
