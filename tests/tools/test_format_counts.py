"""Tests for the serve-smoke four-format row-count check, against live
servers: one serves the snapshot's document and passes; one serves a
different document and fails, naming each format with both counts."""

import importlib.util
from pathlib import Path

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.store import IndexedStore

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "format_counts", _REPO_ROOT / "tools" / "format_counts.py"
)
format_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(format_counts)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("formats") / "doc.sp2b"
    IndexedStore(generate_graph(triple_limit=1_000)).save(path)
    return path


def serve(store):
    return SparqlServer(SparqlEngine.from_store(store), port=0, workers=1,
                        default_timeout=10.0)


def test_passes_when_the_server_serves_the_snapshot(snapshot, capsys):
    with serve(IndexedStore.load(snapshot)) as live:
        assert format_counts.main([live.url, str(snapshot)]) == 0
    out = capsys.readouterr().out
    for format in ("json", "xml", "csv", "tsv"):
        assert f"Q2 {format}: 11 rows" in out


def test_fails_naming_format_and_counts_for_another_document(snapshot, capsys):
    with serve(IndexedStore(generate_graph(triple_limit=500))) as live:
        assert format_counts.main([live.url, str(snapshot)]) == 1
    out = capsys.readouterr().out
    assert "format row counts failed:" in out
    for format in ("json", "xml", "csv", "tsv"):
        assert f"{format}: 5 rows over HTTP, 11 in-process" in out


def test_usage_error_without_two_arguments(capsys):
    assert format_counts.main(["http://127.0.0.1:1/sparql"]) == 2
    assert "usage:" in capsys.readouterr().err
