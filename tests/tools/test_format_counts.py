"""Tests for the serve-smoke four-format check, against live servers: one
serves the snapshot's document on native-cost and passes; one serves a
different document and fails, naming each format with both counts; one
serves the document on another preset, whose Q4 rows come in another
order, and fails on the bytes alone."""

import importlib.util
from pathlib import Path

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.sparql import NATIVE_COST, NATIVE_OPTIMIZED
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


def serve(store, config=NATIVE_COST):
    return SparqlServer(SparqlEngine.from_store(store, config), port=0, workers=1,
                        default_timeout=10.0)


def test_passes_when_the_server_serves_the_snapshot(snapshot, capsys):
    with serve(IndexedStore.load(snapshot)) as live:
        assert format_counts.main([live.url, str(snapshot)]) == 0
    out = capsys.readouterr().out
    for format in ("json", "xml", "csv", "tsv"):
        assert f"Q2 {format}: 11 rows" in out
        assert f"Q4 {format}: 432 rows" in out


def test_fails_on_the_bytes_when_only_the_row_order_differs(snapshot, capsys):
    # native-optimized runs Q4's DISTINCT on tuple rows, first seen first;
    # native-cost's block DISTINCT emits each block's new rows sorted.
    with serve(IndexedStore.load(snapshot), NATIVE_OPTIMIZED) as live:
        assert format_counts.main([live.url, str(snapshot)]) == 1
    out = capsys.readouterr().out
    for format in ("json", "xml", "csv", "tsv"):
        assert f"Q2 {format}: 11 rows" in out
        assert f"Q4 {format}: body differs from in-process at character" in out


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
