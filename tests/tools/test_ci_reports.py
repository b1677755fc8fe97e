"""Tests for the CI report checks: each passes a good file and fails the
files the CI steps they replace failed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ci_reports", Path(__file__).resolve().parents[2] / "tools" / "ci_reports.py")
ci_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_reports)

ACCESS = {"type": "access", "status": 200, "total_ms": 1.5,
          "stages_ms": {"execute": 1.0}, "query_hash": "abc"}


def written(tmp_path, *records):
    path = tmp_path / "report"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def test_loadtest_summary_is_a_markdown_table(tmp_path, capsys):
    ci_reports.loadtest_summary(written(tmp_path, {
        "total": 120, "reads": 96, "writes": 24, "read_qps": 9.6, "write_qps": 2.4,
        "error": 0, "rejected": 0, "torn": 0, "p95": 0.0123}))
    out = capsys.readouterr().out
    assert out.startswith("## Mixed read/write loadtest\n\n| metric | value |\n")
    assert "| reads / writes | 96 / 24 |" in out and "| p95 latency | 12.30 ms |" in out


def test_a_sane_access_log_passes_with_its_counts(tmp_path, capsys):
    ci_reports.access_log(written(tmp_path, {**ACCESS, "query_hash": None}, ACCESS,
                                  {"type": "slow_query"}))
    assert capsys.readouterr().out == "2 access record(s), 1 slow-query record(s)\n"


@pytest.mark.parametrize("records, reason", [
    ((), "no access record"),
    (({"type": "slow_query"},), "no access record"),
    (({**ACCESS, "query_hash": None},), "no access record"),
    (({key: value for key, value in ACCESS.items() if key != "stages_ms"},),
     "missing stages_ms"),
], ids=["empty", "no-access", "no-hash", "missing-field"])
def test_a_bad_access_log_fails(tmp_path, records, reason):
    with pytest.raises(SystemExit, match=reason):
        ci_reports.access_log(written(tmp_path, *records))


@pytest.mark.parametrize("failed", [0, 2])
def test_a_failed_operation_fails_the_ledger(tmp_path, capsys, failed):
    path = written(tmp_path, {"workloads": {"a": {"attempted": 10, "failed": 0},
                                            "b": {"attempted": 10, "failed": failed}}})
    if failed:
        with pytest.raises(SystemExit, match=r"failed operations: \{'b': 2\}"):
            ci_reports.perf_failures(path)
    else:
        ci_reports.perf_failures(path)
    assert capsys.readouterr().out.endswith(f"b: 10 attempted, {failed} failed\n")
