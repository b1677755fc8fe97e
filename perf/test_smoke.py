"""``run.py --smoke`` end to end: every workload and metric ``BENCHMARK.json``
names is in the output with its unit, and nothing fails.

Run with ``python -m pytest perf -q`` (outside tier-1's ``testpaths``).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run

PERF_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((PERF_DIR.parent / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(tmp_path, trace):
    out = tmp_path / f"smoke{trace}.json"
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--seed", "7",
         "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return completed.stdout, json.loads(out.read_text("utf-8"))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_named_metric_on_every_workload(
        tmp_path, trace, section):
    stdout, ledger = smoke(tmp_path, trace)
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert list(ledger["workloads"]) == [
        workload["name"] for workload in BENCHMARK["workloads"]]
    for name, entry in ledger["workloads"].items():
        assert NAME.fullmatch(name)
        assert {metric: value["unit"]
                for metric, value in entry["metrics"].items()} == declared
        assert entry["failed_share"] == 0 and entry["correct"]
        for metric, value in entry["metrics"].items():
            assert NAME.fullmatch(metric)
            assert re.search(rf"^  {re.escape(metric)} +-?[0-9.]+ "
                             rf"{re.escape(value['unit'])}\b", stdout, re.M)
    last = json.loads(stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    if trace == 0:
        assert all(entry["metrics"][metric]["value"] > 0
                   for entry in ledger["workloads"].values()
                   for metric in declared)


def test_one_workload_prints_the_contract_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--workload",
         "serve.lookup.25k", "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    last = json.loads(completed.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {
        metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert all(set(value) == {"value", "unit"}
               for value in last["metrics"].values())


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in run.workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run.workloads.LAYER_UNITS
