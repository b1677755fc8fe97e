"""Tests for the work ledger on a tiny document: a written file is
byte-identical across runs, ``--check`` passes against it, and fails,
naming the query, once one answer digest is altered or a query has fewer
kernel steps than the file; EXPLAIN text and step rows are reported apart,
without failing."""

import importlib.util
import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location("work", _REPO_ROOT / "tools" / "work.py")
work = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(work)

SIZE = "400"


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    path = tmp_path_factory.mktemp("work") / "WORK.json"
    assert work.main(["--file", str(path), "--sizes", SIZE]) == 0
    return path


def test_every_preset_and_query_has_an_entry(ledger):
    written = json.loads(ledger.read_text(encoding="utf-8"))
    per_preset = written["sizes"][SIZE]
    assert sorted(per_preset) == sorted(config.name for config in work.PRESETS)
    for entries in per_preset.values():
        assert len(entries) == 17
        assert all(entry["answer"] and entry["explain"] for entry in entries.values())
    assert per_preset["native-cost"]["Q3c"]["rows"].split()[-1] == "0"


def test_two_runs_write_identical_files(ledger, tmp_path):
    again = tmp_path / "again.json"
    assert work.main(["--file", str(again), "--sizes", SIZE]) == 0
    assert again.read_bytes() == ledger.read_bytes()


def test_check_passes_on_the_file_it_wrote(ledger, capfd):
    assert work.main(["--check", "--file", str(ledger), "--sizes", SIZE]) == 0
    out = capfd.readouterr().out
    assert f"{5 * 17} answers checked" in out and "0 differ" in out


def test_check_names_an_altered_answer_and_fails(ledger, tmp_path, capfd):
    altered = json.loads(ledger.read_text(encoding="utf-8"))
    altered["sizes"][SIZE]["native-cost"]["Q8"]["answer"] = "0" * 16
    altered["sizes"][SIZE]["native-cost"]["Q2"]["explain"] = "0" * 16
    path = tmp_path / "altered.json"
    path.write_text(work.dumps(altered), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 1
    out = capfd.readouterr().out
    assert f"ANSWER DIFFERS: {SIZE} native-cost Q8: answer" in out
    assert f"plan differs (not failing): {SIZE} native-cost Q2" in out
    assert "1 differ, 1 plan differences" in out


def test_step_rows_and_explain_text_differ_separately(ledger, tmp_path, capfd):
    altered = json.loads(ledger.read_text(encoding="utf-8"))
    entries = altered["sizes"][SIZE]["native-cost"]
    entries["Q5a"]["rows"] += " 1"
    entries["Q6"]["explain"] = "0" * 16
    path = tmp_path / "rows.json"
    path.write_text(work.dumps(altered), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 0
    out = capfd.readouterr().out
    assert f"step rows differ (not failing): {SIZE} native-cost Q5a: [" in out
    assert f"plan differs (not failing): {SIZE} native-cost Q6: explain" in out
    assert f"{SIZE} native-cost Q5a: explain" not in out
    assert f"rows differ (not failing): {SIZE} native-cost Q6" not in out
    assert "0 differ, 1 plan differences," in out
    assert out.rstrip().endswith("0 snapshot differences, 1 step-row differences")


def test_timings_are_removed_and_partial_steps_masked():
    class Report:
        def render(self):
            return ("plan: planner=cost engine=native-cost rows=1 elapsed=0.012s\n"
                    "stages: parse=0.1ms plan=0.2ms execute=0.3ms\n"
                    "  1. [probe] ?a <p> ?b . est=3 actual=7 qerr=2.3 time=0.01ms\n"
                    "  2. [probe] ?b <q> ?c . est=9 actual=4 qerr=- time=1.5ms\n"
                    "result: rows=1 decoded=2 operators=0.02ms boundary=0.60ms")

    lines = work.explain_lines(Report())
    assert lines == [
        "plan: planner=cost engine=native-cost rows=1",
        "  1. [probe] ?a <p> ?b . est=3 actual=7 qerr=2.3",
        "  2. [probe] ?b <q> ?c . est=9 actual=- qerr=-",
        "result: rows=1 decoded=2",
    ]
    assert work.step_rows(lines) == "7 -"


def test_counters_are_recorded_and_their_differences_do_not_fail(ledger, tmp_path,
                                                                  capfd):
    written = json.loads(ledger.read_text(encoding="utf-8"))
    stores = written["stores"][SIZE]
    assert sorted(stores) == ["indexed", "memory"]
    for counters in stores.values():
        assert counters["traced_bytes"] > 0 and counters["snapshot_bytes"] > 0
    # Both families write the one payload: the same triples, the same bytes.
    assert stores["indexed"]["snapshot_bytes"] == stores["memory"]["snapshot_bytes"]
    for entries in written["sizes"][SIZE].values():
        assert all(entry["json_bytes"] > 0 for entry in entries.values())
    stores["indexed"]["traced_bytes"] += 1
    written["sizes"][SIZE]["native-cost"]["Q1"]["json_bytes"] += 1
    path = tmp_path / "counters.json"
    path.write_text(work.dumps(written), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 0
    out = capfd.readouterr().out
    assert f"counter differs (not failing): {SIZE} indexed traced_bytes" in out
    assert f"counter differs (not failing): {SIZE} native-cost Q1 json_bytes" in out
    assert "0 differ, 0 plan differences, 2 counter differences" in out


def test_check_names_a_query_that_fell_off_the_kernels(ledger, tmp_path, capfd):
    written = json.loads(ledger.read_text(encoding="utf-8"))
    entries = written["sizes"][SIZE]["native-cost"]
    assert entries["Q9"]["kernel_steps"] == 4
    assert all(entry["kernel_steps"] == 0
               for entry in written["sizes"][SIZE]["native-optimized"].values())
    entries["Q9"]["kernel_steps"] += 1
    path = tmp_path / "kernels.json"
    path.write_text(work.dumps(written), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 1
    out = capfd.readouterr().out
    assert (f"KERNEL STEPS DIFFER: {SIZE} native-cost Q9: fell off "
            f"the kernels, 4 kernel steps, committed 5") in out
    assert "0 differ, 0 plan differences, 0 counter differences, 1 kernel-step differences" in out


def test_a_query_that_moved_onto_the_kernels_does_not_fail(ledger, tmp_path, capfd):
    written = json.loads(ledger.read_text(encoding="utf-8"))
    written["sizes"][SIZE]["native-cost"]["Q9"]["kernel_steps"] -= 1
    path = tmp_path / "kernels.json"
    path.write_text(work.dumps(written), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 0
    out = capfd.readouterr().out
    assert (f"kernel steps differ (not failing): {SIZE} native-cost Q9: moved onto "
            f"the kernels, 4 kernel steps, committed 3") in out
    assert "1 kernel-step differences" in out


def test_check_fails_on_another_snapshot(ledger, tmp_path, capfd):
    written = json.loads(ledger.read_text(encoding="utf-8"))
    stores = written["stores"][SIZE]
    assert all(len(counters["snapshot_sha256"]) == 64 for counters in stores.values())
    stores["memory"]["snapshot_sha256"] = "0" * 64
    # A file written before the digest was recorded lacks it: not failing.
    del stores["indexed"]["snapshot_sha256"]
    path = tmp_path / "snapshots.json"
    path.write_text(work.dumps(written), encoding="utf-8")
    assert work.main(["--check", "--file", str(path), "--sizes", SIZE]) == 1
    out = capfd.readouterr().out
    assert f"SNAPSHOT DIFFERS: {SIZE} memory snapshot_sha256: " in out
    assert f"counter differs (not failing): {SIZE} indexed snapshot_sha256: " in out
    assert "0 differ, 0 plan differences, 1 counter differences" in out
    assert "1 snapshot differences" in out
