"""Report checks for CI: ``python tools/ci_reports.py COMMAND FILE``.

    loadtest-summary REPORT.json  print a ``repro loadtest --json`` report's
                                  reader/writer split as a Markdown table
    access-log ACCESS.jsonl       fail unless an access record with a query
                                  hash carries status, total_ms, stages_ms
                                  and query_hash; print the record counts
    perf-failures LEDGER.json     print each ``perf/run.py`` workload's
                                  operation counts; fail if any failed

A failing check exits 1 with its reason on standard error.
"""

import json
import sys


def loadtest_summary(path):
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    rows = (("requests", report["total"]),
            ("reads / writes", f"{report['reads']} / {report['writes']}"),
            ("read QpS", f"{report['read_qps']:.1f}"),
            ("write QpS", f"{report['write_qps']:.1f}"),
            ("errors", report["error"]), ("rejected", report["rejected"]),
            ("torn reads", report["torn"]),
            ("p95 latency", f"{report['p95'] * 1e3:.2f} ms"))
    print("## Mixed read/write loadtest\n\n| metric | value |\n| --- | --- |")
    for name, value in rows:
        print(f"| {name} | {value} |")


def access_log(path):
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    access = [record for record in records if record.get("type") == "access"]
    sample = next((record for record in access if record.get("query_hash")), None)
    if sample is None:
        sys.exit(f"{path}: no access record with a query hash")
    for field in ("status", "total_ms", "stages_ms", "query_hash"):
        if field not in sample:
            sys.exit(f"{path}: missing {field}: {sample}")
    slow = sum(record.get("type") == "slow_query" for record in records)
    print(f"{len(access)} access record(s), {slow} slow-query record(s)")


def perf_failures(path):
    with open(path, encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    for name, workload in workloads.items():
        print(f"{name}: {workload['attempted']} attempted, {workload['failed']} failed")
    failed = {name: workload["failed"] for name, workload in workloads.items()
              if workload["failed"]}
    if failed:
        sys.exit(f"failed operations: {failed}")


if __name__ == "__main__":
    command, path = sys.argv[1:]
    {"loadtest-summary": loadtest_summary, "access-log": access_log,
     "perf-failures": perf_failures}[command](path)
