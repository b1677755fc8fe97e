"""Fail when a live server's ``/metrics`` lacks the series serving must move.

The serve-smoke CI job runs this after its load test.  Every required
series must be present and non-zero: HTTP requests and their latency
histogram on ``/sparql``, the queue/execute/serialize stage histograms,
the worker-pool queue wait, and statement-cache hits; the in-flight gauge
must be present.  On success it prints one line with the request count and
p50/p99 latency estimated from the histogram buckets, and appends it to
``$GITHUB_STEP_SUMMARY`` when that is set.  Usage:

    python tools/metrics_gate.py http://127.0.0.1:8765/metrics
"""

import os
import sys

from repro.obs.scrape import histogram_quantile, scrape

#: (series, fixed labels) that must be present and non-zero.
REQUIRED = (
    ("sp2b_http_requests_total", {"endpoint": "/sparql"}),
    ("sp2b_http_request_seconds_count", {"endpoint": "/sparql"}),
    ("sp2b_query_stage_seconds_count", {"stage": "queue"}),
    ("sp2b_query_stage_seconds_count", {"stage": "execute"}),
    ("sp2b_query_stage_seconds_count", {"stage": "serialize"}),
    ("sp2b_server_queue_wait_seconds_count", {}),
    ("sp2b_prepared_cache_hits_total", {}),
)


def failures(snapshot):
    """One message per required series that is missing or zero."""
    problems = []
    for name, labels in REQUIRED:
        value = snapshot.sum(name, **labels)
        if not value:
            problems.append(f"{name} {labels or ''}: missing or zero ({value!r})")
    if snapshot.get("sp2b_server_inflight_requests") is None:
        problems.append("sp2b_server_inflight_requests: missing")
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/metrics_gate.py METRICS_URL", file=sys.stderr)
        return 2
    snapshot = scrape(argv[0])
    problems = failures(snapshot)
    if problems:
        print("metrics scrape gate failed:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    requests = snapshot.sum("sp2b_http_requests_total", endpoint="/sparql")
    p50, p99 = (histogram_quantile(snapshot, "sp2b_http_request_seconds", q,
                                   endpoint="/sparql") for q in (0.50, 0.99))
    line = (f"serve smoke: {int(requests)} requests scraped from /metrics; "
            f"latency estimate p50={p50 * 1e3:.1f}ms p99={p99 * 1e3:.1f}ms "
            f"(histogram buckets)")
    print(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fp:
            fp.write(f"### Serve smoke telemetry\n{line}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
