"""Scraping and diffing a server's ``/metrics`` from the client side.

``repro loadtest --scrape-metrics`` and the CI smoke gate both need to
read the text exposition back: parse it into ``{(name, labels): value}``,
subtract a before-snapshot from an after-snapshot, and estimate latency
quantiles from scraped histogram buckets.  The parser is deliberately
minimal — it understands exactly the 0.0.4 text format the renderer in
:mod:`.exposition` emits (which is also what any Prometheus server emits
for counters/gauges/histograms).
"""

from __future__ import annotations

import urllib.request
from urllib.parse import urlsplit, urlunsplit

from .registry import estimate_quantile

__all__ = [
    "MetricsSnapshot",
    "format_server_report",
    "histogram_quantile",
    "metrics_url_for",
    "parse_exposition",
    "scrape",
]

#: Path the server exposes the registry on.
METRICS_PATH = "/metrics"


def metrics_url_for(endpoint_url):
    """Derive the ``/metrics`` URL from any URL on the same server."""
    parts = urlsplit(endpoint_url)
    return urlunsplit((parts.scheme, parts.netloc, METRICS_PATH, "", ""))


def parse_exposition(text):
    """Parse exposition text into a :class:`MetricsSnapshot`."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, value = _parse_sample(line)
        if name is not None:
            samples[(name, labels)] = value
    return MetricsSnapshot(samples)


def _parse_sample(line):
    """One sample line -> (name, sorted label tuple, float value)."""
    try:
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            labels = tuple(sorted(_parse_labels(label_text)))
        else:
            name, value_text = line.split(None, 1)
            labels = ()
        return name.strip(), labels, float(value_text.strip().split()[0])
    except (ValueError, IndexError):
        return None, None, None


def _parse_labels(text):
    """Label pairs from ``a="x",b="y"`` honoring escaped quotes."""
    pairs = []
    index = 0
    while index < len(text):
        equals = text.find("=", index)
        if equals < 0:
            break
        name = text[index:equals].strip().lstrip(",").strip()
        # Value is a double-quoted string with \" \\ \n escapes.
        start = text.find('"', equals)
        if start < 0:
            break
        value_chars = []
        cursor = start + 1
        while cursor < len(text):
            char = text[cursor]
            if char == "\\" and cursor + 1 < len(text):
                escaped = text[cursor + 1]
                value_chars.append(
                    {"n": "\n", '"': '"', "\\": "\\"}.get(escaped, escaped)
                )
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        pairs.append((name, "".join(value_chars)))
        index = cursor + 1
    return pairs


class MetricsSnapshot:
    """``{(metric name, sorted label items): value}`` at one scrape."""

    def __init__(self, samples):
        self.samples = samples

    def get(self, name, **labels):
        return self.samples.get((name, tuple(sorted(labels.items()))))

    def sum(self, name, **fixed):
        """Sum every series of ``name`` matching the fixed labels."""
        total = None
        fixed_items = set(fixed.items())
        for (sample_name, labels), value in self.samples.items():
            if sample_name == name and fixed_items <= set(labels):
                total = (total or 0.0) + value
        return total

    def by_label(self, name, label, **fixed):
        """``{label value: summed value}`` across series of ``name``."""
        out = {}
        fixed_items = set(fixed.items())
        for (sample_name, labels), value in self.samples.items():
            if sample_name != name or not fixed_items <= set(labels):
                continue
            for key, label_value in labels:
                if key == label:
                    out[label_value] = out.get(label_value, 0.0) + value
        return out

    def delta(self, before, name, **labels):
        """Counter-style difference vs an earlier snapshot (floored at 0)."""
        after_value = self.sum(name, **labels)
        if after_value is None:
            return None
        before_value = before.sum(name, **labels) or 0.0
        return max(after_value - before_value, 0.0)


def scrape(url, timeout=10.0):
    """GET ``url`` and parse the body as exposition text."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return parse_exposition(response.read().decode("utf-8"))


def histogram_quantile(snapshot, name, q, before=None, **fixed):
    """Estimate a quantile from scraped ``<name>_bucket`` series.

    With ``before``, estimates over the *delta* histogram (observations
    between the two scrapes).  Returns seconds, or ``None`` when the
    histogram is absent or empty.
    """
    buckets = snapshot.by_label(f"{name}_bucket", "le", **fixed)
    if not buckets:
        return None
    if before is not None:
        earlier = before.by_label(f"{name}_bucket", "le", **fixed)
        buckets = {
            le: max(value - earlier.get(le, 0.0), 0.0)
            for le, value in buckets.items()
        }
    finite = sorted(
        (float(le), value) for le, value in buckets.items() if le != "+Inf"
    )
    bounds = [le for le, _value in finite]
    cumulative = [value for _le, value in finite]
    total = buckets.get("+Inf", cumulative[-1] if cumulative else 0.0)
    # De-cumulate into per-bucket counts (+Inf overflow last).
    counts, previous = [], 0.0
    for value in cumulative:
        counts.append(max(value - previous, 0.0))
        previous = value
    counts.append(max(total - previous, 0.0))
    return estimate_quantile(bounds, counts, total, q)


def format_server_report(before, after):
    """Human-readable server-side deltas between two scrapes.

    Sections are skipped when their series are absent, so the report works
    against any subset of the instrumented codebase.
    """
    lines = ["server-side /metrics deltas:"]

    requests = after.delta(before, "sp2b_http_requests_total")
    if requests is not None:
        by_status = {}
        for status, count in after.by_label(
                "sp2b_http_requests_total", "status").items():
            earlier = before.by_label(
                "sp2b_http_requests_total", "status").get(status, 0.0)
            changed = count - earlier
            if changed > 0:
                by_status[status] = changed
        detail = ", ".join(f"{status}={int(count)}"
                           for status, count in sorted(by_status.items()))
        lines.append(f"  requests            {int(requests)}"
                     + (f"  ({detail})" if detail else ""))

    quantiles = [
        histogram_quantile(after, "sp2b_http_request_seconds", q,
                           before=before)
        for q in (0.50, 0.95, 0.99)
    ]
    if any(q is not None for q in quantiles):
        p50, p95, p99 = (
            "-" if q is None else f"{q * 1e3:.1f}" for q in quantiles
        )
        lines.append(f"  latency est (ms)    p50={p50} p95={p95} p99={p99}"
                     "  [histogram buckets]")

    stage_counts = after.by_label("sp2b_query_stage_seconds_count", "stage")
    stage_sums = after.by_label("sp2b_query_stage_seconds_sum", "stage")
    if stage_counts:
        means = []
        for stage in ("queue", "parse", "plan", "execute", "serialize"):
            count = (stage_counts.get(stage, 0.0)
                     - before.by_label("sp2b_query_stage_seconds_count",
                                       "stage").get(stage, 0.0))
            total = (stage_sums.get(stage, 0.0)
                     - before.by_label("sp2b_query_stage_seconds_sum",
                                       "stage").get(stage, 0.0))
            if count > 0:
                # With its sample count: parse (and plan) are recorded only
                # by requests the statement cache did not answer.
                means.append(f"{stage}={total / count * 1e3:.2f}ms n={int(count)}")
        if means:
            lines.append("  stage mean          " + "  ".join(means))

    counter_rows = (
        ("prepared cache", (("hits", "sp2b_prepared_cache_hits_total"),
                            ("replans", "sp2b_prepared_cache_replans_total"),
                            ("misses", "sp2b_prepared_cache_misses_total"),
                            ("evictions",
                             "sp2b_prepared_cache_evictions_total"))),
        ("mvcc", (("published", "sp2b_mvcc_generations_published_total"),)),
        ("dataset cache", (("hits", "sp2b_dataset_cache_hits_total"),
                           ("misses", "sp2b_dataset_cache_misses_total"))),
        ("slow queries", (("over threshold", "sp2b_slow_queries_total"),)),
    )
    for title, series in counter_rows:
        parts = []
        for label, name in series:
            value = after.delta(before, name)
            if value is not None:
                parts.append(f"{label}=+{int(value)}")
        if parts:
            lines.append(f"  {title:<18}  " + " ".join(parts))

    inflight = after.get("sp2b_server_inflight_requests")
    if inflight is not None:
        lines.append(f"  in-flight now       {int(inflight)}")

    return "\n".join(lines)
