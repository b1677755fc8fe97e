"""Plain-text rendering of the paper's result tables.

Reproduces the layout of the evaluation tables so that a harness run prints
rows directly comparable to the published ones:

* Table III  — document generation times,
* Table IV   — success-rate matrix per engine,
* Table V    — query result sizes per document size,
* Tables VI/VII — arithmetic/geometric mean execution times and memory,
* Table VIII — characteristics of generated documents,
* Figures 5-8 — per-query time series (as aligned text columns).
"""

from __future__ import annotations

from ..queries.catalog import ALL_QUERIES


def _format_table(headers, rows):
    """Render rows of stringifiable cells as an aligned text table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    def line(values):
        return "  ".join(value.ljust(widths[index]) for index, value in enumerate(values))
    output = [line(headers), line(["-" * width for width in widths])]
    output.extend(line(row) for row in cells)
    return "\n".join(output)


def generation_times_table(report):
    """Table III: elapsed generation time per document size."""
    rows = [
        (size, f"{seconds:.3f}")
        for size, seconds in sorted(report.generation_times.items())
    ]
    return _format_table(["#triples", "elapsed time [s]"], rows)


def document_characteristics_table(report):
    """Table VIII: characteristics of the generated documents."""
    class_order = ("journal", "article", "proceedings", "inproceedings",
                   "incollection", "book", "phdthesis", "mastersthesis", "www")
    headers = ["#triples", "data up to"] + [f"#{name}" for name in class_order]
    rows = []
    for size, stats in sorted(report.document_stats.items()):
        totals = stats.get("class_totals", {})
        rows.append(
            [size, stats.get("data_up_to_year", "-")]
            + [totals.get(name, 0) for name in class_order]
        )
    return _format_table(headers, rows)


def result_sizes_table(report):
    """Table V: number of query results per document size."""
    query_ids = [q.identifier for q in ALL_QUERIES if q.form == "SELECT"]
    headers = ["Query"] + [str(size) for size in sorted(report.document_stats)]
    rows = []
    for query_id in query_ids:
        row = [query_id]
        for size in sorted(report.document_stats):
            sizes = report.result_sizes(size)
            row.append(sizes.get(query_id, "-"))
        rows.append(row)
    return _format_table(headers, rows)


def success_rate_table(report, engine):
    """Table IV (one engine): status shortcut per query and document size."""
    query_ids = [q.identifier for q in ALL_QUERIES]
    matrix = report.success_matrix(engine)
    headers = ["#triples"] + query_ids
    rows = []
    for size in sorted(matrix):
        rows.append([size] + [matrix[size].get(query_id, " ") for query_id in query_ids])
    return _format_table(headers, rows)


def global_performance_table(report):
    """Tables VI/VII: means of execution time and memory per engine and size."""
    headers = ["engine", "#triples", "Ta [s]", "Tg [s]", "Ma [MB]"]
    rows = []
    for engine in report.engine_names():
        for size in sorted(report.document_stats):
            stats = report.global_performance(engine, size)
            rows.append([
                engine,
                size,
                f"{stats['arithmetic_mean_time']:.3f}",
                f"{stats['geometric_mean_time']:.3f}",
                f"{stats['mean_peak_memory'] / (1024 * 1024):.2f}",
            ])
    return _format_table(headers, rows)


def loading_times_table(report):
    """Loading-time metric: seconds to load each document into each engine."""
    headers = ["engine", "#triples", "loading [s]"]
    rows = [
        (engine, size, f"{seconds:.3f}")
        for (engine, size), seconds in sorted(report.loading_times.items())
    ]
    return _format_table(headers, rows)


def per_query_table(report, query_id):
    """Figures 5-8 (one query): elapsed time per engine across sizes."""
    sizes = sorted(report.document_stats)
    headers = ["engine"] + [str(size) for size in sizes]
    rows = []
    for engine in report.engine_names():
        row = [engine]
        series = dict(report.per_query_series(engine, query_id))
        for size in sizes:
            value = series.get(size)
            row.append("failure" if value is None else f"{value:.3f}")
        rows.append(row)
    return _format_table(headers, rows)


def workload_table(report):
    """Per-query (plus overall) table of a multi-client workload run.

    Columns: request counts by outcome, sustained QpS, and p50/p95/p99
    latency in milliseconds — the serving-side metrics the single-query
    tables cannot show.
    """
    headers = ["query", "count", "ok", "timeout", "error", "QpS",
               "p50 [ms]", "p95 [ms]", "p99 [ms]"]
    # Mixed read/write runs carry extra outcome classes; the columns appear
    # only when such records exist, so read-only tables keep their shape.
    extra = [status for status in ("rejected", "torn", "overload")
             if report.count(status)]
    headers[5:5] = extra

    def row(label, query_id):
        tails = report.percentiles(query_id=query_id)
        cells = [
            label,
            report.count(query_id=query_id),
            report.count("success", query_id=query_id),
            report.count("timeout", query_id=query_id),
            report.count("error", query_id=query_id),
        ]
        cells.extend(report.count(status, query_id=query_id)
                     for status in extra)
        cells.extend([
            f"{report.qps(query_id=query_id):.1f}",
            f"{tails['p50'] * 1e3:.2f}",
            f"{tails['p95'] * 1e3:.2f}",
            f"{tails['p99'] * 1e3:.2f}",
        ])
        return cells

    rows = [row(query_id, query_id) for query_id in report.query_ids()]
    rows.append(row("overall", None))
    return _format_table(headers, rows)


def workload_summary(report):
    """One-line outcome of a workload run (the loadtest header line).

    Mixed read/write runs additionally report the rejected/torn counts and
    the reader/writer QpS split.
    """
    line = (
        f"{report.clients} client(s), "
        f"{report.elapsed:.1f}s window: {report.total} requests, "
        f"{report.successes} ok / {report.timeouts} timeout / "
        f"{report.errors} error"
    )
    if report.rejected:
        line += f" / {report.rejected} rejected"
    if report.torn:
        line += f" / {report.torn} TORN"
    line += f", {report.qps():.1f} QpS sustained"
    if report.write_count():
        line += (f" ({report.read_qps():.1f} read / "
                 f"{report.write_qps():.1f} write)")
    return line


def full_report(report):
    """All tables concatenated into one printable report."""
    sections = [
        ("Table III — document generation times", generation_times_table(report)),
        ("Table VIII — characteristics of generated documents",
         document_characteristics_table(report)),
        ("Table V — query result sizes", result_sizes_table(report)),
        ("Loading times", loading_times_table(report)),
        ("Tables VI/VII — global performance", global_performance_table(report)),
    ]
    for engine in report.engine_names():
        sections.append(
            (f"Table IV — success rates ({engine})", success_rate_table(report, engine))
        )
    parts = []
    for title, body in sections:
        parts.append(title)
        parts.append("=" * len(title))
        parts.append(body)
        parts.append("")
    return "\n".join(parts)
