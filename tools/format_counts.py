"""Fail unless an endpoint answers Q2 with the in-process row count in all
four SPARQL result formats.

The serve-smoke CI job runs this against ``repro serve SNAPSHOT``.  It
counts Q2's rows over the snapshot in-process, fetches Q2 from the endpoint
as JSON, XML, CSV and TSV, parses each body with the standard library, and
requires the same count (and the format's content type) from every one.
On failure it names each format with both counts.  Usage:

    python tools/format_counts.py http://127.0.0.1:8765/sparql /tmp/smoke.sp2b
"""

import csv
import io
import json
import sys
import urllib.parse
import urllib.request
from xml.etree import ElementTree

from repro.queries.catalog import get_query
from repro.sparql import RESULT_CONTENT_TYPES, SparqlEngine
from repro.store import load_snapshot

QUERY = "Q2"

_NS = "{http://www.w3.org/2005/sparql-results#}"

#: Result rows in one response body, per result format.
COUNTERS = {
    "json": lambda body: len(json.loads(body)["results"]["bindings"]),
    "xml": lambda body: len(
        ElementTree.fromstring(body).find(_NS + "results").findall(_NS + "result")),
    "csv": lambda body: len(list(csv.reader(io.StringIO(body, newline="")))) - 1,
    "tsv": lambda body: body.count("\n") - 1,
}


def failures(url, text, expected):
    """One message per result format whose HTTP answer differs."""
    target = url + "?" + urllib.parse.urlencode({"query": text})
    problems = []
    for format, media_type in RESULT_CONTENT_TYPES.items():
        request = urllib.request.Request(
            target, headers={"Accept": media_type.split(";")[0]})
        with urllib.request.urlopen(request, timeout=30) as response:
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        if content_type != media_type:
            problems.append(f"{format}: Content-Type {content_type!r}, "
                            f"expected {media_type!r}")
            continue
        rows = COUNTERS[format](body)
        if rows != expected:
            problems.append(f"{format}: {rows} rows over HTTP, "
                            f"{expected} in-process")
        else:
            print(f"{QUERY} {format}: {rows} rows")
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/format_counts.py SPARQL_URL SNAPSHOT",
              file=sys.stderr)
        return 2
    url, snapshot = argv
    text = get_query(QUERY).text
    expected = len(SparqlEngine.from_store(load_snapshot(snapshot)).query(text))
    problems = (failures(url, text, expected) if expected
                else [f"{QUERY} has no rows in-process: nothing to compare"])
    if problems:
        print("format row counts failed:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
