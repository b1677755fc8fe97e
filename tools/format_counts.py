"""Fail unless an endpoint answers Q2 and Q4 in all four SPARQL result
formats with the bytes the same engine writes in-process.

The serve-smoke CI job runs this against ``repro serve SNAPSHOT``.  For each
query it runs the text over the snapshot in-process on ``native-cost`` (the
preset ``repro serve`` defaults to) and serializes the result in every
format, then fetches it from the endpoint as JSON, XML, CSV and TSV.  Each
body must carry the format's content type, parse with the standard library
to the in-process row count, and equal the in-process document byte for
byte.  Q2 has OPTIONAL cells left unbound; Q4 (5 132 rows at 5k triples)
spans several writer chunks and runs the block DISTINCT.  On failure it
names each query and format with both counts, or the first differing byte.
Usage:

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
from repro.sparql import NATIVE_COST, RESULT_CONTENT_TYPES, SparqlEngine, serializers
from repro.store import load_snapshot

QUERIES = ("Q2", "Q4")

_NS = "{http://www.w3.org/2005/sparql-results#}"

#: Result rows in one response body, per result format.
COUNTERS = {
    "json": lambda body: len(json.loads(body)["results"]["bindings"]),
    "xml": lambda body: len(
        ElementTree.fromstring(body).find(_NS + "results").findall(_NS + "result")),
    "csv": lambda body: len(list(csv.reader(io.StringIO(body, newline="")))) - 1,
    "tsv": lambda body: body.count("\n") - 1,
}


def in_process(engine, text):
    """``(rows, {format: document})`` of one query text, in-process."""
    prepared = engine.prepare(text)
    rows = list(prepared.run())
    return len(rows), {format: serializers.serialize(prepared.variables, rows, format)
                       for format in RESULT_CONTENT_TYPES}


def failures(url, query, text, expected, documents):
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
            problems.append(f"{query} {format}: Content-Type {content_type!r}, "
                            f"expected {media_type!r}")
            continue
        rows = COUNTERS[format](body)
        document = documents[format]
        if rows != expected:
            problems.append(f"{query} {format}: {rows} rows over HTTP, "
                            f"{expected} in-process")
        elif body != document:
            at = next((index for index, (a, b) in enumerate(zip(body, document))
                       if a != b), min(len(body), len(document)))
            problems.append(f"{query} {format}: body differs from in-process "
                            f"at character {at} ({len(body)} vs {len(document)})")
        else:
            print(f"{query} {format}: {rows} rows")
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/format_counts.py SPARQL_URL SNAPSHOT",
              file=sys.stderr)
        return 2
    url, snapshot = argv
    engine = SparqlEngine.from_store(load_snapshot(snapshot), NATIVE_COST)
    problems = []
    for query in QUERIES:
        text = get_query(query).text
        expected, documents = in_process(engine, text)
        problems += (failures(url, query, text, expected, documents) if expected
                     else [f"{query} has no rows in-process: nothing to compare"])
    if problems:
        print("format row counts failed:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
