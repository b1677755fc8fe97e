#!/usr/bin/env python3
"""Write ``perf/expected.json``: the pinned catalog texts and result sizes.

The harness checks every result against this file, so the file must not be
derived from the engine configuration under test alone: it is written only
when the ``native-cost`` and ``native-optimized`` presets return the same
result size for every catalog query at every document size.  Re-run it only
when the generator or the catalog changes on purpose::

    python3 perf/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR.parent / "src"))

from repro.cache import resolve_dataset  # noqa: E402
from repro.queries.catalog import ALL_QUERIES  # noqa: E402
from repro.sparql.engine import (  # noqa: E402
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    SparqlEngine,
)

#: Document sizes the workloads use: smoke, ``*.25k`` and ``catalog.100k``.
SIZES = (5_000, 25_000, 100_000)
PRESETS = (NATIVE_COST, NATIVE_OPTIMIZED)


def result_size(engine, text):
    """Row count of a SELECT, boolean of an ASK."""
    cursor = engine.prepare(text).run()
    if cursor.form == "ASK":
        return bool(cursor)
    return sum(1 for _row in cursor)


def main():
    queries = {
        query.identifier: {"form": query.form, "text": query.text, "expect": {}}
        for query in ALL_QUERIES
    }
    for size in SIZES:
        store = resolve_dataset(triple_limit=size,
                                cache_dir=PERF_DIR / "out" / "cache").store
        engines = [SparqlEngine.from_store(store, preset) for preset in PRESETS]
        for query in ALL_QUERIES:
            sizes = [result_size(engine, query.text) for engine in engines]
            if len(set(sizes)) != 1:
                names = ", ".join(preset.name for preset in PRESETS)
                print(f"refusing to write: {query.identifier} at {size} "
                      f"triples returns {sizes} under ({names})",
                      file=sys.stderr)
                return 1
            queries[query.identifier]["expect"][str(size)] = sizes[0]
            print(f"{size:>7} {query.identifier:<5} {sizes[0]}")
    payload = {
        "presets": [preset.name for preset in PRESETS],
        "sizes": list(SIZES),
        "queries": queries,
    }
    target = PERF_DIR / "expected.json"
    target.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
