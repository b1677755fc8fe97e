"""The committed work ledger: what every catalog query answers, and the plan
it answers with, per document size and engine preset.

It runs the 17 catalog queries on every preset at 5k triples, and on
``native-optimized`` and ``native-cost`` at 25k (``native-baseline`` there
takes a minute), and writes ``WORK.json``.  Per (size, preset, query) the
file holds a digest of the result multiset, a digest of the EXPLAIN render
with every timing removed and the ``actual=`` counts of steps an ASK or
LIMIT stopped early masked, the rows each step produced ("-" where
stopped early), how many of its BGP steps run on the batch kernels, and
the byte length of the result's SPARQL JSON.  Per (size, store family) it
holds the ``tracemalloc`` bytes the store built from the generated graph
keeps allocated, and the byte size and sha256 of that store's snapshot.
The work runs in a child process with ``PYTHONHASHSEED=0``, so two runs
write byte-identical files.

``--check`` compares a fresh run with the file instead of writing it: it
exits 1 naming every (size, preset, query) whose answer digest differs or
that has fewer kernel steps than the file ("fell off the kernels"), and
every (size, family) whose snapshot sha256 differs; it prints EXPLAIN,
step-row and counter differences and more kernel steps ("moved onto")
without failing.
Usage:

    python tools/work.py [--check] [--file WORK.json] [--sizes 5000 25000]
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path

from repro import generate_graph
from repro.queries.catalog import ALL_QUERIES
from repro.sparql import ENGINE_PRESETS, NATIVE_COST, NATIVE_OPTIMIZED, SparqlEngine

DEFAULT_FILE = Path(__file__).resolve().parents[1] / "WORK.json"
DEFAULT_SIZES = (5_000, 25_000)

#: Every preset runs up to this size; above it only the two presets whose
#: catalog pass stays within seconds.
ALL_PRESETS_UP_TO = 5_000
PRESETS = ENGINE_PRESETS + (NATIVE_COST,)
FAST_PRESETS = (NATIVE_OPTIMIZED, NATIVE_COST)

#: Render fragments that are timings, so differ between any two runs.
_TIMINGS = re.compile(r" (?:elapsed|time|operators|boundary)=[0-9.]+m?s")
_ACTUAL = re.compile(r"actual=(\d+)")


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()[:16]


def answer_digest(result):
    """A digest of a result's multiset: ASK's boolean, or SELECT's variables
    and its sorted rows of N3 terms."""
    if result.form == "ASK":
        return _digest(bool(result))
    rows = sorted(["" if term is None else term.n3() for term in row]
                  for row in result.rows())
    return _digest([str(variable) for variable in result.variables] + rows)


def explain_lines(report):
    """The EXPLAIN render without timings; a step an ASK or LIMIT stopped
    early (``qerr=-``) reads ``actual=-``."""
    lines = []
    for line in report.render().splitlines():
        if line.startswith("stages:"):
            continue
        line = _TIMINGS.sub("", line)
        if "qerr=-" in line:
            line = _ACTUAL.sub("actual=-", line)
        lines.append(line)
    return lines


def step_rows(lines):
    """The ``actual=`` of every step line, "-" for partial ones."""
    return " ".join(re.findall(r"actual=(\d+|-)", "\n".join(lines)))


def kernel_steps(lines):
    """How many BGP steps run on the batch kernels (``vectorized=yes``)."""
    return sum("vectorized=yes" in line for line in lines)


def presets_for(size):
    return PRESETS if size <= ALL_PRESETS_UP_TO else FAST_PRESETS


def build(family, graph):
    """A store of ``family`` built from ``graph``, and its counters: the
    bytes the build left allocated, and the byte size and sha256 of its
    snapshot."""
    # A small build first does the one-time work (lazy imports, numpy's
    # first calls) whose allocations vary from process to process.
    family(islice(graph, 50))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = family(graph)
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.sp2b"
        store.save(path)
        snapshot = path.read_bytes()
    return store, {"traced_bytes": traced, "snapshot_bytes": len(snapshot),
                   "snapshot_sha256": hashlib.sha256(snapshot).hexdigest()}


def measure(sizes):
    """The ledger for ``sizes``: {"sizes": {size: {preset: {query: entry}}},
    "stores": {size: {family: counters}}}."""
    ledger, store_counters = {}, {}
    for size in sizes:
        graph = generate_graph(triple_limit=size)
        stores = {}
        ledger[str(size)] = per_preset = {}
        store_counters[str(size)] = counters = {}
        for config in presets_for(size):
            family = config.store_family
            if family not in stores:
                stores[family], counters[family.name] = build(family, graph)
            engine = SparqlEngine(config, store=stores[family])
            per_preset[config.name] = entries = {}
            for query in ALL_QUERIES:
                lines = explain_lines(engine.explain(query.text))
                result = engine.query(query.text)
                entries[query.identifier] = {
                    "answer": answer_digest(result),
                    "explain": _digest(lines),
                    "kernel_steps": kernel_steps(lines),
                    "rows": step_rows(lines),
                    "json_bytes": len(result.serialize("json").encode("utf-8")),
                }
    return {"sizes": ledger, "stores": store_counters}


def dumps(ledger):
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def differences(committed, fresh):
    """``(answers, snapshots, plans, rows, kernels, counters)``: messages for
    every (size, preset, query) whose answer digest differs, for every
    (size, family) whose snapshot sha256 differs, for queries whose EXPLAIN
    text differs, for those whose steps produced other rows, for those with
    another number of kernel steps (a pair of lists: fewer steps than
    committed, "fell off the kernels", then more), and for every counter
    (JSON bytes, a store's traced or snapshot bytes, a sha256 the file
    lacks) that differs."""
    answers, snapshots, plans, rows, counters = [], [], [], [], []
    kernels = fell_off, moved_onto = [], []
    for size, per_family in fresh["stores"].items():
        for family, values in per_family.items():
            old = committed.get("stores", {}).get(size, {}).get(family, {})
            for name, value in values.items():
                if old.get(name) == value:
                    continue
                message = f"{size} {family} {name}: {value}, committed {old.get(name, '-')}"
                (snapshots if name == "snapshot_sha256" and name in old
                 else counters).append(message)
    for size, per_preset in fresh["sizes"].items():
        for preset, entries in per_preset.items():
            for query, entry in entries.items():
                old = committed["sizes"].get(size, {}).get(preset, {}).get(query)
                where = f"{size} {preset} {query}"
                if old is None:
                    answers.append(f"{where}: not in the committed file")
                    continue
                if old["answer"] != entry["answer"]:
                    answers.append(f"{where}: answer {entry['answer']}, "
                                   f"committed {old['answer']}")
                if old["explain"] != entry["explain"]:
                    plans.append(f"{where}: explain {entry['explain']}, "
                                 f"committed {old['explain']}")
                if old["rows"] != entry["rows"]:
                    rows.append(f"{where}: [{entry['rows']}], committed [{old['rows']}]")
                steps = entry["kernel_steps"]
                old_steps = old.get("kernel_steps", steps)
                if steps != old_steps:
                    fell = steps < old_steps
                    (fell_off if fell else moved_onto).append(
                        f"{where}: {'fell off' if fell else 'moved onto'} the kernels, "
                        f"{steps} kernel steps, committed {old_steps}")
                if old.get("json_bytes") != entry["json_bytes"]:
                    counters.append(f"{where} json_bytes: {entry['json_bytes']}, "
                                    f"committed {old.get('json_bytes', '-')}")
    return answers, snapshots, plans, rows, kernels, counters


def run(args):
    fresh = measure(args.sizes)
    if not args.check:
        args.file.write_text(dumps(fresh), encoding="utf-8")
        print(f"wrote {args.file}")
        return 0
    answers, snapshots, plans, rows, (fell_off, moved_onto), counters = differences(
        json.loads(args.file.read_text(encoding="utf-8")), fresh)
    for message in counters:
        print(f"counter differs (not failing): {message}")
    for message in plans:
        print(f"plan differs (not failing): {message}")
    for message in rows:
        print(f"step rows differ (not failing): {message}")
    for message in moved_onto:
        print(f"kernel steps differ (not failing): {message}")
    for message in fell_off:
        print(f"KERNEL STEPS DIFFER: {message}")
    for message in answers:
        print(f"ANSWER DIFFERS: {message}")
    for message in snapshots:
        print(f"SNAPSHOT DIFFERS: {message}")
    checked = sum(len(entries) for per_preset in fresh["sizes"].values()
                  for entries in per_preset.values())
    print(f"{checked} answers checked against {args.file}: "
          f"{len(answers)} differ, {len(plans)} plan differences, "
          f"{len(counters)} counter differences, "
          f"{len(fell_off) + len(moved_onto)} kernel-step differences, "
          f"{len(snapshots)} snapshot differences, "
          f"{len(rows)} step-row differences")
    return 1 if answers or snapshots or fell_off else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it")
    parser.add_argument("--file", type=Path, default=DEFAULT_FILE,
                        help="the ledger file (default: WORK.json)")
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES,
                        help="document sizes in triples (default: 5000 25000)")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") == "0":
        return run(args)
    # String hashing orders sets, and with them tie-breaks in plans: the
    # work runs in a child whose hash seed is fixed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, __file__, *argv], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
