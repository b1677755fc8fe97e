"""The five workloads: set-up, the timed window, and the traced replay.

This module runs inside the fresh child process ``run.py`` starts per
workload.  It drives the program only through its public entry points —
``repro.cache.resolve_dataset``, ``repro.store.load_snapshot`` / ``MvccStore``,
``SparqlEngine.from_store / parse / plan / prepare_cached / update``,
``PreparedQuery.run``, ``repro.sparql.serializers.serialize``,
``repro.server.protocol`` and a ``repro serve`` subprocess over HTTP — and
never imports ``repro.bench`` or ``repro.obs``, which later PRs will change.

Load shape, the same on every commit: engine preset ``native-cost``, numpy
on, default generator seed.  ``catalog.*`` is one in-process client;
``serve.*`` is one ``repro serve --workers 2`` subprocess driven by a closed
loop of 2 client threads on 2 persistent connections, no think time.
"""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path
from random import Random
from statistics import fmean
from typing import NamedTuple

import loadgen
from loadgen import FAIL_CHECK, FAIL_STATUS, FAIL_TIMEOUT, FAIL_TORN, OK, Op, Record

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
CACHE_DIR = OUT_DIR / "cache"

CLIENTS = 2
SERVER_WORKERS = 2
SMOKE_TRIPLES = 5_000
LOAD_SHAPE = (
    "engine native-cost, numpy on; catalog.*: 1 in-process client; serve.*: "
    f"repro serve --workers {SERVER_WORKERS}, closed loop of {CLIENTS} client "
    f"threads / {CLIENTS} persistent connections, no think time"
)

#: Traced serve.* sample: this many operations per second of ``--seconds``
#: (300 at the default 12 s), replayed in-process and then over HTTP.
TRACE_OPS_PER_SECOND = 25
#: How often the traced run repeats ``load_snapshot``, ``GET /health`` and
#: the canary insert/delete pair when it costs one call of those layers.
LOAD_REPEATS = 3
HEALTH_PROBES = 200
UPDATE_PROBES = 10
#: At most this many distinct query texts cost the front-end layers.
COSTED_TEXTS = 100


class Workload(NamedTuple):
    name: str
    kind: str       # "catalog", "mix", "lookup" or "rw"
    triples: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("catalog.25k", "catalog", 25_000,
             "the paper's experiment: 17 catalog queries in-process, execute "
             "and serialize do all the work, server/parser/MVCC none"),
    Workload("catalog.100k", "catalog", 100_000,
             "the paper's document-size axis: super-linear queries (Q5a, Q4), "
             "snapshot load and memory large enough to gate"),
    Workload("serve.mix.25k", "mix", 25_000,
             "HTTP, log-shaped 8-template mix, texts repeat so the statement "
             "cache always hits; execute under GIL contention dominates"),
    Workload("serve.lookup.25k", "lookup", 25_000,
             "HTTP, distinct-text point lookups, working set far above the "
             "256-entry statement cache; HTTP path and parse/plan dominate"),
    Workload("serve.rw.25k", "rw", 25_000,
             "HTTP, 20% canary-pair updates beside the read mix on the MVCC "
             "store; every publish re-plans and copies, torn reads fail"),
)}

#: The log-shaped read mix (weights): mostly short lookups, a thin heavy tail.
MIX_WEIGHTS = {"Q1": 30, "Q10": 20, "Q3a": 15, "Q11": 10, "Q5b": 10,
               "Q2": 5, "Q9": 5, "Q12c": 5}

INSERT_CLS, DELETE_CLS, PROBE_CLS, READ = "U:insert", "U:delete", "Q:canary", "read"
#: serve.rw.25k: 20 % updates (half inserts, half deletes), 15 % canary
#: probes, 65 % the read mix above.
RW_WEIGHTS = {INSERT_CLS: 2, DELETE_CLS: 2, PROBE_CLS: 3, READ: 13}

#: Distinct-text lookup templates; ``{}`` takes a constant from the pool.
LOOKUP_TEMPLATES = {
    "L:title": 'SELECT ?yr WHERE {{ ?doc dc:title {} . ?doc dcterms:issued ?yr }}',
    "L:author": 'SELECT ?doc WHERE {{ ?p foaf:name {} . ?doc dc:creator ?p }}',
    "L:doc": 'SELECT ?p ?o WHERE {{ {} ?p ?o }}',
}
POOL_QUERIES = {
    "L:title": "SELECT DISTINCT ?x WHERE { ?d dc:title ?x . ?d dcterms:issued ?yr }",
    "L:author": "SELECT DISTINCT ?x WHERE { ?d dc:creator ?p . ?p foaf:name ?x }",
    "L:doc": "SELECT DISTINCT ?x WHERE { ?x dcterms:issued ?yr }",
}
#: A constant no document has, per template: its response is the empty result.
ABSENT = {
    "L:title": '"no such title"^^xsd:string',
    "L:author": '"no such author"^^xsd:string',
    "L:doc": "<http://localhost/publications/none>",
}

# The canary pair: both triples of an insert share subject and value, so any
# snapshot a reader pins holds both halves or neither.
CANARY_LEFT = "http://localhost/vocabulary/canary#left"
CANARY_RIGHT = "http://localhost/vocabulary/canary#right"
CANARY_DELETE = (f"DELETE WHERE {{ ?s <{CANARY_LEFT}> ?l . "
                 f"?s <{CANARY_RIGHT}> ?r . }}")
CANARY_PROBE = f"""
SELECT ?s ?l ?r WHERE {{
  {{ ?s <{CANARY_LEFT}> ?l . OPTIONAL {{ ?s <{CANARY_RIGHT}> ?r }} }}
  UNION
  {{ ?s <{CANARY_RIGHT}> ?r . OPTIONAL {{ ?s <{CANARY_LEFT}> ?l }} }}
}}
"""

QUERY_PATH, UPDATE_PATH = "/sparql", "/update"
QUERY_TYPE, UPDATE_TYPE = "application/sparql-query", "application/sparql-update"
JSON_RESULTS = "application/sparql-results+json"
QUERY_HEADERS = {"Content-Type": QUERY_TYPE, "Accept": JSON_RESULTS}
UPDATE_HEADERS = {"Content-Type": UPDATE_TYPE}

HIT_SERIES = "sp2b_prepared_cache_hits_total"
MISS_SERIES = "sp2b_prepared_cache_misses_total"


def deck(rng, weights):
    """Endless draws from a deck holding each key ``weight`` times, reshuffled
    whenever it runs out: every ``sum(weights)`` draws hold exactly the mix.

    Independent draws would let the share of the one heavy class (Q3a) drift
    by a tenth of itself between seeds, and throughput with it.
    """
    cards = [key for key, weight in weights.items() for _ in range(weight)]
    while True:
        rng.shuffle(cards)
        yield from cards


def canary_insert(token):
    subject = f"<http://localhost/canary/c{token:012x}>"
    return (f'INSERT DATA {{ {subject} <{CANARY_LEFT}> "{token}" . '
            f'{subject} <{CANARY_RIGHT}> "{token}" . }}')


def load_expected(triples):
    """``{query id: (text, expected result size)}`` at one document size."""
    payload = json.loads((PERF_DIR / "expected.json").read_text("utf-8"))
    return {identifier: (entry["text"], entry["expect"][str(triples)])
            for identifier, entry in payload["queries"].items()}


def peak_rss_mb(pid="self"):
    """``VmHWM`` of a process: the most resident memory it ever held."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def binding_count(body):
    """Full JSON parse of a SPARQL result: row count, or the ASK boolean."""
    document = json.loads(body)
    if "boolean" in document:
        return document["boolean"]
    return len(document["results"]["bindings"])


# -- spans --------------------------------------------------------------------


class Span:
    """One ``{op_id, layer, start, end, parent}`` record, timed by ``with``."""

    __slots__ = ("index", "op_id", "layer", "start", "end", "parent", "counts")

    def __init__(self, index, op_id, layer, parent):
        self.index, self.op_id, self.layer, self.parent = index, op_id, layer, parent
        self.start = self.end = 0.0
        self.counts = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.end = time.perf_counter()
        return False


class SpanRecorder:
    """Keeps spans in memory; written out when the workload ends."""

    ROOT_LAYER = "op"

    def __init__(self):
        self.spans = []

    def span(self, op_id, layer, parent=None):
        span = Span(len(self.spans), op_id, layer,
                    None if parent is None else parent.index)
        self.spans.append(span)
        return span

    def self_ms_by_layer(self):
        """Mean self time per operation of every layer, in ms.

        A span's self time is its duration minus the part its child spans
        cover; the root span's self time is the replay loop's own glue.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals = {}
        for span in self.spans:
            self_time = span.end - span.start - covered[span.index]
            totals[span.layer] = totals.get(span.layer, 0.0) + self_time
        operations = len({span.op_id for span in self.spans}) or 1
        return {layer: total * 1e3 / operations
                for layer, total in totals.items()}

    def mean_op_ms(self):
        """Mean duration of the root spans: one traced operation, in ms."""
        return fmean([span.end - span.start for span in self.spans
                     if span.parent is None]) * 1e3

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {"op_id": span.op_id, "layer": span.layer,
                          "start": span.start, "end": span.end,
                          "parent": span.parent}
                if span.counts:
                    record["counts"] = span.counts
                handle.write(json.dumps(record) + "\n")


#: Per-layer metrics of a traced run and their units.  The ``_ms`` ones are
#: the mean cost of one call of the layer on this workload's document and
#: texts, measured on every workload; how often an operation pays it is in
#: the per-operation table beside them (and in ``prepared_hit_ratio``).
LAYER_UNITS = {
    "cache.resolve_ms": "ms", "store.load_ms": "ms",
    "sparql.parse_ms": "ms", "sparql.plan_ms": "ms",
    "sparql.execute_ms": "ms", "sparql.serialize_ms": "ms",
    "server.protocol_ms": "ms", "server.http_ms": "ms",
    "server.contention_x": "x", "store.update_ms": "ms",
    "sparql.prepared_hit_ratio": "ratio", "unattributed_ms": "ms",
}
#: The layers with a span around their in-process call in the replay.
OP_LAYERS = ("server.protocol_ms", "sparql.parse_ms", "sparql.plan_ms",
             "sparql.execute_ms", "sparql.serialize_ms", "store.update_ms")


class TracedEngine:
    """Replays operations in-process with a span around each layer call.

    The engine's own statement cache decides what an operation costs, as in
    the server: ``prepare_cached`` is called off the clock, and when it
    returns a statement this replay has not seen for that text (first sight,
    eviction, or a new store version) the operation is charged an explicit
    ``engine.parse`` and ``engine.plan``; on a hit it is charged neither.
    """

    def __init__(self, engine, recorder, through_protocol):
        from repro.server import protocol
        from repro.sparql import serializers

        self.engine = engine
        self.recorder = recorder
        self.through_protocol = through_protocol
        self.protocol = protocol
        self.serialize = serializers.serialize
        self.operations = 0
        self.seen = {}
        self.hits = self.lookups = 0
        self.rows_out = self.bytes_out = self.generations = 0

    def query(self, cls, text):
        """One traced query operation; returns ``(size, serialized body)``."""
        recorder, engine = self.recorder, self.engine
        op_id = self.operations
        self.operations += 1
        prepared = engine.prepare_cached(text)
        hit = self.seen.get(text) is prepared
        self.seen[text] = prepared
        self.lookups += 1
        self.hits += hit
        with recorder.span(op_id, recorder.ROOT_LAYER) as root:
            root.counts = {"class": cls}
            if self.through_protocol:
                with recorder.span(op_id, "server.protocol_ms", root):
                    self.protocol.parse_query_request(
                        "POST", QUERY_PATH, content_type=QUERY_TYPE,
                        body=text, max_timeout=loadgen.TIMEOUT_S)
                    self.protocol.negotiate(JSON_RESULTS)
            if not hit:
                with recorder.span(op_id, "sparql.parse_ms", root):
                    parsed = engine.parse(text)
                with recorder.span(op_id, "sparql.plan_ms", root):
                    engine.plan(parsed)
            with recorder.span(op_id, "sparql.execute_ms", root) as execute:
                cursor = prepared.run(timeout=loadgen.TIMEOUT_S)
                rows = cursor if cursor.form == "ASK" else list(cursor)
            with recorder.span(op_id, "sparql.serialize_ms", root) as serialize:
                body = self.serialize(prepared.variables, rows, "json")
        size = bool(rows) if cursor.form == "ASK" else len(rows)
        execute.counts = {"rows": int(size)}
        serialize.counts = {"bytes": len(body.encode("utf-8"))}
        self.rows_out += execute.counts["rows"]
        self.bytes_out += serialize.counts["bytes"]
        return size, body

    def update(self, cls, text):
        """One traced update operation on the MVCC-backed engine."""
        recorder, engine = self.recorder, self.engine
        op_id = self.operations
        self.operations += 1
        before = engine.store.version
        with recorder.span(op_id, recorder.ROOT_LAYER) as root:
            root.counts = {"class": cls}
            with recorder.span(op_id, "server.protocol_ms", root):
                self.protocol.parse_update_request(
                    "POST", content_type=UPDATE_TYPE, body=text)
            with recorder.span(op_id, "store.update_ms", root) as update:
                engine.update(text)
        update.counts = {"generations": engine.store.version - before}
        self.generations += update.counts["generations"]

    def per_op_ms(self):
        """Mean self time per replayed operation of every span layer."""
        self_ms = self.recorder.self_ms_by_layer()
        return {layer: self_ms.get(layer, 0.0) for layer in OP_LAYERS}

    def call_costs(self, texts, store, server):
        """Mean cost in ms of one call of each layer, on ``texts``.

        Measured whether or not the workload's operations pass through the
        layer: what a statement-cache miss (parse, plan), a request
        (protocol, the HTTP path: ``GET /health`` does no engine work) and a
        canary update on an MVCC copy of the store would pay here.
        """
        from repro.sparql.engine import NATIVE_COST, SparqlEngine
        from repro.store import MvccStore

        engine, clock = self.engine, time.perf_counter
        protocol = parse = plan = 0.0
        for text in texts:
            start = clock()
            self.protocol.parse_query_request(
                "POST", QUERY_PATH, content_type=QUERY_TYPE, body=text,
                max_timeout=loadgen.TIMEOUT_S)
            self.protocol.negotiate(JSON_RESULTS)
            parsed_at = clock()
            parsed = engine.parse(text)
            planned_at = clock()
            engine.plan(parsed)
            protocol += parsed_at - start
            parse += planned_at - parsed_at
            plan += clock() - planned_at
        writer = SparqlEngine.from_store(MvccStore(store), NATIVE_COST)
        start = clock()
        for token in range(UPDATE_PROBES):
            writer.update(canary_insert(token))
            writer.update(CANARY_DELETE)
        update = (clock() - start) / (2 * UPDATE_PROBES)
        health = loadgen.replay(
            server.host, server.port,
            [Op("health", "GET", "/health")] * HEALTH_PROBES)
        return {
            "server.protocol_ms": protocol * 1e3 / len(texts),
            "sparql.parse_ms": parse * 1e3 / len(texts),
            "sparql.plan_ms": plan * 1e3 / len(texts),
            "store.update_ms": update * 1e3,
            "server.http_ms": loadgen.median(
                [record.seconds for record in health]) * 1e3,
        }


def layer_result(metrics, info, attempted, failed):
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in LAYER_UNITS.items()},
        "info": info,
    }


def end_to_end_result(summary, rss_mb):
    metrics = {
        "throughput_ops_s": {"value": summary["throughput_ops_s"], "unit": "ops/s"},
        "latency_geomean_ms": {"value": summary["latency_geomean_ms"], "unit": "ms"},
        "latency_p95_ms": {"value": summary["latency_p95_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    info = {key: summary[key] for key in (
        "failed_share", "failures", "elapsed_s", "latency_p99_ms", "samples",
        "low_n", "classes")}
    return {"correct": summary["failed"] == 0,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": metrics, "info": info}


# -- catalog.* ----------------------------------------------------------------


class CatalogWorkload:
    """The 17 catalog queries, one client, in-process:
    ``prepare_cached`` -> ``run`` -> JSON-serialize, in seeded order."""

    def __init__(self, workload, triples, dataset, trace):
        self.name = workload.name
        self.dataset = dataset
        self.queries = load_expected(triples)
        self.verified_len = {}

    def setup(self):
        from repro.sparql import serializers
        from repro.sparql.engine import NATIVE_COST, SparqlEngine
        from repro.sparql.errors import QueryTimeout

        self.engine = SparqlEngine.from_store(self.dataset.store, NATIVE_COST)
        self.serialize = serializers.serialize
        self.timeout_error = QueryTimeout
        # The verified warm-up pass: a full JSON parse against expected.json.
        for identifier, (text, expected) in self.queries.items():
            size, body = self._execute(text)
            if size != expected or binding_count(body) != expected:
                raise RuntimeError(
                    f"{self.name}: {identifier} returned {size}, "
                    f"expected {expected}")
            self.verified_len[identifier] = len(body)

    def close(self):
        pass

    def _execute(self, text):
        prepared = self.engine.prepare_cached(text)
        cursor = prepared.run(timeout=loadgen.TIMEOUT_S)
        if cursor.form == "ASK":
            rows, size = cursor, bool(cursor)
        else:
            rows = list(cursor)
            size = len(rows)
        return size, self.serialize(prepared.variables, rows, "json")

    def _check(self, identifier, size, body):
        expected = self.queries[identifier][1]
        if size == expected and len(body) == self.verified_len[identifier]:
            return OK
        return FAIL_CHECK

    def _operation(self, identifier):
        """One untraced operation, checked off the clock."""
        text = self.queries[identifier][0]
        start = time.perf_counter()
        try:
            size, body = self._execute(text)
        except self.timeout_error:
            return Record(identifier, FAIL_TIMEOUT, time.perf_counter() - start)
        except Exception:  # noqa: BLE001 - an engine error is a failed op
            return Record(identifier, FAIL_STATUS, time.perf_counter() - start)
        seconds = time.perf_counter() - start
        return Record(identifier, self._check(identifier, size, body), seconds)

    def _round_order(self, rng):
        order = list(self.queries)
        rng.shuffle(order)
        return order

    def measure(self, seed, seconds):
        rng = Random(seed)
        records = []
        start = time.perf_counter()
        # Whole rounds only: a round cut short would weigh the cheap queries
        # differently from one run to the next.
        while time.perf_counter() - start < seconds:
            records.extend(self._operation(identifier)
                           for identifier in self._round_order(rng))
        elapsed = time.perf_counter() - start
        result = end_to_end_result(loadgen.summarize(records, elapsed),
                                   peak_rss_mb())
        result["info"]["rounds"] = len(records) // len(self.queries)
        return result

    def trace(self, seed, seconds):
        """Alternate traced and untraced rounds for ``seconds``."""
        rng = Random(seed)
        recorder = SpanRecorder()
        traced = TracedEngine(self.engine, recorder, through_protocol=False)
        traced.seen = {text: self.engine.prepare_cached(text)
                       for text, _expected in self.queries.values()}
        untraced, failed, rounds = [], 0, 0
        start = time.perf_counter()
        while rounds < 2 or time.perf_counter() - start < seconds:
            order = self._round_order(rng)
            if rounds % 2 == 0:
                for identifier in order:
                    size, body = traced.query(identifier,
                                              self.queries[identifier][0])
                    failed += self._check(identifier, size, body) != OK
            else:
                records = [self._operation(identifier) for identifier in order]
                failed += sum(record.outcome != OK for record in records)
                untraced.extend(records)
            rounds += 1
        recorder.write(OUT_DIR / f"trace_{self.name}.jsonl")
        texts = [text for text, _expected in self.queries.values()]
        server = Server(self.dataset.path, metrics=False,
                        log_path=OUT_DIR / f"server_{self.name}.log")
        try:
            server.await_ready()
            metrics = traced.call_costs(texts, self.dataset.store, server)
        finally:
            server.stop()
        per_op = traced.per_op_ms()
        client_ms = fmean([record.seconds for record in untraced]) * 1e3
        traced_ms = recorder.mean_op_ms()
        metrics.update({
            "sparql.execute_ms": per_op["sparql.execute_ms"],
            "sparql.serialize_ms": per_op["sparql.serialize_ms"],
            "server.contention_x": 1.0,   # one client: nothing to convoy with
            "sparql.prepared_hit_ratio": traced.hits / traced.lookups,
            "unattributed_ms": client_ms - sum(per_op.values()),
        })
        info = {
            "rounds": rounds,
            "client_observed_ms": client_ms,
            "per_op_ms": per_op,
            "traced_op_ms": traced_ms,
            "trace_overhead_share": traced_ms / client_ms - 1.0,
            "rows_out": traced.rows_out, "bytes_out": traced.bytes_out,
        }
        return metrics, info, traced.operations + len(untraced), failed


# -- serve.* ------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess: spawn, await ``/health``, stop."""

    def __init__(self, snapshot, metrics, log_path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [environment.get("PYTHONPATH")] if p])
        command = [sys.executable, "-m", "repro.cli", "serve", str(snapshot),
                   "--engine", "native-cost", "--port", "0",
                   "--workers", str(SERVER_WORKERS), "--quiet"]
        if metrics:
            command.append("--metrics")
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log,
            env=environment, cwd=ROOT, text=True)
        self._lines = queue.Queue()
        # Keeps draining stdout for the life of the server, so it can never
        # block on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()
        self.host = self.port = None

    def _drain(self):
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def await_ready(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while self.port is None:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("repro serve did not start in time") from None
            if line is None:
                raise RuntimeError(
                    f"repro serve exited with code {self.process.wait()}")
            match = re.search(r"at http://([\d.]+):(\d+)/sparql", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
        health = Op("health", "GET", "/health")
        client = loadgen.HttpClient(self.host, self.port, timeout=5.0)
        try:
            while client.execute(health).outcome != OK:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never answered /health")
                time.sleep(0.01)
        finally:
            client.close()

    def peak_rss_mb(self):
        return peak_rss_mb(self.process.pid)

    def stop(self):
        self.process.terminate()
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._log.close()


def verify_length(length):
    """Window check of a fixed-text template: the verified byte length."""
    def verify(body):
        return OK if len(body) == length else FAIL_CHECK
    return verify


def verify_longer_than(length):
    """Window check of a lookup: longer than its template's empty result."""
    def verify(body):
        return OK if len(body) > length else FAIL_CHECK
    return verify


def verify_probe(body):
    """A canary probe row with one half unbound is a torn read."""
    for row in json.loads(body)["results"]["bindings"]:
        if "l" not in row or "r" not in row:
            return FAIL_TORN
    return OK


def query_op(cls, text, verify):
    return Op(cls, "POST", QUERY_PATH, text.encode("utf-8"), QUERY_HEADERS,
              verify)


def update_op(cls, text):
    return Op(cls, "POST", UPDATE_PATH, text.encode("utf-8"), UPDATE_HEADERS)


class ServeWorkload:
    """An operation stream sent over HTTP to a ``repro serve`` subprocess."""

    def __init__(self, workload, triples, dataset, trace):
        self.name = workload.name
        self.kind = workload.kind
        self.dataset = dataset
        self.traced = trace
        self.queries = load_expected(triples)
        self.server = None
        self.pools = {}
        self.fixed_ops = {}      # class -> (text, Op) of fixed-text templates
        self.lookup_verify = {}  # lookup class -> window check

    # -- set-up ------------------------------------------------------------

    def setup(self):
        self.server = Server(self.dataset.path, metrics=self.traced,
                             log_path=OUT_DIR / f"server_{self.name}.log")
        try:
            if self.kind == "lookup":
                self._read_pools()   # while the server loads its snapshot
            self.server.await_ready()
            self.client = loadgen.HttpClient(self.server.host, self.server.port)
            self._warm_up()
        except BaseException:
            self.close()
            raise

    def close(self):
        if self.server is not None:
            self.client = None
            self.server.stop()
            self.server = None

    def _read_pools(self):
        from repro.sparql.engine import NATIVE_COST, SparqlEngine

        engine = SparqlEngine.from_store(self.dataset.store, NATIVE_COST)
        for cls, text in POOL_QUERIES.items():
            self.pools[cls] = sorted(
                row[0].n3() for row in engine.prepare(text).run().rows())

    def _verified(self, op, expected=None):
        """Send one set-up operation with a full check of its response."""
        record, body = self.client.send(op)
        if record.outcome != OK:
            raise RuntimeError(f"{self.name}: warm-up {op.cls} failed "
                               f"({record.outcome})")
        if expected is not None and binding_count(body) != expected:
            raise RuntimeError(f"{self.name}: warm-up {op.cls} returned "
                               f"{binding_count(body)}, expected {expected}")
        return body

    def _warm_up(self):
        """One verified pass over every template of the workload."""
        if self.kind in ("mix", "rw"):
            for cls in MIX_WEIGHTS:
                text, expected = self.queries[cls]
                body = self._verified(query_op(cls, text, None), expected)
                self.fixed_ops[cls] = (
                    text, query_op(cls, text, verify_length(len(body))))
        if self.kind == "lookup":
            for cls, template in LOOKUP_TEMPLATES.items():
                empty = self._verified(
                    query_op(cls, template.format(ABSENT[cls]), None), 0)
                self.lookup_verify[cls] = verify_longer_than(len(empty))
                body = self._verified(
                    query_op(cls, template.format(self.pools[cls][0]), None))
                if binding_count(body) < 1:
                    raise RuntimeError(f"{self.name}: {cls} found nothing")
        if self.kind == "rw":
            self.fixed_ops[PROBE_CLS] = (
                CANARY_PROBE, query_op(PROBE_CLS, CANARY_PROBE, verify_probe))
            self.fixed_ops[DELETE_CLS] = (
                CANARY_DELETE, update_op(DELETE_CLS, CANARY_DELETE))
            self._verified(update_op(INSERT_CLS, canary_insert(0)))
            # One pair is two probe rows: the UNION sees it from both halves
            # (and the probe's own check fails the warm-up on a torn pair).
            self._verified(self.fixed_ops[PROBE_CLS][1], 2)
            self._verified(self.fixed_ops[DELETE_CLS][1])
            self._verified(self.fixed_ops[PROBE_CLS][1], 0)

    # -- the operation stream ----------------------------------------------

    def stream(self, rng):
        """The endless ``(class, text, Op)`` stream of one client."""
        def fixed(cls):
            text, op = self.fixed_ops[cls]
            return cls, text, op

        if self.kind == "mix":
            for cls in deck(rng, MIX_WEIGHTS):
                yield fixed(cls)
        elif self.kind == "lookup":
            for cls in deck(rng, dict.fromkeys(LOOKUP_TEMPLATES, 1)):
                text = LOOKUP_TEMPLATES[cls].format(rng.choice(self.pools[cls]))
                yield cls, text, query_op(cls, text, self.lookup_verify[cls])
        else:
            reads = deck(rng, MIX_WEIGHTS)
            for cls in deck(rng, RW_WEIGHTS):
                if cls == INSERT_CLS:
                    text = canary_insert(rng.getrandbits(48))
                    yield cls, text, update_op(cls, text)
                else:
                    yield fixed(next(reads) if cls == READ else cls)

    def _window(self, seed, seconds):
        streams = [self.stream(Random(f"{seed}/{index}"))
                   for index in range(CLIENTS)]
        return loadgen.run_closed_loop(
            self.server.host, self.server.port,
            [lambda stream=stream: next(stream)[2] for stream in streams],
            seconds)

    def measure(self, seed, seconds):
        records, elapsed = self._window(seed, seconds)
        summary = loadgen.summarize(records, elapsed)
        result = end_to_end_result(summary, self.server.peak_rss_mb())
        result["info"]["clients"] = CLIENTS
        if self.kind == "rw":
            writes = sum(record.outcome == OK and record.cls.startswith("U:")
                         for record in records)
            reads = summary["attempted"] - summary["failed"] - writes
            result["info"]["read_ops_s"] = reads / elapsed
            result["info"]["write_ops_s"] = writes / elapsed
        return result

    # -- the traced run ----------------------------------------------------

    def _scrape(self):
        """Statement-cache hit and miss totals from ``GET /metrics``."""
        record, body = self.client.send(Op("metrics", "GET", "/metrics"))
        if record.outcome != OK:
            return None
        totals = {}
        for line in body.decode("utf-8", "replace").splitlines():
            name, _, value = line.partition(" ")
            name = name.partition("{")[0]
            if name in (HIT_SERIES, MISS_SERIES):
                totals[name] = totals.get(name, 0.0) + float(value.split()[0])
        if len(totals) < 2:
            return None
        return totals[HIT_SERIES], totals[MISS_SERIES]

    def trace(self, seed, seconds):
        from repro.sparql.engine import NATIVE_COST, SparqlEngine
        from repro.store import MvccStore

        sample = list(islice(self.stream(Random(seed)),
                             max(int(TRACE_OPS_PER_SECOND * seconds), 20)))
        # 1. the sample in-process, single-threaded, a span around each layer
        store = self.dataset.store
        if self.kind == "rw":
            store = MvccStore(store)
        recorder = SpanRecorder()
        traced = TracedEngine(SparqlEngine.from_store(store, NATIVE_COST),
                              recorder, through_protocol=True)
        self._warm_replay(traced)
        for cls, text, _op in sample:
            if cls.startswith("U:"):
                traced.update(cls, text)
            else:
                traced.query(cls, text)
        recorder.write(OUT_DIR / f"trace_{self.name}.jsonl")
        # 2. the same sample over HTTP with one client, then a 2-client
        # window, then what one call of each layer costs
        scraped_before = self._scrape()
        host, port = self.server.host, self.server.port
        single = loadgen.replay(host, port, [op for _c, _t, op in sample])
        window, _elapsed = self._window(seed, seconds / 2)
        scraped_after = self._scrape()

        texts = list(dict.fromkeys(
            text for cls, text, _op in sample if not cls.startswith("U:")))
        metrics = traced.call_costs(texts[:COSTED_TEXTS], self.dataset.store,
                                    self.server)
        per_op = traced.per_op_ms()
        client_ms = fmean([loadgen.accounted_ms(record) for record in single])
        contention = self._contention(single, window)
        metrics.update({
            "sparql.execute_ms": per_op["sparql.execute_ms"],
            "sparql.serialize_ms": per_op["sparql.serialize_ms"],
            "server.contention_x": loadgen.geomean(list(contention.values())),
            "unattributed_ms": (client_ms - metrics["server.http_ms"]
                                - sum(per_op.values())),
        })
        if scraped_before is not None and scraped_after is not None:
            hits = scraped_after[0] - scraped_before[0]
            misses = scraped_after[1] - scraped_before[1]
            metrics["sparql.prepared_hit_ratio"] = hits / max(hits + misses, 1.0)
            hit_source = "server /metrics"
        else:
            metrics["sparql.prepared_hit_ratio"] = (
                traced.hits / max(traced.lookups, 1))
            hit_source = "in-process replay (series absent)"
        info = {
            "sample_ops": len(sample),
            "client_observed_ms": client_ms,
            "per_op_ms": dict(per_op, **{
                "server.http_ms": metrics["server.http_ms"]}),
            "contention_x_by_class": contention,
            "hit_ratio_source": hit_source,
            "replay_hit_ratio": traced.hits / max(traced.lookups, 1),
            "rows_out": traced.rows_out, "bytes_out": traced.bytes_out,
            "generations_published": traced.generations,
        }
        records = single + window
        failed = sum(record.outcome != OK for record in records)
        return metrics, info, len(records), failed

    def _warm_replay(self, traced):
        """Bring the replay engine's statement cache and store version to
        where :meth:`_warm_up` left the server's."""
        engine = traced.engine

        def see(text):
            traced.seen[text] = engine.prepare_cached(text)
        if self.kind in ("mix", "rw"):
            for cls in MIX_WEIGHTS:
                see(self.queries[cls][0])
        if self.kind == "rw":
            engine.update(canary_insert(0))
            see(CANARY_PROBE)
            engine.update(CANARY_DELETE)
            see(CANARY_PROBE)

    @staticmethod
    def _contention(single, window):
        """Per class: 2-client window median over 1-client replay median."""
        alone = loadgen.latencies_by_class(single)
        together = loadgen.latencies_by_class(window)
        return {cls: loadgen.median(together[cls]) / loadgen.median(alone[cls])
                for cls in sorted(alone) if cls in together}


# -- the child process ----------------------------------------------------------


def run_child(name, seed, seconds, trace, smoke, spawned_at, setup_only):
    """Set up one workload, then measure or trace it; returns the result.

    A cold dataset cache is reported instead (``dataset_hit`` false):
    generating the document is not set-up, so the caller starts over.
    """
    sys.path.insert(0, str(SRC_DIR))
    from repro.cache import resolve_dataset
    from repro.store import load_snapshot

    workload = WORKLOADS[name]
    triples = SMOKE_TRIPLES if smoke else workload.triples
    started = time.perf_counter()
    dataset = resolve_dataset(triple_limit=triples, cache_dir=CACHE_DIR)
    resolve_ms = (time.perf_counter() - started) * 1e3
    if not dataset.hit:
        return {"dataset_hit": False, "dataset_build_s": resolve_ms / 1e3}
    kind = CatalogWorkload if workload.kind == "catalog" else ServeWorkload
    runner = kind(workload, triples, dataset, trace)
    runner.setup()
    try:
        setup_s = time.time() - spawned_at
        if setup_only:
            return {"dataset_hit": True, "setup_s": setup_s}
        if not trace:
            result = runner.measure(seed, seconds)
        else:
            metrics, info, attempted, failed = runner.trace(seed, seconds)
            loads = []
            for _ in range(LOAD_REPEATS):
                started = time.perf_counter()
                load_snapshot(dataset.path)
                loads.append((time.perf_counter() - started) * 1e3)
            metrics["cache.resolve_ms"] = resolve_ms
            metrics["store.load_ms"] = loadgen.median(loads)
            info["snapshot_bytes"] = dataset.path.stat().st_size
            info["triples"] = len(dataset.store)
            result = layer_result(metrics, info, attempted, failed)
    finally:
        runner.close()
    result.update(dataset_hit=True, setup_s=setup_s, document_triples=triples)
    return result
