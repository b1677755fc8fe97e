"""Closed-loop multi-client workload generation: sustained QpS + tail latency.

SP2Bench measures single-query latency; this module measures *serving*
behaviour: N concurrent clients replay a weighted mix of catalog queries in
a closed loop (each client issues its next query as soon as the previous
one answers — no think time), and the report gives sustained
queries-per-second plus p50/p95/p99 latency, per query class and overall.
The default mix follows the shape real SPARQL query logs show (Bonifati et
al., "An Analytical Study of Large SPARQL Query Logs"): dominated by cheap
point lookups and small selections, with a thin tail of heavy analytic
queries.  A mix may also interleave canary-pair updates and probes that
turn a snapshot-isolation violation into a ``torn`` record.

Two execution targets share the client loop:

* :class:`EngineWorkloadClient` — in-process against a shared
  :class:`~repro.sparql.engine.SparqlEngine` (through its thread-safe
  prepared-statement cache), and
* :class:`HttpWorkloadClient` — over HTTP against a running SPARQL
  Protocol endpoint (one persistent connection per client).

Clients are threads: the HTTP client side is I/O-bound, and using more
than one core is the server's job, not the load generator's.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from http.client import HTTPConnection
from itertools import accumulate
from random import Random
from urllib.parse import urlsplit

from ..queries.catalog import get_query
from ..server.protocol import UPDATE_PATH
from ..sparql.errors import QueryTimeout
from ..store.mvcc import MvccStore
from .metrics import (
    ERROR,
    REJECTED,
    SUCCESS,
    TIMEOUT,
    TORN,
    classify_http_status,
    percentile,
)

#: Default query mix (weights, not probabilities): mostly cheap lookups and
#: selections, some mid-weight joins and windows, a thin heavy tail — the
#: log-study shape scaled onto the SP2Bench catalog.  Q12c keeps the ASK
#: form in the mix.
DEFAULT_MIX_WEIGHTS = {
    "Q1": 30,    # point lookup by title
    "Q10": 20,   # subject-of lookup (Paul Erdoes as object)
    "Q3a": 15,   # single-property selection with FILTER
    "Q11": 10,   # ORDER BY / LIMIT / OFFSET window
    "Q5b": 10,   # small equi-join
    "Q2": 5,     # wide star join with OPTIONAL and ORDER BY
    "Q9": 5,     # UNION + DISTINCT over all persons
    "Q12c": 5,   # ASK on a fixed triple
}

#: Tail-latency fractions every report includes.
REPORT_PERCENTILES = (0.50, 0.95, 0.99)

#: Share of canary probes in every mix that writes.
CANARY_FRACTION = 0.15

#: Record-id prefix marking write operations in mixed read/write runs.
WRITE_ID_PREFIX = "U:"

#: Record ids used by the mixed workload's update operations and probe.
INSERT_ID = "U:insert"
DELETE_ID = "U:delete"
CANARY_PROBE_ID = "Q:canary"

#: The canary vocabulary: every insert writes an atomic *pair* of triples
#: (same subject, same value under both predicates), so any reader snapshot
#: must see either both halves or neither.  Dedicated URIs, disjoint from
#: the benchmark vocabulary, keep the canary churn out of the catalog
#: queries' statistics.
CANARY_NS = "http://localhost/canary/"
CANARY_LEFT = "http://localhost/vocabulary/canary#left"
CANARY_RIGHT = "http://localhost/vocabulary/canary#right"

#: Deletes every *complete* canary pair (a torn remnant would not match and
#: stays behind for the probe to catch).  Bounds canary growth.
CANARY_DELETE_TEXT = (
    f"DELETE WHERE {{ ?s <{CANARY_LEFT}> ?l . ?s <{CANARY_RIGHT}> ?r . }}"
)

#: Sees every canary half, paired with its sibling when present: a result
#: row with an unbound ?l or ?r is a torn write.
CANARY_PROBE_TEXT = f"""
SELECT ?s ?l ?r WHERE {{
  {{ ?s <{CANARY_LEFT}> ?l . OPTIONAL {{ ?s <{CANARY_RIGHT}> ?r }} }}
  UNION
  {{ ?s <{CANARY_RIGHT}> ?r . OPTIONAL {{ ?s <{CANARY_LEFT}> ?l }} }}
}}
"""


def canary_insert_text(token):
    """The INSERT DATA operation writing one atomic canary pair."""
    subject = f"<{CANARY_NS}c{token:012x}>"
    value = f'"{token}"'
    return (
        f"INSERT DATA {{ {subject} <{CANARY_LEFT}> {value} . "
        f"{subject} <{CANARY_RIGHT}> {value} . }}"
    )


class WorkloadMix:
    """A weighted mix of (query id, query text) templates, optionally
    interleaved with canary writes and probes.

    ``update_fraction`` of the chosen operations are writes (split evenly
    between canary-pair inserts and pair deletes).  A mix that writes also
    issues :data:`CANARY_FRACTION` canary probe reads that verify snapshot
    isolation (a probe observing a half-written pair is recorded as
    :data:`~repro.bench.metrics.TORN`); everything else comes from the
    weighted templates.  The default, 0, is a read-only mix without probes.
    Insert texts embed a token drawn from the caller's random stream, so
    each insert writes a distinct pair and runs stay seed-reproducible.
    """

    def __init__(self, entries, update_fraction=0.0):
        entries = tuple(
            (str(identifier), text, float(weight))
            for identifier, text, weight in entries
        )
        if not entries:
            raise ValueError("a workload mix needs at least one query")
        for identifier, _text, weight in entries:
            if not 0 < weight < float("inf"):
                raise ValueError(f"mix weight of {identifier} must be a "
                                 f"positive number, not {weight:g}")
        if not 0.0 <= update_fraction < 1.0 - CANARY_FRACTION:
            raise ValueError(f"update fraction must be in "
                             f"[0, {1.0 - CANARY_FRACTION:g}), "
                             f"not {update_fraction:g}")
        self.entries = entries
        self.update_fraction = update_fraction
        self.canary_fraction = CANARY_FRACTION if update_fraction else 0.0
        self._cumulative = list(accumulate(weight for _i, _t, weight in entries))
        self.total_weight = self._cumulative[-1]

    @classmethod
    def from_catalog(cls, weights=None, update_fraction=0.0):
        """Build a mix of catalog queries from ``{query id: weight}``."""
        weights = dict(weights or DEFAULT_MIX_WEIGHTS)
        return cls(
            ((identifier, get_query(identifier).text, weight)
             for identifier, weight in weights.items()),
            update_fraction=update_fraction,
        )

    def query_ids(self):
        identifiers = [identifier for identifier, _text, _weight in self.entries]
        if self.update_fraction:
            identifiers.extend((CANARY_PROBE_ID, INSERT_ID, DELETE_ID))
        return identifiers

    def choose(self, rng):
        """Pick one ``(operation id, text)``; templates ∝ their weight."""
        if self.update_fraction:
            roll = rng.random()
            if roll < self.update_fraction:
                if rng.random() < 0.5:
                    return INSERT_ID, canary_insert_text(rng.getrandbits(48))
                return DELETE_ID, CANARY_DELETE_TEXT
            if roll < self.update_fraction + self.canary_fraction:
                return CANARY_PROBE_ID, CANARY_PROBE_TEXT
        point = rng.random() * self.total_weight
        index = min(bisect_right(self._cumulative, point), len(self.entries) - 1)
        identifier, text, _weight = self.entries[index]
        return identifier, text

    def __repr__(self):
        parts = ", ".join(
            f"{identifier}:{weight:g}"
            for identifier, _text, weight in self.entries
        )
        if self.update_fraction:
            parts += (f"; updates={self.update_fraction:g}, "
                      f"canary={self.canary_fraction:g}")
        return f"WorkloadMix({parts})"


# -- execution targets --------------------------------------------------------


def _torn(bindings):
    """Whether any canary probe solution misses one half of its pair.

    Under snapshot isolation both halves of a pair are published
    atomically, so a solution with ``?l`` or ``?r`` unbound is a torn write.
    """
    return any(b.get("l") is None or b.get("r") is None for b in bindings)


class EngineWorkloadClient:
    """Executes mix operations in-process against a shared engine.

    Reads go through ``prepare_cached`` — the same statement cache a server
    worker uses — so each template is parsed and planned once per engine,
    not once per client.  Updates go through ``engine.update`` (one MVCC
    transaction each); the canary probe inspects its own result rows and
    classifies a half-visible pair as :data:`~repro.bench.metrics.TORN`.
    """

    def __init__(self, engine, timeout=None):
        self.engine = engine
        self.timeout = timeout

    def execute(self, query_id, text):
        """Run one operation; returns ``(query_id, status, seconds)``."""
        start = time.perf_counter()
        try:
            status = SUCCESS
            if query_id.startswith(WRITE_ID_PREFIX):
                self.engine.update(text)
            else:
                prepared = self.engine.prepare_cached(text)
                with prepared.run(timeout=self.timeout) as cursor:
                    if query_id == CANARY_PROBE_ID:
                        if _torn(cursor):
                            status = TORN
                    elif cursor.form != "ASK":
                        for _binding in cursor:
                            pass
        except QueryTimeout:
            status = TIMEOUT
        except Exception:  # noqa: BLE001 - the load loop must survive anything
            status = ERROR
        return query_id, status, time.perf_counter() - start

    def close(self):
        pass


class HttpWorkloadClient:
    """Executes mix operations over HTTP against a SPARQL Protocol endpoint.

    Holds one persistent connection (re-established after network errors).
    Queries POST as ``application/sparql-query`` and ask for JSON results;
    updates POST to the server's ``/update`` endpoint as
    ``application/sparql-update``; the canary probe inspects its bindings
    for half-visible pairs.  Responses are classified via
    :func:`~repro.bench.metrics.classify_http_status`: 2xx is a success, a
    503 carrying the structured ``timeout`` error code is a timeout, a
    plain 503/429 is overload, 403/405 (a read-only deployment refusing an
    update) is a policy rejection, anything else — including transport
    failures — is an error.
    """

    def __init__(self, url, timeout=None):
        parts = urlsplit(url)
        if parts.scheme not in ("http", ""):
            raise ValueError(f"unsupported URL scheme in {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.path = parts.path or "/sparql"
        if timeout is not None:
            self.path += f"?timeout={timeout:g}"
        self.timeout = timeout
        # Socket budget: the per-query budget plus slack for queueing at the
        # server's worker pool; never below a floor that survives load.
        self.socket_timeout = max(30.0 if timeout is None else timeout * 4, 10.0)
        self._connection = None

    def _post(self, path, text, headers):
        """POST ``text``; returns ``(status class, response body)``."""
        if self._connection is None:
            self._connection = HTTPConnection(
                self.host, self.port, timeout=self.socket_timeout
            )
        self._connection.request("POST", path, body=text.encode("utf-8"),
                                 headers=headers)
        response = self._connection.getresponse()
        body = response.read()
        return classify_http_status(response.status, body), body

    def execute(self, query_id, text):
        """Run one operation; returns ``(query_id, status, seconds)``."""
        start = time.perf_counter()
        try:
            if query_id.startswith(WRITE_ID_PREFIX):
                status, _body = self._post(UPDATE_PATH, text, {
                    "Content-Type": "application/sparql-update",
                })
            else:
                status, body = self._post(self.path, text, {
                    "Content-Type": "application/sparql-query",
                    "Accept": "application/sparql-results+json",
                })
                if (query_id == CANARY_PROBE_ID and status == SUCCESS
                        and _torn(json.loads(body)["results"]["bindings"])):
                    status = TORN
        except Exception:  # noqa: BLE001 - transport failure = error record
            status = ERROR
            self.close()
        return query_id, status, time.perf_counter() - start

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None


# -- the closed loop ----------------------------------------------------------


def _client_loop(client, mix, duration, rng):
    """One closed-loop client: issue-wait-repeat until the duration is up.

    Returns ``(start, end, records)`` — the client's own wall-clock span
    plus one ``(query_id, status, seconds)`` record per request.  The loop
    never issues a request after its span ends, but always finishes the one
    in flight (its latency still counts — closed-loop semantics).
    """
    records = []
    start = time.perf_counter()
    end = start + duration
    while time.perf_counter() < end:
        query_id, text = mix.choose(rng)
        records.append(client.execute(query_id, text))
    client.close()
    return start, time.perf_counter(), records


@dataclass
class WorkloadReport:
    """Everything measured by one multi-client workload run."""

    clients: int
    duration: float
    mix_ids: list = field(default_factory=list)
    #: Flat ``(query_id, status, seconds)`` records across all clients.
    records: list = field(default_factory=list)
    #: Per-client ``(start, end)`` spans on each client's own clock.
    spans: list = field(default_factory=list)

    # -- derived views -----------------------------------------------------

    @property
    def total(self):
        return len(self.records)

    def count(self, status=None, query_id=None):
        return sum(
            1 for record_id, record_status, _seconds in self.records
            if (status is None or record_status == status)
            and (query_id is None or record_id == query_id)
        )

    @property
    def successes(self):
        return self.count(SUCCESS)

    @property
    def timeouts(self):
        return self.count(TIMEOUT)

    @property
    def errors(self):
        return self.count(ERROR)

    @property
    def rejected(self):
        return self.count(REJECTED)

    @property
    def torn(self):
        """Snapshot-isolation violations observed by the canary probe."""
        return self.count(TORN)

    def write_count(self, status=None):
        """Records of update operations (ids prefixed ``U:``)."""
        return sum(
            1 for record_id, record_status, _seconds in self.records
            if record_id.startswith(WRITE_ID_PREFIX)
            and (status is None or record_status == status)
        )

    def read_count(self, status=None):
        """Records of read operations (everything that is not an update)."""
        return self.count(status) - self.write_count(status)

    @property
    def elapsed(self):
        """The measurement window: first client start to last client end."""
        if not self.spans:
            return self.duration
        return max(end for _start, end in self.spans) - min(
            start for start, _end in self.spans
        )

    def _rate(self, count):
        window = self.elapsed
        return count / window if window > 0 else 0.0

    def qps(self, query_id=None):
        """Sustained successful queries per second over the window."""
        return self._rate(self.count(SUCCESS, query_id=query_id))

    def read_qps(self):
        """Sustained successful read operations per second."""
        return self._rate(self.read_count(SUCCESS))

    def write_qps(self):
        """Sustained successful (committed) update operations per second."""
        return self._rate(self.write_count(SUCCESS))

    def percentiles(self, query_id=None):
        """``{"p50": ..., "p95": ..., "p99": ...}`` success latencies in s."""
        values = [
            seconds for record_id, status, seconds in self.records
            if status == SUCCESS and query_id in (None, record_id)
        ]
        return {
            f"p{int(fraction * 100)}": percentile(values, fraction)
            for fraction in REPORT_PERCENTILES
        }

    def query_ids(self):
        """Query ids observed in the records, catalog order first."""
        seen = {record_id for record_id, _status, _seconds in self.records}
        ordered = [identifier for identifier in self.mix_ids if identifier in seen]
        ordered.extend(sorted(seen.difference(ordered)))
        return ordered

    def as_dict(self):
        """A JSON-ready summary (the ``repro loadtest --json`` output)."""
        per_query = {}
        for identifier in self.query_ids():
            per_query[identifier] = {
                "count": self.count(query_id=identifier),
                "success": self.count(SUCCESS, query_id=identifier),
                "timeout": self.count(TIMEOUT, query_id=identifier),
                "error": self.count(ERROR, query_id=identifier),
                "rejected": self.count(REJECTED, query_id=identifier),
                "torn": self.count(TORN, query_id=identifier),
                "qps": self.qps(query_id=identifier),
                **self.percentiles(query_id=identifier),
            }
        return {
            "clients": self.clients,
            "duration": self.duration,
            "elapsed": self.elapsed,
            "total": self.total,
            "success": self.successes,
            "timeout": self.timeouts,
            "error": self.errors,
            "rejected": self.rejected,
            "torn": self.torn,
            "qps": self.qps(),
            "reads": self.read_count(),
            "writes": self.write_count(),
            "read_qps": self.read_qps(),
            "write_qps": self.write_qps(),
            **self.percentiles(),
            "per_query": per_query,
        }


def run_workload(client_factory, mix, clients=4, duration=5.0, seed=97):
    """Run a closed-loop workload on threads; returns a :class:`WorkloadReport`.

    ``client_factory`` builds one client per thread.  All clients start
    together behind a barrier; a client that fails to build aborts the
    barrier and its exception is raised here.  Each client's random
    stream is seeded from ``seed`` + client index, so a run is
    reproducible up to scheduling.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    barrier = threading.Barrier(clients)
    outcomes = [None] * clients
    errors = []

    def work(index):
        try:
            client = client_factory()
            rng = Random(seed + index)
            barrier.wait()
            outcomes[index] = _client_loop(client, mix, duration, rng)
        except Exception as error:  # noqa: BLE001 - surfaced to the caller
            barrier.abort()
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(index,), name=f"workload-{index}")
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    report = WorkloadReport(clients=clients, duration=duration,
                            mix_ids=mix.query_ids())
    for start, end, records in outcomes:
        report.spans.append((start, end))
        report.records.extend(records)
    return report


def run_engine_workload(engine, mix=None, clients=4, duration=5.0,
                        timeout=None, seed=97):
    """Closed-loop workload directly against an engine (no HTTP).

    When the mix writes, the engine's store is wrapped in an
    :class:`~repro.store.MvccStore` unless it is one already: concurrent
    clients then commit updates through the serialized writer while
    readers stay on pinned snapshots.
    """
    mix = mix or WorkloadMix.from_catalog()
    if mix.update_fraction and not hasattr(engine.store, "write_transaction"):
        engine.store = MvccStore(engine.store)
    return run_workload(
        lambda: EngineWorkloadClient(engine, timeout=timeout),
        mix, clients=clients, duration=duration, seed=seed,
    )


def run_http_workload(url, mix=None, clients=4, duration=5.0, timeout=None,
                      seed=97):
    """Closed-loop workload against a running SPARQL Protocol endpoint."""
    mix = mix or WorkloadMix.from_catalog()
    return run_workload(
        lambda: HttpWorkloadClient(url, timeout=timeout),
        mix, clients=clients, duration=duration, seed=seed,
    )
