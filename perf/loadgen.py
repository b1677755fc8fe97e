"""The perf harness's own closed-loop HTTP client and latency maths.

Standard library only and no ``repro`` import: the yardstick must not change
when the program it measures does.  Everything here works on *records* —
``(op class, outcome, seconds)`` tuples — so the in-process ``catalog.*``
workloads and the HTTP ``serve.*`` workloads share one accounting.

Closed loop: each client sends its next request only after the previous one
answered, so a slow server receives less load (callers that wait for a reply,
not independent users).  No think time.
"""

from __future__ import annotations

import http.client
import math
import socket
import threading
import time
from typing import Callable, NamedTuple, Optional

#: A request that has not answered after this long is a failed operation, and
#: every failed operation is accounted at this latency.
TIMEOUT_S = 30.0

#: Outcomes of one operation.  Everything but ``OK`` is a failure class.
OK = "ok"
FAIL_STATUS = "status"        # non-2xx response
FAIL_TIMEOUT = "timeout"      # no answer within the timeout
FAIL_TRANSPORT = "transport"  # connection refused/reset, malformed HTTP
FAIL_TORN = "torn"            # a canary probe saw half of an atomic pair
FAIL_CHECK = "check"          # response differs from the verified result
FAILURE_CLASSES = (FAIL_STATUS, FAIL_TIMEOUT, FAIL_TRANSPORT, FAIL_TORN,
                   FAIL_CHECK)

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class Op(NamedTuple):
    """One HTTP operation of a workload's stream."""

    cls: str
    method: str
    path: str
    body: Optional[bytes] = None
    headers: Optional[dict] = None
    #: ``verify(body) -> outcome`` for a 2xx response; ``None`` accepts it.
    verify: Optional[Callable[[bytes], str]] = None


class Record(NamedTuple):
    cls: str
    outcome: str
    seconds: float


# -- the client ---------------------------------------------------------------


class HttpClient:
    """One persistent HTTP/1.1 connection issuing :class:`Op` requests."""

    def __init__(self, host, port, timeout=TIMEOUT_S):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection = None

    def execute(self, op):
        """Send one operation; returns its :class:`Record`."""
        return self.send(op)[0]

    def send(self, op):
        """Send one operation; returns ``(record, response body or None)``."""
        start = time.perf_counter()
        body = None
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout)
            self._connection.request(op.method, op.path, body=op.body,
                                     headers=op.headers or {})
            response = self._connection.getresponse()
            body = response.read()
            if not 200 <= response.status < 300:
                outcome = FAIL_STATUS
            elif op.verify is not None:
                outcome = op.verify(body)
            else:
                outcome = OK
        except socket.timeout:
            outcome = FAIL_TIMEOUT
            self.close()
        except (http.client.HTTPException, OSError):
            outcome = FAIL_TRANSPORT
            self.close()
        return Record(op.cls, outcome, time.perf_counter() - start), body

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def run_closed_loop(host, port, streams, seconds, timeout=TIMEOUT_S):
    """Drive one closed-loop client thread per entry of ``streams``.

    ``streams`` is a list of zero-argument callables, one per client, each
    returning that client's next :class:`Op`.  All clients start together;
    none sends a request after ``seconds`` have passed, but each finishes the
    one in flight (its latency counts).  Returns ``(records, elapsed)`` with
    ``elapsed`` spanning the common start to the last answer.
    """
    barrier = threading.Barrier(len(streams) + 1)
    per_client = [[] for _ in streams]
    ends = [0.0] * len(streams)

    def client_loop(index):
        client = HttpClient(host, port, timeout)
        next_op, records = streams[index], per_client[index]
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            records.append(client.execute(next_op()))
        ends[index] = time.perf_counter()
        client.close()

    threads = [threading.Thread(target=client_loop, args=(index,),
                                name=f"perf-client-{index}")
               for index in range(len(streams))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    records = [record for records in per_client for record in records]
    return records, max(ends) - start


def replay(host, port, ops, timeout=TIMEOUT_S):
    """Send ``ops`` in order over one connection; returns their records."""
    client = HttpClient(host, port, timeout)
    try:
        return [client.execute(op) for op in ops]
    finally:
        client.close()


# -- the maths ----------------------------------------------------------------


def percentile(values, fraction):
    """The ``fraction`` quantile of ``values``, linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values):
    return percentile(values, 0.5)


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def samples_beyond(count, fraction):
    """How many of ``count`` samples lie beyond the ``fraction`` quantile."""
    return int(count * (1.0 - fraction) + 1e-9)


def supported_tail(values):
    """The highest of p90/p95/p99 with enough samples beyond it.

    Returns ``(name, value)`` or ``None`` when even p90 has fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond it.
    """
    for name, fraction in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if samples_beyond(len(values), fraction) >= MIN_TAIL_SAMPLES:
            return name, percentile(values, fraction)
    return None


def accounted_ms(record, timeout=TIMEOUT_S):
    """A record's latency in ms; a failed operation counts at the timeout."""
    seconds = record.seconds if record.outcome == OK else timeout
    return seconds * 1e3


def latencies_by_class(records, timeout=TIMEOUT_S):
    """``{class: [accounted latency in ms, ...]}``."""
    by_class = {}
    for record in records:
        by_class.setdefault(record.cls, []).append(
            accounted_ms(record, timeout))
    return by_class


def summarize(records, elapsed, timeout=TIMEOUT_S):
    """Every end-to-end number derivable from one window's records.

    ``throughput_ops_s`` counts verified-successful operations only;
    ``latency_geomean_ms`` is the geometric mean over operation classes of
    each class's median latency, so a cheap class slowed by a convoy weighs
    as much as a heavy one; ``latency_p95_ms`` is over all operations.
    """
    if not records:
        raise ValueError("no operations were attempted")
    failures = {name: 0 for name in FAILURE_CLASSES}
    for record in records:
        if record.outcome != OK:
            failures[record.outcome] += 1
    by_class = latencies_by_class(records, timeout)
    attempted = len(records)
    failed = sum(failures.values())
    classes = {}
    for cls in sorted(by_class):
        values = by_class[cls]
        tail = supported_tail(values)
        classes[cls] = {
            "count": len(values),
            "p50_ms": median(values),
            "tail": None if tail is None else {"name": tail[0],
                                               "ms": tail[1]},
        }
    latencies = [value for values in by_class.values() for value in values]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_share": failed / attempted,
        "elapsed_s": elapsed,
        "throughput_ops_s": (attempted - failed) / elapsed,
        "latency_geomean_ms": geomean(
            [entry["p50_ms"] for entry in classes.values()]),
        "latency_p95_ms": percentile(latencies, 0.95),
        "latency_p99_ms": percentile(latencies, 0.99),
        "samples": attempted,
        "low_n": samples_beyond(attempted, 0.95) < MIN_TAIL_SAMPLES,
        "classes": classes,
    }
