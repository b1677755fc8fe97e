"""Pins the harness's accounting against a stub server with scripted
delays and status codes: closed-loop operation counts, class medians,
``low_n``, and every failure class ending up in ``failed_share``.

Run with ``python -m pytest perf -q`` (outside tier-1's ``testpaths``).
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlencode, urlsplit

import pytest

import loadgen
from loadgen import (FAIL_CHECK, FAIL_STATUS, FAIL_TIMEOUT, FAIL_TORN,
                     FAIL_TRANSPORT, OK, Op, Record)


class ScriptedHandler(BaseHTTPRequestHandler):
    """``GET /?delay=S&status=N&body=TEXT&drop=1`` does as it is told."""

    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle on, each response
    # would wait ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True

    def do_GET(self):
        script = parse_qs(urlsplit(self.path).query)
        server = self.server
        with server.lock:
            server.in_flight += 1
            server.most_in_flight = max(server.most_in_flight, server.in_flight)
        try:
            time.sleep(float(script.get("delay", ["0"])[0]))
            if "drop" in script:
                self.close_connection = True
                self.connection.close()
                return
            body = script.get("body", ["ok"])[0].encode("utf-8")
            self.send_response(int(script.get("status", ["200"])[0]))
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True   # the client gave up waiting
        finally:
            with server.lock:
                server.in_flight -= 1

    def log_message(self, *_args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.in_flight = server.most_in_flight = 0
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5.0)
    server.server_close()
    assert not thread.is_alive()


def address(server):
    return server.server_address[0], server.server_address[1]


def scripted(cls, verify=None, **script):
    return Op(cls, "GET", f"/?{urlencode(script)}", verify=verify)


def test_closed_loop_sends_the_next_request_only_after_the_answer(stub):
    op = scripted("slow", delay=0.05)
    records, elapsed = loadgen.run_closed_loop(
        *address(stub), [lambda: op, lambda: op], seconds=0.5)
    # 2 clients x (0.5 s / 50 ms) = 20 operations; a loop that did not wait
    # would send far more, a serialized one half as many.
    assert 16 <= len(records) <= 20
    assert stub.most_in_flight == 2
    assert all(record.outcome == OK for record in records)
    assert 0.5 <= elapsed < 0.7
    summary = loadgen.summarize(records, elapsed)
    assert summary["throughput_ops_s"] == pytest.approx(
        len(records) / elapsed)


def test_class_medians_follow_the_scripted_delays(stub):
    fast, slow = scripted("fast", delay=0.01), scripted("slow", delay=0.04)
    records = loadgen.replay(*address(stub), [fast, slow] * 10)
    summary = loadgen.summarize(records, elapsed=1.0)
    classes = summary["classes"]
    assert classes["fast"]["count"] == classes["slow"]["count"] == 10
    assert 10.0 <= classes["fast"]["p50_ms"] < 25.0
    assert 40.0 <= classes["slow"]["p50_ms"] < 55.0
    assert summary["latency_geomean_ms"] == pytest.approx(
        (classes["fast"]["p50_ms"] * classes["slow"]["p50_ms"]) ** 0.5)


def test_every_failure_class_counts_towards_failed_share(stub):
    def torn(body):
        rows = json.loads(body)["results"]["bindings"]
        return FAIL_TORN if any("r" not in row for row in rows) else OK

    def three_bytes(body):
        return OK if len(body) == 3 else FAIL_CHECK
    half_pair = json.dumps({"results": {"bindings": [{"l": {}}]}})
    ops = [
        scripted("good"),
        scripted("good", verify=three_bytes, body="abc"),
        scripted("refused", status=503),
        scripted("late", delay=0.5),
        scripted("dropped", drop=1),
        scripted("probe", verify=torn, body=half_pair),
        scripted("wrong", verify=three_bytes, body="abcd"),
    ]
    records = loadgen.replay(*address(stub), ops, timeout=0.2)
    assert [record.outcome for record in records] == [
        OK, OK, FAIL_STATUS, FAIL_TIMEOUT, FAIL_TRANSPORT, FAIL_TORN,
        FAIL_CHECK]
    summary = loadgen.summarize(records, elapsed=1.0, timeout=0.2)
    assert summary["attempted"] == 7 and summary["failed"] == 5
    assert summary["failed_share"] == pytest.approx(5 / 7)
    assert all(count == 1 for count in summary["failures"].values())
    assert summary["throughput_ops_s"] == pytest.approx(2.0)
    # A failed operation is accounted at the timeout, whatever it took.
    assert summary["classes"]["refused"]["p50_ms"] == pytest.approx(200.0)


def test_a_client_reconnects_after_a_transport_failure(stub):
    records = loadgen.replay(
        *address(stub), [scripted("a", drop=1), scripted("a"), scripted("a")])
    assert [record.outcome for record in records] == [FAIL_TRANSPORT, OK, OK]


def test_low_n_and_the_supported_tail():
    def records(count):
        return [Record("c", OK, (index + 1) / 1e3) for index in range(count)]
    few = loadgen.summarize(records(199), elapsed=1.0)
    assert few["low_n"] and few["samples"] == 199
    assert few["classes"]["c"]["tail"]["name"] == "p90"
    enough = loadgen.summarize(records(200), elapsed=1.0)
    assert not enough["low_n"]
    assert enough["classes"]["c"]["tail"]["name"] == "p95"
    assert loadgen.summarize(records(1000), 1.0)["classes"]["c"]["tail"][
        "name"] == "p99"
    assert loadgen.summarize(records(99), 1.0)["classes"]["c"]["tail"] is None


def test_percentile_geomean_and_samples_beyond():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert loadgen.percentile(values, 0.5) == 3.0
    assert loadgen.percentile(values, 0.95) == pytest.approx(4.8)
    assert loadgen.percentile([7.0], 0.99) == 7.0
    assert loadgen.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert loadgen.samples_beyond(200, 0.95) == 10
    assert loadgen.samples_beyond(199, 0.95) == 9
    with pytest.raises(ValueError):
        loadgen.summarize([], elapsed=1.0)
