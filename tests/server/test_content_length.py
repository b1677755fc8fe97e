"""A request body is read only as far as a sane Content-Length announces.

Both POST endpoints share one body reader: a length that is not a
non-negative integer is a structured 400, one above the cap a 413, and in
neither case does a pool worker sit in ``rfile.read`` waiting for bytes the
client never sends.
"""

import http.client
import json
import socket

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.server.http import MAX_BODY_BYTES
from repro.store import MvccStore

WORKERS = 2
ENDPOINTS = {
    "/sparql": "application/sparql-query",
    "/update": "application/sparql-update",
}


@pytest.fixture(scope="module")
def server():
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
    engine.store = MvccStore(engine.store)
    with SparqlServer(engine, port=0, workers=WORKERS,
                      default_timeout=10.0) as live:
        yield live


def post(server, path, content_length, body=b""):
    """POST with a hand-written Content-Length; returns (status, payload)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", ENDPOINTS[path])
        connection.putheader("Content-Length", content_length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.mark.parametrize("path", ENDPOINTS)
class TestContentLength:
    @pytest.mark.parametrize("declared", ("abc", "12.5", "-1", "-4096"))
    def test_malformed_or_negative_is_400(self, server, path, declared):
        status, payload = post(server, path, declared)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert declared in payload["error"]["message"]

    def test_oversized_is_413_before_the_body_is_read(self, server, path):
        status, payload = post(server, path, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert payload["error"]["code"] == "bad_request"
        assert str(MAX_BODY_BYTES) in payload["error"]["message"]

    def test_a_body_at_the_cap_is_still_read(self, server, path):
        body = b"#" * MAX_BODY_BYTES        # one long comment: a parse error
        status, payload = post(server, path, str(len(body)), body)
        assert status == 400
        assert payload["error"]["code"] == "parse_error"

    def test_health_answers_while_negative_length_requests_stay_open(
            self, server, path):
        """One open ``Content-Length: -1`` request per worker used to park
        the whole pool until the clients hung up."""
        held = []
        try:
            for _worker in range(WORKERS):
                client = socket.create_connection((server.host, server.port),
                                                  timeout=5.0)
                client.sendall(
                    f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Type: {ENDPOINTS[path]}\r\n"
                    "Content-Length: -1\r\n\r\n".encode("ascii"))
                held.append(client)
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=3.0)
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            finally:
                connection.close()
            # The held requests were answered and their connections closed
            # by the server, not by us.
            for client in held:
                answer = b""
                while chunk := client.recv(4096):
                    answer += chunk
                assert answer.startswith(b"HTTP/1.1 400 ")
        finally:
            for client in held:
                client.close()
