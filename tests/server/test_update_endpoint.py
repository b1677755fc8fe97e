"""SPARQL Update over HTTP: the ``/update`` endpoint against live servers.

A writable server (MVCC-wrapped store) takes updates over both transport
forms and makes them visible to subsequent protocol queries; a read-only
server refuses them with the structured 403. Error responses carry the
machine-readable payloads the protocol module defines.
"""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import SparqlEngine, SparqlServer, generate_graph
from repro.store import MvccStore

UPDATE_TYPE = "application/sparql-update"
FORM_TYPE = "application/x-www-form-urlencoded"

INSERT = ('PREFIX ex: <http://test.example/>\n'
          'INSERT DATA { ex:s ex:p "endpoint check" . }')
PROBE = ('PREFIX ex: <http://test.example/>\n'
         'SELECT ?o WHERE { ex:s ex:p ?o }')


@pytest.fixture()
def server():
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
    engine.store = MvccStore(engine.store)
    with SparqlServer(engine, port=0, workers=2,
                      default_timeout=10.0) as live:
        yield live


@pytest.fixture()
def read_only_server():
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=500))
    with SparqlServer(engine, port=0, workers=2, read_only=True) as live:
        yield live


def fetch(url, data=None, headers=None, method=None):
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def post_update(server, text, content_type=UPDATE_TYPE):
    if content_type == FORM_TYPE:
        data = urllib.parse.urlencode({"update": text}).encode("utf-8")
    else:
        data = text.encode("utf-8")
    return fetch(server.update_url, data=data,
                 headers={"Content-Type": content_type})


def run_query(server, text):
    url = f"{server.url}?{urllib.parse.urlencode({'query': text})}"
    status, body = fetch(
        url, headers={"Accept": "application/sparql-results+json"}
    )
    assert status == 200, body
    return json.loads(body)["results"]["bindings"]


class TestWritableServer:
    def test_insert_then_read_back(self, server):
        status, body = post_update(server, INSERT)
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["operation"] == "INSERT DATA"
        assert payload["inserted"] == 1
        rows = run_query(server, PROBE)
        assert [row["o"]["value"] for row in rows] == ["endpoint check"]

    def test_form_encoded_transport(self, server):
        status, body = post_update(server, INSERT, content_type=FORM_TYPE)
        assert status == 200
        assert json.loads(body)["inserted"] == 1

    def test_version_advances_and_health_reports_it(self, server):
        _status, before = fetch(server.health_url)
        post_update(server, INSERT)
        _status, after = fetch(server.health_url)
        before, after = json.loads(before), json.loads(after)
        assert after["version"] == before["version"] + 1
        assert after["read_only"] is False

    def test_delete_where_roundtrip(self, server):
        post_update(server, INSERT)
        status, body = post_update(
            server,
            'PREFIX ex: <http://test.example/>\n'
            'DELETE WHERE { ex:s ex:p ?o }',
        )
        assert status == 200
        assert json.loads(body)["deleted"] == 1
        assert run_query(server, PROBE) == []

    def test_malformed_update_is_structured_400(self, server):
        status, body = post_update(server, "INSERT GARBAGE { }")
        assert status == 400
        payload = json.loads(body)
        assert payload["error"]["code"] == "parse_error"

    @pytest.mark.parametrize("term", ["<>", r'"\uzzzz"'])
    def test_empty_iri_and_bad_escape_are_parse_errors(self, server, term):
        # Any error but a SparqlError would be a 500.
        status, body = post_update(
            server, f"INSERT DATA {{ <http://x/a> <http://x/b> {term} }}")
        assert (status, json.loads(body)["error"]["code"]) == (400, "parse_error")
        url = (f"{server.url}?"
               + urllib.parse.urlencode({"query": f"SELECT ?s WHERE {{ ?s ?p {term} }}"}))
        status, body = fetch(url, headers={"Accept": "application/sparql-results+json"})
        assert (status, json.loads(body)["error"]["code"]) == (400, "parse_error")

    def test_get_update_is_405(self, server):
        status, body = fetch(server.update_url)
        assert status == 405
        assert "POST" in json.loads(body)["error"]["message"]

    def test_wrong_content_type_is_415(self, server):
        status, body = fetch(
            server.update_url, data=INSERT.encode("utf-8"),
            headers={"Content-Type": "text/plain"},
        )
        assert status == 415
        assert "error" in json.loads(body)

    def test_missing_update_parameter_is_400(self, server):
        status, body = fetch(
            server.update_url,
            data=urllib.parse.urlencode({"query": PROBE}).encode("utf-8"),
            headers={"Content-Type": FORM_TYPE},
        )
        assert status == 400


class TestReadOnlyServer:
    def test_update_rejected_with_403(self, read_only_server):
        status, body = post_update(read_only_server, INSERT)
        assert status == 403
        assert json.loads(body)["error"]["code"] == "read_only"

    def test_queries_still_served(self, read_only_server):
        rows = run_query(
            read_only_server,
            "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1",
        )
        assert len(rows) == 1

    def test_health_reports_read_only(self, read_only_server):
        _status, body = fetch(read_only_server.health_url)
        assert json.loads(body)["read_only"] is True

    def test_rejection_keeps_connection_usable(self, read_only_server):
        # The 403 path must drain the request body, or a keep-alive client's
        # next request would desync (the bug the mixed workload surfaced).
        import http.client

        parts = urllib.parse.urlsplit(read_only_server.url)
        connection = http.client.HTTPConnection(parts.hostname, parts.port,
                                                timeout=10.0)
        try:
            for _ in range(3):
                connection.request(
                    "POST", "/update", body=INSERT.encode("utf-8"),
                    headers={"Content-Type": UPDATE_TYPE},
                )
                response = connection.getresponse()
                assert response.status == 403
                response.read()
                connection.request(
                    "POST", "/sparql",
                    body=b"ASK { ?s ?p ?o }",
                    headers={"Content-Type": "application/sparql-query"},
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
