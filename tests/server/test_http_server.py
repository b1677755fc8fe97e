"""SPARQL Protocol conformance tests against a live server.

One server (ephemeral port, small generated document) serves the whole
module; the tests exercise both query transport forms, all four result
content types, the structured 400/503/404/406/415 failure responses, and
concurrent clients sharing the worker pool.
"""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from xml.etree import ElementTree

import pytest

import oracle
from repro import SparqlEngine, SparqlServer, generate_graph, get_query
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.sparql import (
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
)

SELECT_QUERY = get_query("Q1").text       # one row: the year literal "1940"
ASK_QUERY = get_query("Q12a").text        # ASK with a non-empty pattern

RESULTS_NS = "{http://www.w3.org/2005/sparql-results#}"


@pytest.fixture(scope="module")
def server():
    engine = SparqlEngine.from_graph(generate_graph(triple_limit=1_000))
    with SparqlServer(engine, port=0, workers=4, default_timeout=10.0) as live:
        yield live


def fetch(url, data=None, headers=None, method=None):
    """One request; returns (status, content type, decoded body)."""
    request = urllib.request.Request(
        url, data=data, headers=headers or {}, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.headers["Content-Type"], \
                response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], \
            error.read().decode("utf-8")


def query_url(server, text, **extra):
    parameters = {"query": text, **extra}
    return f"{server.url}?{urllib.parse.urlencode(parameters)}"


class TestQueryForms:
    def test_get_with_query_parameter(self, server):
        status, content_type, body = fetch(query_url(server, SELECT_QUERY))
        assert status == 200
        assert content_type == "application/sparql-results+json"
        document = json.loads(body)
        assert document["head"]["vars"] == ["yr"]
        values = [b["yr"]["value"] for b in document["results"]["bindings"]]
        assert values == ["1940"]

    def test_post_direct_sparql_query_body(self, server):
        status, _type, body = fetch(
            server.url,
            data=SELECT_QUERY.encode("utf-8"),
            headers={"Content-Type": "application/sparql-query"},
        )
        assert status == 200
        assert json.loads(body)["head"]["vars"] == ["yr"]

    def test_post_form_encoded_body(self, server):
        encoded = urllib.parse.urlencode({"query": SELECT_QUERY}).encode("ascii")
        status, _type, body = fetch(
            server.url,
            data=encoded,
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
        assert status == 200
        assert json.loads(body)["head"]["vars"] == ["yr"]

    def test_get_and_post_agree(self, server):
        _s1, _t1, get_body = fetch(query_url(server, SELECT_QUERY))
        _s2, _t2, post_body = fetch(
            server.url,
            data=SELECT_QUERY.encode("utf-8"),
            headers={"Content-Type": "application/sparql-query"},
        )
        assert get_body == post_body

    def test_ask_form(self, server):
        status, _type, body = fetch(query_url(server, ASK_QUERY))
        assert status == 200
        assert isinstance(json.loads(body)["boolean"], bool)


class TestContentNegotiation:
    @pytest.mark.parametrize("accept, expected_type", [
        ("application/sparql-results+json", "application/sparql-results+json"),
        ("application/sparql-results+xml", "application/sparql-results+xml"),
        ("text/csv", "text/csv; charset=utf-8"),
        ("text/tab-separated-values", "text/tab-separated-values; charset=utf-8"),
    ])
    def test_all_four_result_formats(self, server, accept, expected_type):
        status, content_type, body = fetch(
            query_url(server, SELECT_QUERY), headers={"Accept": accept}
        )
        assert status == 200
        assert content_type == expected_type
        assert body  # every format carries a non-empty document

    def test_xml_body_is_well_formed_sparql_results(self, server):
        _status, _type, body = fetch(
            query_url(server, SELECT_QUERY),
            headers={"Accept": "application/sparql-results+xml"},
        )
        root = ElementTree.fromstring(body)
        assert root.tag == f"{RESULTS_NS}sparql"
        literal = root.find(f".//{RESULTS_NS}literal")
        assert literal.text == "1940"

    def test_csv_body_has_header_and_row(self, server):
        _status, _type, body = fetch(
            query_url(server, SELECT_QUERY), headers={"Accept": "text/csv"}
        )
        lines = body.split("\r\n")
        assert lines[0] == "yr"
        assert lines[1] == "1940"

    def test_unsupported_accept_is_406(self, server):
        status, _type, body = fetch(
            query_url(server, SELECT_QUERY), headers={"Accept": "text/html"}
        )
        assert status == 406
        assert json.loads(body)["error"]["code"] == "bad_request"


class TestFailureResponses:
    def test_malformed_query_is_400_with_parse_payload(self, server):
        status, content_type, body = fetch(
            query_url(server, "SELECT WHERE broken {")
        )
        assert status == 400
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["error"]["code"] == "parse_error"
        assert payload["error"]["message"]

    def test_missing_query_parameter_is_400(self, server):
        status, _type, body = fetch(server.url)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("text", [
        SELECT_QUERY + " LIMIT 1.5", SELECT_QUERY + " OFFSET 1.5",
        "SELECT * WHERE { ?s ?p %s }" % ("9" * 4301)],
        ids=["limit-1.5", "offset-1.5", "4301-digits"])
    def test_a_malformed_number_is_a_parse_error(self, server, text):
        status, _type, body = fetch(server.url, data=text.encode("utf-8"),
                                    headers={"Content-Type": "application/sparql-query"})
        assert status == 400
        assert json.loads(body)["error"]["code"] == "parse_error"

    def test_limits_past_any_result_answer_all_or_nothing(self, server):
        everything = fetch(query_url(server, SELECT_QUERY))
        assert fetch(query_url(server, f"{SELECT_QUERY} LIMIT {10 ** 400}")) == everything
        status, _type, body = fetch(query_url(server, f"{SELECT_QUERY} OFFSET {10 ** 20}"))
        assert status == 200
        assert json.loads(body)["results"]["bindings"] == []

    def test_expired_deadline_is_503_with_timeout_payload(self, server):
        status, _type, body = fetch(query_url(server, SELECT_QUERY, timeout=0))
        assert status == 503
        payload = json.loads(body)
        assert payload["error"]["code"] == "timeout"
        assert payload["error"]["budget_seconds"] == 0.0

    def test_nan_timeout_is_400_not_an_unbounded_run(self, server):
        status, _type, body = fetch(query_url(server, SELECT_QUERY, timeout="nan"))
        assert status == 400
        payload = json.loads(body)
        assert payload["error"]["code"] == "bad_request"
        assert "NaN" in payload["error"]["message"]

    def test_unknown_path_is_404(self, server):
        root = server.url.rsplit("/sparql", 1)[0]
        status, _type, body = fetch(f"{root}/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_unsupported_post_content_type_is_415(self, server):
        status, _type, body = fetch(
            server.url,
            data=b"<rdf/>",
            headers={"Content-Type": "text/turtle"},
        )
        assert status == 415
        assert json.loads(body)["error"]["code"] == "bad_request"


class TestHealthAndConcurrency:
    def test_health_reports_engine_and_size(self, server):
        status, _type, body = fetch(server.health_url)
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["triples"] == len(server.engine.store)
        assert payload["workers"] == 4
        assert payload["uptime_seconds"] >= 0
        # The health request itself is being handled by a worker right now.
        assert payload["inflight"] >= 1
        assert 0 < payload["occupancy"] <= 1

    def test_concurrent_clients_get_identical_answers(self, server):
        url = query_url(server, SELECT_QUERY)
        results = [None] * 8
        errors = []

        def hit(index):
            try:
                results[index] = fetch(url)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [
            threading.Thread(target=hit, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        statuses = {status for status, _type, _body in results}
        bodies = {body for _status, _type, body in results}
        assert statuses == {200}
        assert len(bodies) == 1

class TestExpectContinue:
    def test_interim_response_arrives_before_the_body_is_sent(self, server):
        """Responses leave through a buffered writer; ``100 Continue`` must
        not sit in it while the client holds its body back."""
        body = SELECT_QUERY.encode("utf-8")
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as client:
            client.sendall(
                b"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/sparql-query\r\n"
                b"Expect: 100-continue\r\nConnection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii"))
            assert client.recv(4096).startswith(b"HTTP/1.1 100 ")
            client.sendall(body)
            answer = b""
            while chunk := client.recv(4096):
                answer += chunk
        assert answer.startswith(b"HTTP/1.1 200 ")
        assert b'"1940"' in answer


class TestBudgets:
    """A budget that would fail every request is refused at construction."""

    @pytest.fixture(scope="class")
    def engine(self):
        return SparqlEngine.from_graph(generate_graph(triple_limit=200))

    @pytest.mark.parametrize("name", ["default_timeout", "max_timeout"])
    @pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0, 0])
    def test_nan_zero_and_negative_raise(self, engine, name, budget):
        with pytest.raises(ValueError, match=f"{name} must be a positive"):
            SparqlServer(engine, port=0, **{name: budget})

    def test_a_held_port_raises_oserror(self, engine):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            with pytest.raises(OSError):
                SparqlServer(engine, port=held.getsockname()[1], workers=1)

    def test_zero_workers_raise_before_binding(self, engine):
        with pytest.raises(ValueError):
            SparqlServer(engine, port=0, workers=0)

    def test_infinite_and_absent_budgets_are_allowed(self, engine):
        for budgets in ({"default_timeout": float("inf")},
                        {"default_timeout": None, "max_timeout": float("inf")}):
            with SparqlServer(engine, port=0, workers=1, **budgets) as live:
                assert fetch(query_url(live, SELECT_QUERY))[0] == 200


#: An integer past double range (401 digits) compares, orders and averages
#: as infinity: a constant from the client must not make a 500.
HUGE = 10 ** 400
HUGE_QUERIES = {
    "filter": f"SELECT ?s WHERE {{ ?s <http://x/v> ?o FILTER (?o < {HUGE}) }}",
    "order-by": "SELECT ?s ?o WHERE { ?s <http://x/v> ?o } ORDER BY ?o",
    "avg": "SELECT (AVG(?o) AS ?avg) WHERE { ?s <http://x/v> ?o }",
}


@pytest.mark.parametrize("preset", [IN_MEMORY_BASELINE, IN_MEMORY_OPTIMIZED, NATIVE_BASELINE,
                                    NATIVE_OPTIMIZED, NATIVE_COST],
                         ids=lambda config: config.name)
def test_an_integer_past_double_range_is_answered_as_the_oracle_does(preset):
    triples = [Triple(URIRef(f"http://x/s{index}"), URIRef("http://x/v"), Literal(value))
               for index, value in enumerate((1, HUGE, 2.5))]
    engine = SparqlEngine.from_graph(Graph(triples), preset)
    with SparqlServer(engine, port=0, workers=1) as live:
        for name, text in HUGE_QUERIES.items():
            status, _type, body = fetch(query_url(live, text))
            assert status == 200, (name, body)
            rows = [{variable: cell["value"] for variable, cell in binding.items()}
                    for binding in json.loads(body)["results"]["bindings"]]
            expected = [{variable: str(term) for variable, term in solution.items()}
                        for solution in oracle.evaluate(text, triples)]
            if name == "order-by":
                assert rows == expected
            else:
                assert oracle.multiset(rows) == oracle.multiset(expected), name


class FailingOnce(SparqlEngine):
    """An engine whose statement cache raises on the first request."""

    failed = False

    def prepare_cached(self, query_text, **options):
        if not self.failed:
            self.failed = True
            raise RuntimeError("statement cache is broken")
        return super().prepare_cached(query_text, **options)


def test_an_escaping_exception_is_a_500_and_the_connection_keeps_serving():
    engine = FailingOnce.from_graph(generate_graph(triple_limit=300))
    with SparqlServer(engine, port=0, workers=1) as live:
        connection = http.client.HTTPConnection(live.host, live.port, timeout=10.0)
        try:
            answers, sockets = [], []
            for _request in range(2):
                connection.request("GET", "/sparql?" + urllib.parse.urlencode(
                    {"query": "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"}))
                response = connection.getresponse()
                answers.append((response.status, json.loads(response.read())))
                sockets.append(connection.sock)
        finally:
            connection.close()
    # Both answers came over one socket: the 500 did not close it.
    assert sockets[0] is not None and sockets[0] is sockets[1]
    (first, error), (second, result) = answers
    assert (first, error["error"]["code"]) == (500, "internal_error")
    assert "statement cache is broken" in error["error"]["message"]
    assert second == 200 and result["results"]["bindings"]
