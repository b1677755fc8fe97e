"""Unit tests for the socket-free SPARQL Protocol logic.

Covers the three query transport forms, the ``timeout=`` extension, content
negotiation with q-values and wildcards, and the status/payload mapping of
protocol failures — all without starting a server.
"""

import pytest

from repro.server import ProtocolError, negotiate, parse_query_request
from repro.sparql.errors import (
    ERROR_BAD_REQUEST,
    ERROR_PARSE,
    ERROR_TIMEOUT,
    QueryTimeout,
    SparqlSyntaxError,
    error_code,
    error_payload,
)

QUERY = "SELECT ?s WHERE { ?s ?p ?o }"


class TestParseQueryRequest:
    def test_get_with_query_parameter(self):
        text, timeout = parse_query_request(
            "GET", "/sparql?query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D"
        )
        assert text == QUERY
        assert timeout is None

    def test_get_without_query_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("GET", "/sparql")
        assert excinfo.value.status == 400

    def test_get_with_duplicate_query_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("GET", "/sparql?query=a&query=b")
        assert excinfo.value.status == 400

    def test_post_direct_body(self):
        text, _timeout = parse_query_request(
            "POST", "/sparql",
            content_type="application/sparql-query; charset=utf-8",
            body=QUERY,
        )
        assert text == QUERY

    def test_post_form_encoded_body(self):
        text, timeout = parse_query_request(
            "POST", "/sparql",
            content_type="application/x-www-form-urlencoded",
            body="query=SELECT%20%2A%20WHERE%20%7B%7D&timeout=2.5",
        )
        assert text == "SELECT * WHERE {}"
        assert timeout == 2.5

    def test_post_unknown_content_type_is_415(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request(
                "POST", "/sparql", content_type="text/turtle", body=QUERY
            )
        assert excinfo.value.status == 415

    def test_unknown_method_is_405(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("PUT", "/sparql")
        assert excinfo.value.status == 405

    def test_empty_query_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("GET", "/sparql?query=%20%20")
        assert excinfo.value.status == 400

    def test_timeout_url_parameter(self):
        _text, timeout = parse_query_request(
            "GET", f"/sparql?query={QUERY}&timeout=5"
        )
        assert timeout == 5.0

    def test_timeout_capped_by_server_maximum(self):
        _text, timeout = parse_query_request(
            "GET", f"/sparql?query={QUERY}&timeout=600", max_timeout=30.0
        )
        assert timeout == 30.0

    def test_malformed_timeout_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("GET", f"/sparql?query={QUERY}&timeout=soon")
        assert excinfo.value.status == 400

    def test_negative_timeout_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request("GET", f"/sparql?query={QUERY}&timeout=-1")
        assert excinfo.value.status == 400


    @pytest.mark.parametrize("raw", ["nan", "NaN", "-nan"])
    def test_nan_timeout_is_400(self, raw):
        # min(nan, cap) is nan: without the check it escapes the cap.
        with pytest.raises(ProtocolError, match="NaN") as excinfo:
            parse_query_request("GET", f"/sparql?query={QUERY}&timeout={raw}",
                                max_timeout=0.005)
        assert excinfo.value.status == 400

    def test_infinite_timeout_is_capped(self):
        _text, timeout = parse_query_request(
            "GET", f"/sparql?query={QUERY}&timeout=inf", max_timeout=30.0
        )
        assert timeout == 30.0


class TestNegotiate:
    def test_absent_and_wildcard_default_to_json(self):
        assert negotiate(None) == "json"
        assert negotiate("") == "json"
        assert negotiate("*/*") == "json"

    @pytest.mark.parametrize("media, format", [
        ("application/sparql-results+json", "json"),
        ("application/sparql-results+xml", "xml"),
        ("text/csv", "csv"),
        ("text/tab-separated-values", "tsv"),
        ("application/json", "json"),
        ("application/xml", "xml"),
    ])
    def test_each_supported_media_type(self, media, format):
        assert negotiate(media) == format

    def test_quality_values_rank_choices(self):
        accept = "text/csv;q=0.5, application/sparql-results+xml;q=0.9"
        assert negotiate(accept) == "xml"

    def test_first_listed_wins_ties(self):
        assert negotiate("text/csv, application/sparql-results+xml") == "csv"

    def test_wildcard_fallback_behind_explicit_type(self):
        assert negotiate("text/csv;q=0.2, */*;q=0.1") == "csv"

    def test_specific_type_beats_earlier_wildcard_at_equal_quality(self):
        # RFC 7231 §5.3.2: media-range precedence, not list order.
        assert negotiate("*/*, text/csv") == "csv"
        assert negotiate("application/*, application/sparql-results+xml") == "xml"
        assert negotiate("*/*, text/*") == "csv"

    def test_text_wildcard_prefers_csv(self):
        assert negotiate("text/*") == "csv"

    def test_zero_quality_excludes_a_type(self):
        assert negotiate("text/csv;q=0, */*") == "json"

    def test_unsupported_only_is_406(self):
        with pytest.raises(ProtocolError) as excinfo:
            negotiate("text/html")
        assert excinfo.value.status == 406

    def test_browser_style_accept_resolves(self):
        accept = "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8"
        assert negotiate(accept) == "xml"


class TestErrorPayloads:
    def test_protocol_error_payload_shape(self):
        error = ProtocolError(400, "missing query parameter")
        payload = error.payload()
        assert payload["error"]["code"] == ERROR_BAD_REQUEST
        assert "missing query" in payload["error"]["message"]

    def test_syntax_error_classified_as_parse(self):
        error = SparqlSyntaxError("unexpected token", position=7)
        assert error_code(error) == ERROR_PARSE
        payload = error_payload(error)
        assert payload["error"]["code"] == ERROR_PARSE
        assert payload["error"]["position"] == 7

    def test_timeout_classified_with_budget(self):
        error = QueryTimeout(budget=1.5)
        assert error_code(error) == ERROR_TIMEOUT
        payload = error_payload(error)
        assert payload["error"]["code"] == ERROR_TIMEOUT
        assert payload["error"]["budget_seconds"] == 1.5

    def test_unknown_exception_is_internal(self):
        payload = error_payload(RuntimeError("boom"))
        assert payload["error"]["code"] == "internal_error"
        assert payload["error"]["message"] == "boom"