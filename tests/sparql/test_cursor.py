"""Unit tests for streaming result cursors, deadlines, and serializers."""

import json
from xml.etree import ElementTree

import pytest

from repro.rdf import BNode, Literal, URIRef, Variable
from repro.sparql import (
    AskCursor,
    AskResult,
    Binding,
    Deadline,
    QueryTimeout,
    SelectCursor,
    SelectResult,
    variable_name,
)
from repro.sparql import serializers

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def make_bindings():
    return [
        Binding({"s": URIRef("http://x/a"), "name": Literal("Alice", datatype=XSD_STRING)}),
        Binding({"s": BNode("b0"), "name": Literal("Bob", language="en")}),
        Binding({"s": URIRef("http://x/c")}),
    ]


def make_cursor(**kwargs):
    return SelectCursor([Variable("s"), Variable("name")], iter(make_bindings()), **kwargs)


class TestVariableName:
    def test_normalizes_variables_and_strings(self):
        assert variable_name(Variable("x")) == "x"
        assert variable_name("?x") == "x"
        assert variable_name("$x") == "x"
        assert variable_name("x") == "x"


class TestSelectCursor:
    def test_streams_bindings_in_order(self):
        cursor = make_cursor()
        assert list(cursor) == make_bindings()
        assert cursor.count == 3

    def test_iterate_once_then_exhausted(self):
        cursor = make_cursor()
        list(cursor)
        assert list(cursor) == []
        assert cursor.closed

    def test_rows_follow_projection_order(self):
        rows = list(make_cursor().rows())
        assert rows[0] == (URIRef("http://x/a"), Literal("Alice", datatype=XSD_STRING))
        assert rows[2] == (URIRef("http://x/c"), None)

    def test_first_returns_one_binding_and_closes(self):
        cursor = make_cursor()
        first = cursor.first()
        assert first == make_bindings()[0]
        assert cursor.closed
        assert cursor.first() is None

    def test_all_materializes_select_result(self):
        result = make_cursor().all()
        assert isinstance(result, SelectResult)
        assert len(result) == 3
        assert result.variables == [Variable("s"), Variable("name")]

    def test_all_after_partial_consumption_returns_remainder(self):
        cursor = make_cursor()
        next(cursor)
        assert len(cursor.all()) == 2

    def test_close_stops_iteration(self):
        cursor = make_cursor()
        next(cursor)
        cursor.close()
        assert list(cursor) == []

    def test_context_manager_closes(self):
        with make_cursor() as cursor:
            next(cursor)
        assert cursor.closed

    def test_lazy_pull_from_generator(self):
        produced = []

        def generate():
            for binding in make_bindings():
                produced.append(binding)
                yield binding

        cursor = SelectCursor([Variable("s")], generate())
        assert produced == []
        next(cursor)
        assert len(produced) == 1

    def test_expired_deadline_raises_mid_stream(self):
        cursor = make_cursor(deadline=Deadline(0.0))
        with pytest.raises(QueryTimeout):
            list(cursor)

    def test_generous_deadline_passes(self):
        cursor = make_cursor(deadline=Deadline(60.0))
        assert len(list(cursor)) == 3

    def test_rows_cross_in_growing_batches(self):
        produced = []

        def generate():
            for index in range(5000):
                produced.append(index)
                yield Binding({"s": Literal(index)})

        cursor = SelectCursor([Variable("s")], generate())
        next(cursor)
        assert (len(produced), cursor.count) == (1, 1)   # first() / LIMIT 1 stay lazy
        next(cursor)
        assert len(produced) == 3
        for _ in range(10):
            next(cursor)
        assert len(produced) < 20                        # ... and grow from there
        assert len(list(cursor)) == 5000 - 12
        assert cursor.count == 5000 and cursor.closed

    def test_deadline_is_checked_per_batch_and_at_exhaustion(self):
        class CountingDeadline(Deadline):
            __slots__ = ("checks",)

            def check(self):
                self.checks = getattr(self, "checks", 0) + 1
                super().check()

        deadline = CountingDeadline(60.0)
        rows = [Binding({"s": Literal(index)}) for index in range(5000)]
        cursor = SelectCursor([Variable("s")], iter(rows), deadline=deadline)
        assert list(cursor) == rows
        # 1 + 2 + ... + 512 rows in ten batches, four of <= 1024, one empty.
        assert deadline.checks == 15

    def test_deadline_expiring_between_batches_raises_mid_stream(self):
        deadline = Deadline(60.0)
        delivered = []

        def generate():
            for binding in make_bindings():
                yield binding
                deadline.expires_at = 0.0            # expires after row one

        cursor = SelectCursor([Variable("s")], generate(), deadline=deadline)
        with pytest.raises(QueryTimeout):
            for binding in cursor:
                delivered.append(binding)
        assert len(delivered) <= 1


class TestAskCursor:
    def test_boolean_protocol(self):
        assert bool(AskCursor(True)) is True
        assert bool(AskCursor(False)) is False

    def test_all_returns_ask_result(self):
        assert AskCursor(True).all() == AskResult(True)

    def test_first_returns_value(self):
        assert AskCursor(True).first() is True
        assert AskCursor(False).first() is False

    def test_rows_yield_single_boolean_row(self):
        assert list(AskCursor(True).rows()) == [(True,)]


class TestDeadline:
    def test_resolve_accepts_seconds_and_none(self):
        assert Deadline.resolve(None) is None
        assert isinstance(Deadline.resolve(1.5), Deadline)
        deadline = Deadline(3.0)
        assert Deadline.resolve(deadline) is deadline

    def test_unbounded_deadline_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired()
        deadline.check()  # must not raise
        assert deadline.remaining() is None

    def test_expired_check_raises_with_budget(self):
        deadline = Deadline(0.0)
        with pytest.raises(QueryTimeout) as info:
            deadline.check()
        assert info.value.budget == 0.0

    def test_nan_budget_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Deadline(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            Deadline.resolve("nan")

    def test_guard_checks_every_item(self):
        deadline = Deadline(0.0)
        with pytest.raises(QueryTimeout):
            list(deadline.guard([1, 2, 3]))


class TestJsonSerialization:
    def test_select_document_shape(self):
        document = json.loads(make_cursor().serialize("json"))
        assert document["head"]["vars"] == ["s", "name"]
        bindings = document["results"]["bindings"]
        assert bindings[0]["s"] == {"type": "uri", "value": "http://x/a"}
        assert bindings[0]["name"] == {
            "type": "literal", "value": "Alice", "datatype": XSD_STRING,
        }
        assert bindings[1]["s"] == {"type": "bnode", "value": "b0"}
        assert bindings[1]["name"] == {
            "type": "literal", "value": "Bob", "xml:lang": "en",
        }
        assert "name" not in bindings[2]  # unbound variables are omitted

    def test_ask_document_shape(self):
        assert json.loads(AskCursor(True).serialize("json")) == {
            "head": {}, "boolean": True,
        }
        assert json.loads(AskResult(False).serialize("json")) == {
            "head": {}, "boolean": False,
        }


class TestCsvTsvSerialization:
    def test_csv_uses_plain_lexical_forms_and_crlf(self):
        text = make_cursor().serialize("csv")
        lines = text.split("\r\n")
        assert lines[0] == "s,name"
        assert lines[1] == "http://x/a,Alice"
        assert lines[2] == "_:b0,Bob"
        assert lines[3] == "http://x/c,"

    def test_tsv_uses_n3_syntax(self):
        text = make_cursor().serialize("tsv")
        lines = text.splitlines()
        assert lines[0] == "?s\t?name"
        assert lines[1] == f'<http://x/a>\t"Alice"^^<{XSD_STRING}>'
        assert lines[3] == "<http://x/c>\t"

    def test_ask_csv_and_tsv(self):
        assert AskCursor(True).serialize("csv") == "true\r\n"
        assert AskCursor(False).serialize("tsv") == "false\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            make_cursor().serialize("yaml")


class TestXmlSerialization:
    NS = "{http://www.w3.org/2005/sparql-results#}"

    def test_select_document_shape(self):
        root = ElementTree.fromstring(make_cursor().serialize("xml"))
        assert root.tag == f"{self.NS}sparql"
        head = root.find(f"{self.NS}head")
        assert [v.get("name") for v in head] == ["s", "name"]
        results = root.find(f"{self.NS}results").findall(f"{self.NS}result")
        assert len(results) == 3
        first = {b.get("name"): b[0] for b in results[0]}
        assert first["s"].tag == f"{self.NS}uri"
        assert first["s"].text == "http://x/a"
        assert first["name"].tag == f"{self.NS}literal"
        assert first["name"].text == "Alice"
        assert first["name"].get("datatype") == XSD_STRING
        second = {b.get("name"): b[0] for b in results[1]}
        assert second["s"].tag == f"{self.NS}bnode"
        assert second["s"].text == "b0"
        lang = "{http://www.w3.org/XML/1998/namespace}lang"
        assert second["name"].get(lang) == "en"
        # Unbound variables are omitted, not emitted empty.
        assert [b.get("name") for b in results[2]] == ["s"]

    def test_ask_document_shape(self):
        root = ElementTree.fromstring(AskCursor(True).serialize("xml"))
        assert root.find(f"{self.NS}boolean").text == "true"
        root = ElementTree.fromstring(AskResult(False).serialize("xml"))
        assert root.find(f"{self.NS}boolean").text == "false"

    def test_special_characters_escaped(self):
        cursor = SelectCursor(
            [Variable("v")],
            iter([Binding({"v": Literal('a<b>&"c"', language="en-GB")})]),
        )
        document = cursor.serialize("xml")
        root = ElementTree.fromstring(document)  # well-formed despite <>&"
        literal = root.find(f".//{self.NS}literal")
        assert literal.text == 'a<b>&"c"'


class TestEagerStreamingParity:
    """Eager containers and cursors emit byte-identical documents."""

    @pytest.mark.parametrize("format", serializers.FORMATS)
    def test_select_result_matches_cursor(self, format):
        eager = SelectResult([Variable("s"), Variable("name")], make_bindings())
        assert eager.serialize(format) == make_cursor().serialize(format)

    def test_cursor_all_keeps_multiset_equality(self):
        eager = SelectResult([Variable("s"), Variable("name")], make_bindings())
        assert make_cursor().all() == eager
