"""Unit tests for RDF term types."""

import pytest

from repro.rdf import (
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Literal,
    TermError,
    URIRef,
    Variable,
    term_sort_key,
)


class TestURIRef:
    def test_value_is_stored(self):
        uri = URIRef("http://example.org/a")
        assert uri.value == "http://example.org/a"

    def test_n3_form(self):
        assert URIRef("http://example.org/a").n3() == "<http://example.org/a>"

    def test_str_returns_value(self):
        assert str(URIRef("http://example.org/a")) == "http://example.org/a"

    def test_equality_by_value(self):
        assert URIRef("http://x/a") == URIRef("http://x/a")
        assert URIRef("http://x/a") != URIRef("http://x/b")

    def test_hashable_and_usable_as_dict_key(self):
        mapping = {URIRef("http://x/a"): 1}
        assert mapping[URIRef("http://x/a")] == 1

    def test_not_equal_to_literal_with_same_text(self):
        assert URIRef("http://x/a") != Literal("http://x/a")

    def test_empty_value_rejected(self):
        with pytest.raises(TermError):
            URIRef("")

    def test_non_string_rejected(self):
        with pytest.raises(TermError):
            URIRef(42)

    def test_forbidden_characters_rejected(self):
        with pytest.raises(TermError):
            URIRef("http://example.org/has space")

    def test_is_immutable(self):
        uri = URIRef("http://x/a")
        with pytest.raises(AttributeError):
            uri.value = "http://x/b"

    def test_is_ground(self):
        assert URIRef("http://x/a").is_ground()


class TestBNode:
    def test_label_is_stored(self):
        assert BNode("n1").label == "n1"

    def test_n3_form(self):
        assert BNode("n1").n3() == "_:n1"

    def test_equality_by_label(self):
        assert BNode("a") == BNode("a")
        assert BNode("a") != BNode("b")

    def test_not_equal_to_uri(self):
        assert BNode("a") != URIRef("http://x/a")

    def test_empty_label_rejected(self):
        with pytest.raises(TermError):
            BNode("")

    def test_is_immutable(self):
        node = BNode("a")
        with pytest.raises(AttributeError):
            node.label = "b"


class TestLiteral:
    def test_plain_literal(self):
        literal = Literal("hello")
        assert literal.lexical == "hello"
        assert literal.datatype is None
        assert literal.language is None

    def test_typed_literal(self):
        literal = Literal("5", datatype=XSD_INTEGER)
        assert literal.to_python() == 5

    def test_empty_language_tag_or_datatype_is_absent(self):
        # One rule for every encoder: absent is None, "" is normalized to it
        # (n3() used to drop an empty tag that the JSON/XML writers emitted).
        literal = Literal("chat", language="")
        assert literal.language is None
        assert literal == Literal("chat") and hash(literal) == hash(Literal("chat"))
        assert literal.n3() == '"chat"'
        assert Literal("5", datatype="").datatype is None
        assert Literal("chat", datatype="", language="fr").n3() == '"chat"@fr'

    def test_int_constructor_assigns_integer_datatype(self):
        literal = Literal(7)
        assert literal.datatype == XSD_INTEGER
        assert literal.to_python() == 7

    def test_float_constructor_assigns_double_datatype(self):
        literal = Literal(2.5)
        assert literal.to_python() == pytest.approx(2.5)

    def test_bool_constructor_assigns_boolean_datatype(self):
        assert Literal(True).datatype == XSD_BOOLEAN
        assert Literal(True).to_python() is True
        assert Literal(False).to_python() is False

    def test_language_tag(self):
        literal = Literal("bonjour", language="fr")
        assert literal.language == "fr"
        assert literal.n3() == '"bonjour"@fr'

    def test_datatype_and_language_exclusive(self):
        with pytest.raises(TermError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_datatype_uriref_accepted(self):
        literal = Literal("5", datatype=URIRef(XSD_INTEGER))
        assert literal.datatype == XSD_INTEGER

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_typed(self):
        expected = f'"5"^^<{XSD_INTEGER}>'
        assert Literal("5", datatype=XSD_INTEGER).n3() == expected

    def test_n3_escapes_quotes_and_newlines(self):
        literal = Literal('say "hi"\nplease')
        assert '\\"hi\\"' in literal.n3()
        assert "\\n" in literal.n3()

    def test_equality_considers_datatype(self):
        assert Literal("5") != Literal("5", datatype=XSD_INTEGER)
        assert Literal("5", datatype=XSD_INTEGER) == Literal("5", datatype=XSD_INTEGER)

    def test_malformed_integer_falls_back_to_lexical(self):
        literal = Literal("not-a-number", datatype=XSD_INTEGER)
        assert literal.to_python() == "not-a-number"

    def test_is_numeric(self):
        assert Literal(3).is_numeric()
        assert not Literal("3").is_numeric()

    def test_numeric_sort_key_orders_by_value(self):
        low = Literal(2)
        high = Literal(10)
        assert low.sort_key() < high.sort_key()

    def test_string_sort_key_orders_lexically(self):
        assert Literal("apple").sort_key() < Literal("banana").sort_key()

    def test_non_string_lexical_rejected(self):
        with pytest.raises(TermError):
            Literal(object())


class TestVariable:
    def test_name_without_prefix(self):
        assert Variable("?x").name == "x"
        assert Variable("$y").name == "y"
        assert Variable("z").name == "z"

    def test_n3_form(self):
        assert Variable("x").n3() == "?x"

    def test_equality(self):
        assert Variable("?x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_not_ground(self):
        assert not Variable("x").is_ground()

    def test_empty_name_rejected(self):
        with pytest.raises(TermError):
            Variable("?")

    def test_nonstring_rejected(self):
        with pytest.raises(TermError):
            Variable(1)


class TestSortKeys:
    def test_order_blank_before_uri_before_literal(self):
        bnode_key = BNode("a").sort_key()
        uri_key = URIRef("http://x/a").sort_key()
        literal_key = Literal("a").sort_key()
        assert bnode_key < uri_key < literal_key

    def test_term_sort_key_handles_none(self):
        assert term_sort_key(None) < BNode("a").sort_key()

    def test_term_sort_key_matches_method(self):
        uri = URIRef("http://x/a")
        assert term_sort_key(uri) == uri.sort_key()
