"""Unit tests for FILTER expression evaluation."""

import pytest

from repro.rdf import BNode, Literal, URIRef, Variable
from repro.sparql import Binding, ExpressionError
from repro.sparql import ast
from repro.sparql.expressions import effective_boolean_value, evaluate

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def var(name):
    return ast.TermExpression(Variable(name))


def const(term):
    return ast.TermExpression(term)


def compare(op, left, right):
    return ast.Comparison(op, left, right)


BINDING = Binding({
    "uri_a": URIRef("http://x/a"),
    "uri_b": URIRef("http://x/b"),
    "five": Literal("5", datatype=XSD_INTEGER),
    "ten": Literal("10", datatype=XSD_INTEGER),
    "name_a": Literal("Alice", datatype=XSD_STRING),
    "name_b": Literal("Bob", datatype=XSD_STRING),
    "plain": Literal("Alice"),
    "bnode": BNode("n1"),
})


class TestTermEvaluation:
    def test_constant_evaluates_to_itself(self):
        assert evaluate(const(Literal("x")), BINDING) == Literal("x")

    def test_variable_resolves_from_binding(self):
        assert evaluate(var("five"), BINDING) == Literal("5", datatype=XSD_INTEGER)

    def test_unbound_variable_raises_expression_error(self):
        with pytest.raises(ExpressionError):
            evaluate(var("missing"), BINDING)


class TestComparisons:
    def test_numeric_less_than(self):
        assert evaluate(compare("<", var("five"), var("ten")), BINDING) is True
        assert evaluate(compare("<", var("ten"), var("five")), BINDING) is False

    def test_numeric_greater_equal(self):
        assert evaluate(compare(">=", var("ten"), var("ten")), BINDING) is True

    def test_string_ordering(self):
        assert evaluate(compare("<", var("name_a"), var("name_b")), BINDING) is True

    def test_equality_of_typed_and_plain_string_by_value(self):
        # SPARQL "=" compares simple literals and xsd:string by value.
        assert evaluate(compare("=", var("plain"), var("name_a")), BINDING) is True

    def test_equality_of_uris(self):
        assert evaluate(compare("=", var("uri_a"), var("uri_a")), BINDING) is True
        assert evaluate(compare("=", var("uri_a"), var("uri_b")), BINDING) is False

    def test_inequality_of_uris(self):
        assert evaluate(compare("!=", var("uri_a"), var("uri_b")), BINDING) is True

    def test_inequality_of_bnodes(self):
        assert evaluate(compare("!=", var("bnode"), var("uri_a")), BINDING) is True

    def test_numeric_equality_across_lexical_forms(self):
        binding = Binding({"a": Literal("05", datatype=XSD_INTEGER),
                           "b": Literal("5", datatype=XSD_INTEGER)})
        assert evaluate(compare("=", var("a"), var("b")), binding) is True

    def test_ordering_uri_raises_type_error(self):
        with pytest.raises(ExpressionError):
            evaluate(compare("<", var("uri_a"), var("uri_b")), BINDING)

    def test_ordering_number_against_string_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(compare("<", var("five"), var("name_a")), BINDING)

    def test_equality_literal_and_uri_is_false(self):
        # RDFterm-equal: an IRI never equals a literal, so != holds.
        assert evaluate(compare("=", var("five"), var("uri_a")), BINDING) is False
        assert evaluate(compare("!=", var("five"), var("uri_a")), BINDING) is True


class TestLogicalOperators:
    def test_and_true(self):
        expr = ast.And(compare("<", var("five"), var("ten")),
                       compare("!=", var("uri_a"), var("uri_b")))
        assert evaluate(expr, BINDING) is True

    def test_and_false_short_circuits_error(self):
        # false && error -> false (SPARQL three-valued logic).
        expr = ast.And(compare(">", var("five"), var("ten")), var("missing"))
        assert evaluate(expr, BINDING) is False

    def test_and_error_with_true_raises(self):
        expr = ast.And(compare("<", var("five"), var("ten")), var("missing"))
        with pytest.raises(ExpressionError):
            evaluate(expr, BINDING)

    def test_or_true_absorbs_error(self):
        expr = ast.Or(compare("<", var("five"), var("ten")), var("missing"))
        assert evaluate(expr, BINDING) is True

    def test_or_false(self):
        expr = ast.Or(compare(">", var("five"), var("ten")),
                      compare("=", var("uri_a"), var("uri_b")))
        assert evaluate(expr, BINDING) is False

    def test_not(self):
        expr = ast.Not(compare(">", var("five"), var("ten")))
        assert evaluate(expr, BINDING) is True


class TestBound:
    def test_bound_true_for_bound_variable(self):
        assert evaluate(ast.Bound(Variable("five")), BINDING) is True

    def test_bound_false_for_unbound_variable(self):
        assert evaluate(ast.Bound(Variable("missing")), BINDING) is False

    def test_not_bound_implements_negation_idiom(self):
        expr = ast.Not(ast.Bound(Variable("missing")))
        assert effective_boolean_value(expr, BINDING) is True


class TestRegex:
    def test_regex_match(self):
        expr = ast.Regex(var("name_a"), const(Literal("^Ali")))
        assert evaluate(expr, BINDING) is True

    def test_regex_no_match(self):
        expr = ast.Regex(var("name_a"), const(Literal("^Bob")))
        assert evaluate(expr, BINDING) is False

    def test_regex_case_insensitive_flag(self):
        expr = ast.Regex(var("name_a"), const(Literal("^alice")), const(Literal("i")))
        assert evaluate(expr, BINDING) is True

    def test_regex_on_uri_raises(self):
        expr = ast.Regex(var("uri_a"), const(Literal("a")))
        with pytest.raises(ExpressionError):
            evaluate(expr, BINDING)

    def test_invalid_pattern_raises(self):
        expr = ast.Regex(var("name_a"), const(Literal("(" )))
        with pytest.raises(ExpressionError):
            evaluate(expr, BINDING)


class TestEffectiveBooleanValue:
    def test_type_error_maps_to_false(self):
        assert effective_boolean_value(var("missing"), BINDING) is False

    def test_boolean_literal(self):
        assert effective_boolean_value(const(Literal(True)), BINDING) is True
        assert effective_boolean_value(const(Literal(False)), BINDING) is False

    def test_nonempty_string_is_true_empty_is_false(self):
        assert effective_boolean_value(const(Literal("x")), BINDING) is True
        assert effective_boolean_value(const(Literal("")), BINDING) is False

    def test_nonzero_number_is_true_zero_is_false(self):
        assert effective_boolean_value(const(Literal(3)), BINDING) is True
        assert effective_boolean_value(const(Literal(0)), BINDING) is False

    def test_uri_has_no_boolean_value(self):
        assert effective_boolean_value(const(URIRef("http://x/a")), BINDING) is False
