"""Evaluation of FILTER expressions against a solution mapping.

Implements the SPARQL effective-boolean-value rules for the operator subset
the benchmark queries use: ``&&``, ``||``, ``!``, the six comparison
operators, ``bound()``, and ``regex()``.  Type errors (ordering a URI
against a number, using an unbound variable as an operand, …) raise
:class:`ExpressionError`, which callers interpret as *false* per the SPARQL
semantics — that is what makes ``FILTER (!bound(?x))`` the standard
closed-world-negation idiom used in Q6 and Q7.
"""

from __future__ import annotations

import re

from ..rdf.terms import BNode, Literal, URIRef, Variable
from . import ast
from .errors import ExpressionError


def evaluate(expression, binding):
    """Evaluate ``expression`` under ``binding``; returns a term or bool.

    Raises :class:`ExpressionError` for SPARQL type errors.
    """
    if isinstance(expression, ast.TermExpression):
        return _evaluate_term(expression.term, binding)
    if isinstance(expression, ast.Bound):
        return binding.is_bound(expression.variable)
    if isinstance(expression, ast.Not):
        return not _ebv_of(expression.operand, binding)
    if isinstance(expression, ast.And):
        # SPARQL's three-valued logic: an error on one side still yields
        # false if the other side is false.
        left = _ebv_or_error(expression.left, binding)
        right = _ebv_or_error(expression.right, binding)
        if left is False or right is False:
            return False
        if isinstance(left, ExpressionError) or isinstance(right, ExpressionError):
            raise ExpressionError("type error in && operand")
        return True
    if isinstance(expression, ast.Or):
        left = _ebv_or_error(expression.left, binding)
        right = _ebv_or_error(expression.right, binding)
        if left is True or right is True:
            return True
        if isinstance(left, ExpressionError) or isinstance(right, ExpressionError):
            raise ExpressionError("type error in || operand")
        return False
    if isinstance(expression, ast.Comparison):
        return _compare(
            expression.operator,
            evaluate(expression.left, binding),
            evaluate(expression.right, binding),
        )
    if isinstance(expression, ast.Regex):
        return _regex(expression, binding)
    raise ExpressionError(f"unsupported expression node: {expression!r}")


def effective_boolean_value(expression, binding):
    """Evaluate an expression as a FILTER condition.

    Returns a bool; SPARQL type errors map to ``False``.
    """
    try:
        return _to_boolean(evaluate(expression, binding))
    except ExpressionError:
        return False


# -- helpers --------------------------------------------------------------------


def _evaluate_term(term, binding):
    if isinstance(term, Variable):
        value = binding.get(term)
        if value is None:
            raise ExpressionError(f"unbound variable {term}")
        return value
    return term


def _ebv_of(expression, binding):
    return _to_boolean(evaluate(expression, binding))


def _ebv_or_error(expression, binding):
    try:
        return _ebv_of(expression, binding)
    except ExpressionError as error:
        return error


def _to_boolean(value):
    """SPARQL effective boolean value of an expression result."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        python_value = value.to_python()
        if isinstance(python_value, bool):
            return python_value
        if isinstance(python_value, (int, float)):
            return python_value != 0
        return len(value.lexical) > 0
    raise ExpressionError(f"no effective boolean value for {value!r}")


def _compare(operator, left, right):
    if operator == "=":
        return _equals(left, right)
    if operator == "!=":
        return not _equals(left, right)
    ordering = _order_values(left, right)
    if operator == "<":
        return ordering < 0
    if operator == ">":
        return ordering > 0
    if operator == "<=":
        return ordering <= 0
    if operator == ">=":
        return ordering >= 0
    raise ExpressionError(f"unknown comparison operator {operator!r}")


def _equals(left, right):
    """SPARQL ``=``: value equality for literals, term equality otherwise
    (RDFterm-equal: an IRI or blank node never equals a literal)."""
    left = _as_term(left)
    right = _as_term(right)
    if isinstance(left, Literal) and isinstance(right, Literal):
        left_value, right_value = left.to_python(), right.to_python()
        if _both_numbers(left_value, right_value):
            return float(left_value) == float(right_value)
        if isinstance(left_value, str) and isinstance(right_value, str):
            if left.language or right.language:
                return left == right
            return left_value == right_value
    return left == right


def value_key(term):
    """Canonical hash key of an RDF term under SPARQL ``=`` (value) equality.

    Two terms get the same key exactly when :func:`_equals` holds for them:
    numeric literals compare by value across datatypes, language-free
    string-valued literals by their string value, and everything else
    (URIs, blank nodes, language-tagged or boolean literals) by term
    identity.  NaN equals nothing, itself included: it has no key (None),
    which the joins treat like an unbound operand.
    The joins hash on this key to run ``FILTER (?a = ?b)`` as an equi-join.
    """
    if isinstance(term, Literal) and term.language is None:
        value = term.to_python()
        if isinstance(value, str):
            return ("str", value)
        if not isinstance(value, bool):
            number = float(value)
            return None if number != number else ("num", number)
    return ("term", term)


def _order_values(left, right):
    """Three-way comparison for the ordering operators."""
    left = _as_term(left)
    right = _as_term(right)
    if isinstance(left, Literal) and isinstance(right, Literal):
        left_value, right_value = left.to_python(), right.to_python()
        if _both_numbers(left_value, right_value):
            return (float(left_value) > float(right_value)) - (
                float(left_value) < float(right_value)
            )
        if isinstance(left_value, str) and isinstance(right_value, str):
            return (left_value > right_value) - (left_value < right_value)
        raise ExpressionError(
            f"cannot order literals {left!r} and {right!r} by value"
        )
    raise ExpressionError("ordering comparison requires two literals")


def _as_term(value):
    if isinstance(value, bool):
        return Literal(value)
    if isinstance(value, (URIRef, BNode, Literal)):
        return value
    raise ExpressionError(f"not an RDF term: {value!r}")


def _both_numbers(left, right):
    return (
        isinstance(left, (int, float))
        and not isinstance(left, bool)
        and isinstance(right, (int, float))
        and not isinstance(right, bool)
    )


def _regex(expression, binding):
    text = _as_term(evaluate(expression.text, binding))
    pattern = _as_term(evaluate(expression.pattern, binding))
    if not isinstance(text, Literal) or not isinstance(pattern, Literal):
        raise ExpressionError("regex() requires literal arguments")
    flags = 0
    if expression.flags is not None:
        flag_term = _as_term(evaluate(expression.flags, binding))
        if "i" in str(flag_term):
            flags |= re.IGNORECASE
        if "s" in str(flag_term):
            flags |= re.DOTALL
        if "m" in str(flag_term):
            flags |= re.MULTILINE
    try:
        return re.search(pattern.lexical, text.lexical, flags) is not None
    except re.error as error:
        raise ExpressionError(f"invalid regular expression: {error}") from error
