"""Evaluation of FILTER expressions against a solution mapping.

Implements the SPARQL effective-boolean-value rules for the operator subset
the benchmark queries use: ``&&``, ``||``, ``!``, the six comparison
operators, ``bound()``, and ``regex()``.  Type errors (ordering a URI
against a number, using an unbound variable as an operand, …) raise
:class:`ExpressionError`, which callers interpret as *false* per the SPARQL
semantics — that is what makes ``FILTER (!bound(?x))`` the standard
closed-world-negation idiom used in Q6 and Q7.

:func:`value_key` and :func:`order_key` are the one definition of how two
RDF terms compare: the row filters here, the join keys of :mod:`.idspace`
and the column masks of :mod:`.kernels` all decide ``=`` and the orderings
through them.
"""

from __future__ import annotations

import operator
import re

from ..rdf.terms import XSD_BOOLEAN, XSD_STRING, BNode, Literal, URIRef, Variable, as_float
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
    """SPARQL effective boolean value of an expression result (SPARQL 1.1
    §17.2.2): a numeric is false at zero, NaN or a malformed lexical form, a
    simple, language-tagged or ``xsd:string`` literal when it is empty;
    any other datatype is a type error."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            return value.to_python()
        if value.is_numeric():
            key = order_key(value)
            return key is not None and key[1] != 0 and key[1] == key[1]
        if value.datatype in (None, XSD_STRING):
            return value.lexical != ""
    raise ExpressionError(f"no effective boolean value for {value!r}")


#: The ordering operators, applied to the second items of two order keys of
#: one kind.
ORDERING = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def order_key(term):
    """The key an RDF term orders by under ``<``, ``<=``, ``>``, ``>=``.

    ``("num", float)`` for a numeric literal whose lexical form parses,
    ``("str", text)`` for a simple or ``xsd:string`` literal, and None for
    anything else (IRIs, blank nodes, booleans, language-tagged strings,
    malformed numerics, unknown datatypes).  Two keys order only when both
    exist and have one kind; otherwise the comparison is a type error.  NaN
    keeps its float, so every ordering against it is false; an integer past
    float range keys as infinity, as a double of that size does.
    """
    if isinstance(term, Literal):
        if term.datatype in (None, XSD_STRING):
            return None if term.language else ("str", term.lexical)
        if term.is_numeric():
            value = term.to_python()
            if not isinstance(value, str):
                return ("num", as_float(value))
    return None


def value_key(term):
    """The key an RDF term compares by under ``=`` and ``!=``.

    Its :func:`order_key` where it has one, so numbers compare by value
    across datatypes and strings by text; NaN equals nothing, itself
    included, so its key is None, which matches nothing (the joins treat it
    like an unbound operand).  Every other term keys on itself: RDF term
    identity.  The joins hash on this key to run ``FILTER (?a = ?b)`` as an
    equi-join, and the column masks compare it per distinct id.
    """
    key = order_key(term)
    if key is None:
        return ("term", term)
    return None if key[1] != key[1] else key


def _compare(op, left, right):
    left = _as_term(left)
    right = _as_term(right)
    if op in ("=", "!="):
        key = value_key(left)
        return (key is not None and key == value_key(right)) == (op == "=")
    compare = ORDERING.get(op)
    if compare is None:
        raise ExpressionError(f"unknown comparison operator {op!r}")
    left_key, right_key = order_key(left), order_key(right)
    if left_key is None or right_key is None or left_key[0] != right_key[0]:
        raise ExpressionError(f"cannot order {left!r} and {right!r} by value")
    return compare(left_key[1], right_key[1])


def _as_term(value):
    if isinstance(value, bool):
        return Literal(value)
    if isinstance(value, (URIRef, BNode, Literal)):
        return value
    raise ExpressionError(f"not an RDF term: {value!r}")


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
