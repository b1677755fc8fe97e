"""A naive reference evaluator for the SPARQL fragment SP2Bench uses.

Written from the algebra semantics (Pérez, Arenas and Gutierrez; the SPARQL
recommendation) and sharing nothing with ``repro.sparql`` but the parser:
solutions are plain dicts, every triple pattern is matched once against the
graph, and Join / OPTIONAL / UNION / FILTER are the textbook definitions,
bucketed only on variables both sides always bind — no ids, plans or
optimizer.  Values: numeric literals compare by value (``to_python``),
simple and ``xsd:string`` literals by text, anything else by RDF term
identity (an IRI is never ``=`` a literal); orderings need two numbers or
two strings, else a type error, which a FILTER treats as false.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.rdf.terms import Literal, Variable, term_sort_key
from repro.sparql import ast
from repro.sparql.parser import parse_query

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


class ExpressionTypeError(Exception):
    """A SPARQL expression error: the FILTER treats the solution as false."""


def evaluate(query, triples):
    """The rows of a SELECT (dicts, in result order) or an ASK's answer."""
    if isinstance(query, str):
        query = parse_query(query)
    solutions = group(query.where, list(dict.fromkeys(triples)))  # a set
    if query.form == "ASK":
        return bool(solutions)
    if query.is_aggregate_query():
        solutions = aggregate(solutions, query.group_by, query.aggregates)
    solutions = ordered(solutions, query.order_by)
    names = query.projected_variables()
    if names is not None:
        keep = {variable.name for variable in names}
        solutions = [{name: term for name, term in mu.items() if name in keep}
                     for mu in solutions]
    if query.distinct:
        unique = dict.fromkeys(frozenset(mu.items()) for mu in solutions)
        solutions = [dict(key) for key in unique]
    start = query.offset or 0
    stop = None if query.limit is None else start + query.limit
    return solutions[start:stop]


def multiset(rows):
    """Rows as a multiset of frozen mappings, the form results compare in."""
    return Counter(frozenset(row.items()) for row in rows)


def answer(query, triples):
    """What a result is compared by: an ASK's boolean, a SELECT's multiset."""
    expected = evaluate(query, triples)
    return expected if isinstance(expected, bool) else multiset(expected)


def answer_of(result):
    """The same form of an engine result (``query()`` or a cursor's ``all()``)."""
    if result.form == "ASK":
        return bool(result)
    return Counter(result.as_multiset())


def ordered(rows, order_by):
    """``rows`` sorted by ORDER BY conditions (stable; unbound sorts first)."""
    rows = list(rows)
    for variable, ascending in reversed(order_by):
        rows.sort(key=lambda mu: term_sort_key(mu.get(variable.name)),
                  reverse=not ascending)
    return rows


def group(pattern, triples):
    """A group graph pattern: its parts joined left to right, OPTIONAL as a
    left join on what precedes it, then the group's FILTERs."""
    solutions = [{}]
    block = []              # adjacent triple patterns: one basic graph pattern
    filters = []
    for element in pattern.elements + [None]:
        if isinstance(element, ast.TriplePatternNode):
            block.append(element.pattern)
            continue
        if isinstance(element, ast.FilterNode):
            filters.append(element.expression)
            continue
        for triple_pattern in block:
            solutions = join(solutions, match(triple_pattern, triples))
        block = []
        if isinstance(element, ast.OptionalNode):
            body = ast.GroupGraphPattern([
                part for part in element.group.elements
                if not isinstance(part, ast.FilterNode)])
            solutions = join(solutions, group(body, triples),
                             conditions=element.group.filters(), optional=True)
        elif isinstance(element, ast.UnionNode):
            union = [mu for branch in element.branches
                     for mu in group(branch, triples)]
            solutions = join(solutions, union)
        elif isinstance(element, ast.GroupGraphPattern):
            solutions = join(solutions, group(element, triples))
    return [mu for mu in solutions
            if all(holds(expression, mu) for expression in filters)]


def match(pattern, triples):
    """The mappings under which one triple pattern equals a data triple."""
    found = []
    for triple in triples:
        mu = {}
        for part, term in zip(pattern, triple):
            if isinstance(part, Variable):
                if mu.setdefault(part.name, term) != term:
                    break
            elif part != term:
                break
        else:
            found.append(mu)
    return found


def join(left, right, conditions=(), optional=False):
    """Join of two solution lists; with ``optional`` the left outer join
    whose ``conditions`` decide which compatible pairs count as matches."""
    shared = sorted(_always_bound(left) & _always_bound(right))
    buckets = {}
    for mu in right:
        buckets.setdefault(tuple(mu[name] for name in shared), []).append(mu)
    result = []
    for mu in left:
        matched = False
        for other in buckets.get(tuple(mu[name] for name in shared), ()):
            if any(mu[name] != term for name, term in other.items() if name in mu):
                continue            # not compatible
            merged = {**mu, **other}
            if all(holds(condition, merged) for condition in conditions):
                result.append(merged)
                matched = True
        if optional and not matched:
            result.append(mu)
    return result


def _always_bound(solutions):
    return set.intersection(*map(set, solutions)) if solutions else set()


def aggregate(solutions, group_by, aggregates):
    """GROUP BY partitions plus one value per aggregate (no solutions and no
    GROUP BY still make one group, so ``COUNT`` gives 0)."""
    groups = {}
    for mu in solutions:
        key = tuple(mu.get(variable.name) for variable in group_by)
        groups.setdefault(key, []).append(mu)
    if not groups and not group_by:
        groups[()] = []
    rows = []
    for key, members in groups.items():
        row = {variable.name: term
               for variable, term in zip(group_by, key) if term is not None}
        for function in aggregates:
            row[function.alias.name] = fold(function, members)
        rows.append(row)
    return rows


def fold(function, members):
    """One aggregate over a group; numeric folds skip non-numbers and give 0
    for a group without any."""
    if function.variable is None:
        values = [frozenset(mu.items()) for mu in members]
    else:
        values = [mu[function.variable.name] for mu in members
                  if function.variable.name in mu]
    if function.distinct:
        values = list(dict.fromkeys(values))
    if function.function == "COUNT":
        return Literal(len(values))
    numbers = [number for number in map(_number, values) if number is not None]
    if not numbers:
        return Literal(0)
    result = {"SUM": sum, "MIN": min, "MAX": max,
              "AVG": lambda found: sum(found) / len(found)}[function.function](numbers)
    return Literal(int(result) if result.is_integer() else result)


def holds(expression, mu):
    """A FILTER condition under ``mu``; a type error counts as false."""
    return _truth(expression, mu) is True


def _truth(expression, mu):
    """Effective boolean value, or None for a type error."""
    try:
        return _boolean(value(expression, mu))
    except ExpressionTypeError:
        return None


def value(expression, mu):
    """The term or boolean an expression evaluates to."""
    if isinstance(expression, ast.TermExpression):
        term = expression.term
        if not isinstance(term, Variable):
            return term
        if term.name not in mu:
            raise ExpressionTypeError(f"unbound {term}")
        return mu[term.name]
    if isinstance(expression, ast.Bound):
        return expression.variable.name in mu
    if isinstance(expression, ast.Not):
        return not _boolean(value(expression.operand, mu))
    if isinstance(expression, (ast.And, ast.Or)):
        # Three-valued logic: the deciding value wins over an error.
        deciding = isinstance(expression, ast.Or)
        sides = (_truth(expression.left, mu), _truth(expression.right, mu))
        if deciding in sides:
            return deciding
        if None in sides:
            raise ExpressionTypeError("error operand")
        return not deciding
    if isinstance(expression, ast.Comparison):
        left = value(expression.left, mu)
        right = value(expression.right, mu)
        operator = expression.operator
        pair = _comparable(left, right)
        if operator in ("=", "!="):
            equal = pair[0] == pair[1] if pair else left == right
            return equal == (operator == "=")
        if pair is None:
            raise ExpressionTypeError(f"cannot order {left!r} and {right!r}")
        a, b = pair
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[operator]
    raise NotImplementedError(f"the oracle does not evaluate {expression!r}")


def _boolean(result):
    """Effective boolean value (SPARQL 1.1 §17.2.2): a numeric literal is
    false at zero, NaN or a malformed lexical form; a simple, language-tagged
    or ``xsd:string`` literal is false when empty."""
    if isinstance(result, bool):
        return result
    if isinstance(result, Literal):
        python = result.to_python()
        if isinstance(python, bool):
            return python
        if result.is_numeric():
            number = _number(result)
            return number is not None and number == number and number != 0
        if _string(result) is not None or result.language is not None:
            return result.lexical != ""
    raise ExpressionTypeError(f"no boolean value for {result!r}")


def _comparable(left, right):
    """Both operands as numbers or both as strings, else None (then ``=`` is
    term identity and an ordering is a type error)."""
    for convert in (_number, _string):
        a, b = convert(left), convert(right)
        if a is not None and b is not None:
            return a, b
    return None


def _number(term):
    """The value of a numeric literal, else None; an integer beyond double
    range is infinite, as a double of that size is."""
    if isinstance(term, Literal):
        python = term.to_python()
        if isinstance(python, (int, float)) and not isinstance(python, bool):
            try:
                return float(python)
            except OverflowError:
                return math.inf if python > 0 else -math.inf
    return None


def _string(term):
    """The text of a simple or ``xsd:string`` literal, else None."""
    if (isinstance(term, Literal) and term.language is None
            and term.datatype in (None, XSD_STRING)):
        return term.lexical
    return None
