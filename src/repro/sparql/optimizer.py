"""Filter pushing: the store-independent half of query optimization.

The paper designs its queries around two optimization families (Section V,
Table II rows 4-5).  Triple-pattern reordering based on selectivity
estimation belongs to the planner (:func:`.planner.plan_tree`), which needs
the store's statistics.  This module is the other one:

* **Filter pushing** — conjuncts of a FILTER are evaluated as soon as all
  their variables are bound instead of after the whole block, analogous to
  selection pushing in relational algebra (crucial for Q3abc, Q5a, Q8).
  Two equality shapes become access paths instead of row-by-row tests:
  ``?v = <iri>`` substitutes the IRI into the patterns (Q3a-c), and
  ``?a = ?b`` linking two otherwise disconnected parts of a BGP turns the
  cross product into a keyed join (Q5a, Q12a).

It is a pure function over the algebra tree, so the engine can run with or
without it — the ablation axis the benchmark harness exercises.  Filters
are pushed before planning, so the planner sees the substituted constants
and orders each side of a split BGP on its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

from ..rdf.terms import URIRef, Variable
from ..rdf.triple import Triple
from . import algebra, ast
from .algebra import split_conjuncts


def push_filters(tree):
    """A copy of the algebra ``tree`` with every Filter pushed as far down as
    it goes (a tree without filters is returned as is; never mutated)."""
    if not any(isinstance(node, algebra.Filter) for node in algebra.walk(tree)):
        return tree
    return _pushed(tree, _variable_mentions(tree))


def _with_children(node, visit):
    """A copy of ``node`` whose child operators are ``visit(child)``."""
    if isinstance(node, (algebra.Join, algebra.LeftJoin, algebra.Union)):
        return replace(node, left=visit(node.left), right=visit(node.right))
    if node.children():
        return replace(node, operand=visit(node.operand))
    return node


def _pushed(node, mentions):
    """Copy the tree with every Filter pushed as far down as it goes."""
    if isinstance(node, algebra.BGP):
        # Pushes attach filters to (and substitute into) this fresh copy.
        return replace(node, patterns=list(node.patterns),
                       inline_filters=list(node.inline_filters),
                       substituted=dict(node.substituted))
    if isinstance(node, algebra.Filter):
        operand = _pushed(node.operand, mentions)
        return push_filter(node.expression, operand, mentions)
    return _with_children(node, lambda child: _pushed(child, mentions))


def _variable_names(pattern):
    return _names(pattern.variables())


def push_filter(expression, operand, mentions=None):
    """Push conjuncts of ``expression`` into ``operand`` where possible.

    Conjuncts whose variables are all produced by a BGP become inline filters
    of that BGP; the planner runs each right after the first step at which
    its variables are bound (:meth:`.planner.BGPPlan.filters_at`).
    Conjuncts that cannot be pushed stay in an outer Filter node.

    ``mentions`` (see :func:`_variable_mentions`) enables the IRI
    substitution rewrite; without it ``?v = <iri>`` stays an inline filter.
    """
    remaining = []
    for conjunct in split_conjuncts(expression):
        pushed = _push_into(conjunct, operand, mentions)
        if pushed is None:
            remaining.append(conjunct)
        else:
            operand = pushed
    if not remaining:
        return operand
    return algebra.Filter(algebra.conjunction(remaining), operand)


def _variable_mentions(tree):
    """In how many places of ``tree`` each variable name is mentioned.

    A BGP counts once per variable it binds, and so does every FILTER
    conjunct (pushed or not), join condition, projection, ORDER BY and
    GROUP BY / aggregate.  A variable mentioned exactly twice — by one BGP and by the
    ``?v = <iri>`` conjunct being pushed into it — is invisible to the rest
    of the query, which is what makes substituting the IRI for it sound.
    ``SELECT *`` exposes every variable: returns None (never substitute).
    """
    mentions = Counter()
    for node in algebra.walk(tree):
        if isinstance(node, algebra.BGP):
            mentions.update(_names(node.variables()))
            for expression in node.inline_filters:
                mentions.update(_names(expression.variables()))
        elif isinstance(node, algebra.Filter):
            for conjunct in split_conjuncts(node.expression):
                mentions.update(_names(conjunct.variables()))
        elif isinstance(node, (algebra.Join, algebra.LeftJoin)):
            if node.condition is not None:
                mentions.update(_names(node.condition.variables()))
        elif isinstance(node, algebra.Project):
            if node.projection is None:
                return None
            mentions.update(_names(node.projection))
        elif isinstance(node, algebra.OrderBy):
            mentions.update(_names(variable for variable, _asc in node.conditions))
        elif isinstance(node, algebra.Group):
            mentions.update(_names(node.group_vars))
            for aggregate in node.aggregates:
                mentions.update(_names(
                    v for v in (aggregate.variable, aggregate.alias) if v is not None))
    return mentions


def _names(variables):
    return {variable.name for variable in variables}


def _push_into(conjunct, node, mentions):
    """Attach ``conjunct`` inside ``node``.

    Returns the node to use in place of ``node`` (itself, or the Join a BGP
    was split into), or None when the conjunct cannot be pushed.
    """
    needed = _names(conjunct.variables())
    if not needed:
        return None
    if isinstance(node, algebra.BGP):
        if not needed <= _names(node.variables()):
            return None
        return _push_into_bgp(conjunct, node, mentions)
    if isinstance(node, algebra.Join):
        # Prefer the child that binds all required variables.
        for side in ("left", "right"):
            pushed = _push_into(conjunct, getattr(node, side), mentions)
            if pushed is not None:
                return replace(node, **{side: pushed})
        crossed = algebra.cross_side_comparison(
            conjunct, _names(node.left.variables()), _names(node.right.variables()))
        if crossed is not None and crossed[2] == "=":
            # One more equality between the two sides: one more join key.
            return replace(node, condition=algebra.conjunction(
                [c for c in (node.condition, conjunct) if c is not None]))
        return None
    if isinstance(node, algebra.LeftJoin):
        # Only the left (mandatory) side may be filtered without changing
        # OPTIONAL semantics, and only when the optional side cannot also bind
        # any of the filter variables (otherwise the filter must see the
        # merged solution).
        if (needed <= _names(node.left.variables())
                and not needed & _names(node.right.variables())):
            pushed = _push_into(conjunct, node.left, mentions)
            if pushed is not None:
                return replace(node, left=pushed)
        return None
    # Filters above a GROUP BY reference aggregate aliases, and no other
    # operator appears below a Filter (translate_group builds filters over
    # group patterns only): never push.
    return None


def _push_into_bgp(conjunct, bgp, mentions):
    """Push a conjunct whose variables ``bgp`` binds; always succeeds."""
    operands = ast.equality_operands(conjunct)
    if operands is not None:
        variables = [term for term in operands if isinstance(term, Variable)]
        iris = [term for term in operands if isinstance(term, URIRef)]
        if (len(variables) == 1 and iris and mentions is not None
                and mentions[variables[0].name] == 2):
            # IRI constant substitution.  ``=`` between IRIs is term
            # identity and any non-IRI value of ?v fails it, so exactly the
            # solutions with ?v = <iri> survive; ?v is mentioned nowhere
            # else, so nothing misses the binding.  Literals are not
            # substituted: they compare by value ("1" = "1.0").
            variable, iri = variables[0], iris[0]
            bgp.patterns = [
                Triple(*(iri if term == variable else term for term in pattern))
                for pattern in bgp.patterns
            ]
            bgp.substituted[variable.name] = iri
            return bgp
        if len(variables) == 2:
            split = _split_on_equality(bgp, conjunct, *variables)
            if split is not None:
                return split
    bgp.inline_filters.append(conjunct)
    return bgp


def _split_on_equality(bgp, conjunct, a, b):
    """``?a = ?b`` as a keyed join when it links disconnected parts of ``bgp``.

    Patterns are connected when they share a variable.  With ``?a`` and
    ``?b`` in different components the BGP is a cross product filtered by
    the equality; the equivalent ``Join(rest, component of ?b)`` carries the
    equality as its condition, which the executor hashes on by value.
    Already-pushed filters follow their variables: to one side when it binds
    them all, otherwise into the join condition.
    """
    component = _component_of(bgp.patterns, b.name)
    if a.name in component:
        return None
    right_patterns = [p for p in bgp.patterns if _variable_names(p) <= component]
    left_patterns = [p for p in bgp.patterns if not _variable_names(p) <= component]
    left_names = set().union(*map(_variable_names, left_patterns))
    left_filters, right_filters, condition = [], [], [conjunct]
    for expression in bgp.inline_filters:
        needed = _names(expression.variables())
        if needed <= left_names:
            left_filters.append(expression)
        elif needed <= component:
            right_filters.append(expression)
        else:
            condition.append(expression)
    return algebra.Join(
        algebra.BGP(left_patterns, left_filters, substituted=dict(bgp.substituted)),
        algebra.BGP(right_patterns, right_filters),
        condition=algebra.conjunction(condition),
    )


def _component_of(patterns, name):
    """Names of all variables connected to ``name`` through shared patterns."""
    component = {name}
    grown = True
    while grown:
        grown = False
        for pattern in patterns:
            names = _variable_names(pattern)
            if names & component and not names <= component:
                component |= names
                grown = True
    return component

