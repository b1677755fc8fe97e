"""Translation of parsed queries into the SPARQL algebra.

Follows the SPARQL 1.0 translation rules for the fragment SP2Bench uses:

* adjacent triple patterns form basic graph patterns (BGP),
* ``OPTIONAL { P }`` becomes ``LeftJoin(G, P, F)`` where ``F`` collects the
  FILTER constraints that appear directly inside the optional group — this is
  what gives Q6/Q7 their closed-world-negation semantics, where the inner
  filter references variables bound outside the optional part,
* remaining group-level FILTERs apply to the whole group,
* ``UNION`` becomes a multiset union of its translated branches,
* the query level adds Project / Distinct / OrderBy / Slice (and Ask).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional as Opt

from ..rdf.terms import Variable
from . import ast


# ---------------------------------------------------------------------------
# Algebra node types
# ---------------------------------------------------------------------------

class AlgebraNode:
    """Base class for algebra operators."""

    def variables(self):
        """All variables that can be bound by this subtree."""
        return set()

    def children(self):
        """Direct child operators (for tree walks)."""
        return ()


@dataclass
class BGP(AlgebraNode):
    """A basic graph pattern: an ordered list of triple patterns.

    ``inline_filters`` holds the expressions the filter-pushing optimizer
    moved into this BGP; its plan applies each as soon as its variables are
    bound, shrinking intermediate results exactly as described in the
    paper's optimization discussion (Section V).

    ``plan`` carries the :class:`~repro.sparql.planner.BGPPlan` the executor
    runs (step order, access path, filter placement and cardinality
    estimates); every tree the executor sees comes from
    :func:`~repro.sparql.planner.plan_tree`.

    ``substituted`` maps the name of every variable the optimizer replaced by
    an IRI in ``patterns`` (the ``FILTER (?v = <iri>)`` rewrite) to that IRI.
    Such a variable occurs nowhere else in the query, so the record only
    matters to EXPLAIN and to prepared pre-bindings of the vanished variable
    (see :meth:`admits`).
    """

    patterns: list = field(default_factory=list)
    inline_filters: list = field(default_factory=list)
    plan: object = None
    substituted: dict = field(default_factory=dict)

    def variables(self):
        found = set()
        for pattern in self.patterns:
            found |= pattern.variables()
        return found

    def admits(self, seed):
        """False when the pre-binding ``seed`` (name -> term) gives a
        substituted variable another term than its IRI.

        Such a seed fails the FILTER the substitution stands for, so this
        BGP — not the whole query — has no solutions.
        """
        return all(seed.get(name, iri) == iri
                   for name, iri in self.substituted.items())

    def __str__(self):
        return "BGP(" + ", ".join(p.n3() for p in self.patterns) + ")"


@dataclass
class Join(AlgebraNode):
    """Inner join of two operands on their shared variables.

    ``condition`` holds the cross-side conjuncts the optimizer turned into
    join keys (``FILTER (?a = ?b)`` with ``?a`` bound only on the left and
    ``?b`` only on the right); the executor hashes on them exactly as it
    does for a LeftJoin condition.

    ``plan`` carries the :class:`~repro.sparql.planner.JoinPlan` selecting
    the physical strategy (hash join, or a bind join that seeds the right
    operand's evaluation with the left rows), set by the planner.
    """

    left: AlgebraNode
    right: AlgebraNode
    condition: Opt[ast.Expression] = None
    plan: object = None

    def variables(self):
        return self.left.variables() | self.right.variables()

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        if self.condition is None:
            return f"Join({self.left}, {self.right})"
        return f"Join({self.left}, {self.right}, {self.condition})"


@dataclass
class LeftJoin(AlgebraNode):
    """Left outer join (OPTIONAL) with an optional join condition."""

    left: AlgebraNode
    right: AlgebraNode
    condition: Opt[ast.Expression] = None

    def variables(self):
        return self.left.variables() | self.right.variables()

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return f"LeftJoin({self.left}, {self.right}, {self.condition})"


@dataclass
class Union(AlgebraNode):
    """Multiset union of two operands."""

    left: AlgebraNode
    right: AlgebraNode

    def variables(self):
        return self.left.variables() | self.right.variables()

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return f"Union({self.left}, {self.right})"


@dataclass
class Filter(AlgebraNode):
    """Restriction of an operand by a boolean expression."""

    expression: ast.Expression
    operand: AlgebraNode

    def variables(self):
        return self.operand.variables()

    def children(self):
        return (self.operand,)

    def __str__(self):
        return f"Filter({self.expression}, {self.operand})"


@dataclass
class Project(AlgebraNode):
    """Projection onto a list of variables (None = keep all)."""

    operand: AlgebraNode
    projection: Opt[list] = None

    def variables(self):
        if self.projection is None:
            return self.operand.variables()
        return set(self.projection)

    def children(self):
        return (self.operand,)

    def __str__(self):
        names = "*" if self.projection is None else ", ".join(str(v) for v in self.projection)
        return f"Project([{names}], {self.operand})"


@dataclass
class Distinct(AlgebraNode):
    """Duplicate elimination."""

    operand: AlgebraNode

    def variables(self):
        return self.operand.variables()

    def children(self):
        return (self.operand,)

    def __str__(self):
        return f"Distinct({self.operand})"


@dataclass
class OrderBy(AlgebraNode):
    """Sorting by (variable, ascending) conditions."""

    operand: AlgebraNode
    conditions: list = field(default_factory=list)

    def variables(self):
        return self.operand.variables()

    def children(self):
        return (self.operand,)

    def __str__(self):
        return f"OrderBy({self.conditions}, {self.operand})"


@dataclass
class Slice(AlgebraNode):
    """LIMIT / OFFSET application."""

    operand: AlgebraNode
    limit: Opt[int] = None
    offset: int = 0

    def variables(self):
        return self.operand.variables()

    def children(self):
        return (self.operand,)

    def __str__(self):
        return f"Slice(limit={self.limit}, offset={self.offset}, {self.operand})"


@dataclass
class Group(AlgebraNode):
    """GROUP BY + aggregate computation (the paper's anticipated extension).

    Solutions of the operand are partitioned by the values of ``group_vars``;
    each group yields one solution binding the group variables plus one alias
    per aggregate in ``aggregates`` (a list of :class:`~repro.sparql.ast.Aggregate`).
    """

    operand: AlgebraNode
    group_vars: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)

    def variables(self):
        produced = set(self.group_vars)
        produced.update(aggregate.alias for aggregate in self.aggregates)
        return produced

    def children(self):
        return (self.operand,)

    def __str__(self):
        return (f"Group(by={[str(v) for v in self.group_vars]}, "
                f"aggs={[str(a) for a in self.aggregates]}, {self.operand})")


@dataclass
class Ask(AlgebraNode):
    """Existence test over the operand."""

    operand: AlgebraNode

    def variables(self):
        return self.operand.variables()

    def children(self):
        return (self.operand,)

    def __str__(self):
        return f"Ask({self.operand})"


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def translate_query(query):
    """Translate a parsed SELECT or ASK query into an algebra tree."""
    pattern = translate_group(query.where)
    if query.form == "ASK":
        return Ask(pattern)
    tree = pattern
    projection = query.projected_variables()
    if getattr(query, "aggregates", None) or getattr(query, "group_by", None):
        tree = Group(tree, group_vars=list(query.group_by),
                     aggregates=list(query.aggregates))
    if query.order_by:
        tree = OrderBy(tree, list(query.order_by))
    tree = Project(tree, projection)
    if query.distinct:
        tree = Distinct(tree)
    if query.limit is not None or query.offset:
        tree = Slice(tree, limit=query.limit, offset=query.offset)
    return tree


def translate_group(group):
    """Translate a group graph pattern into algebra, SPARQL-1.0 style."""
    accumulated = None
    current_bgp = None
    group_filters = []

    def flush_bgp():
        nonlocal accumulated, current_bgp
        if current_bgp is not None:
            accumulated = _join(accumulated, current_bgp)
            current_bgp = None

    for element in group.elements:
        if isinstance(element, ast.TriplePatternNode):
            if current_bgp is None:
                current_bgp = BGP([])
            current_bgp.patterns.append(element.pattern)
            continue
        if isinstance(element, ast.FilterNode):
            group_filters.append(element.expression)
            continue
        if isinstance(element, ast.OptionalNode):
            flush_bgp()
            inner, inner_filters = _translate_optional_body(element.group)
            condition = conjunction(inner_filters)
            accumulated = LeftJoin(accumulated or BGP([]), inner, condition)
            continue
        if isinstance(element, ast.UnionNode):
            flush_bgp()
            accumulated = _join(accumulated, _translate_union(element))
            continue
        if isinstance(element, ast.GroupGraphPattern):
            flush_bgp()
            accumulated = _join(accumulated, translate_group(element))
            continue
        raise TypeError(f"unexpected group element: {element!r}")

    flush_bgp()
    if accumulated is None:
        accumulated = BGP([])
    for expression in group_filters:
        accumulated = Filter(expression, accumulated)
    return accumulated


def _translate_optional_body(group):
    """Translate an OPTIONAL body, splitting off its top-level filters.

    Per the SPARQL algebra, FILTERs that appear directly inside an OPTIONAL
    group become the LeftJoin condition rather than a filter over the inner
    pattern, so they may reference variables bound only on the left side.
    """
    filters = group.filters()
    remaining = ast.GroupGraphPattern(
        [e for e in group.elements if not isinstance(e, ast.FilterNode)]
    )
    return translate_group(remaining), filters


def _translate_union(node):
    branches = [translate_group(branch) for branch in node.branches]
    tree = branches[0]
    for branch in branches[1:]:
        tree = Union(tree, branch)
    return tree


def _join(left, right):
    if left is None:
        return right
    if isinstance(left, BGP) and not left.patterns:
        return right
    return Join(left, right)


def split_conjuncts(expression):
    """Flatten nested ``&&`` expressions into a list of conjuncts."""
    if isinstance(expression, ast.And):
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjunction(expressions):
    """The ``&&`` of the given expressions (None when there are none)."""
    if not expressions:
        return None
    condition = expressions[0]
    for expression in expressions[1:]:
        condition = ast.And(condition, expression)
    return condition


#: Comparison operators a join can key or order on, mapped to the operator
#: that holds for the swapped operands (``?r < ?l`` is ``?l > ?r``).
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def cross_side_comparison(conjunct, left_names, right_names):
    """``?l op ?r`` with ``?l`` bindable only left and ``?r`` only right.

    Returns ``(left_name, right_name, operator)`` — the operator mirrored
    when the conjunct is written right-to-left, so it always applies as
    ``compare(left value, right value)`` — or None for any other shape.
    These are the conjuncts a join evaluates from one cell of each side
    (``=`` as a hash key, the orderings through precomputed sort keys)
    instead of evaluating the expression per candidate pair.
    """
    if not (isinstance(conjunct, ast.Comparison) and conjunct.operator in _MIRRORED):
        return None
    names = []
    for operand in (conjunct.left, conjunct.right):
        if not (isinstance(operand, ast.TermExpression)
                and isinstance(operand.term, Variable)):
            return None
        names.append(operand.term.name)
    a, b = names
    if a in left_names and b in right_names and a not in right_names and b not in left_names:
        return a, b, conjunct.operator
    if b in left_names and a in right_names and b not in right_names and a not in left_names:
        return b, a, _MIRRORED[conjunct.operator]
    return None


def walk(node):
    """Yield every node of an algebra tree in pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def collect_bgps(node):
    """Return all BGP nodes in a tree (convenience for the optimizer/tests)."""
    return [n for n in walk(node) if isinstance(n, BGP)]
