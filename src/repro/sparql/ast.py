"""Abstract syntax tree produced by the SPARQL parser.

The AST mirrors the surface syntax (group graph patterns with triple
patterns, FILTER, OPTIONAL, UNION, nested groups, and solution modifiers);
:mod:`repro.sparql.algebra` translates it into the algebra the evaluator
executes.  Expression nodes live here too because they appear both in the AST
and, unchanged, in the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional as Opt

from ..rdf.terms import Term, Variable
from ..rdf.triple import Triple


# ---------------------------------------------------------------------------
# Expressions (used by FILTER)
# ---------------------------------------------------------------------------

class Expression:
    """Base class for FILTER expression nodes."""

    def variables(self):
        """Set of variables mentioned anywhere in the expression."""
        return set()


@dataclass(frozen=True)
class TermExpression(Expression):
    """A constant RDF term or a variable used as an expression."""

    term: Term

    def variables(self):
        if isinstance(self.term, Variable):
            return {self.term}
        return set()

    def __str__(self):
        return self.term.n3()


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison: ``=, !=, <, >, <=, >=``."""

    operator: str
    left: Expression
    right: Expression

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"({self.left} {self.operator} {self.right})"


def equality_operands(expression):
    """The two operand terms of a ``term = term`` comparison, else None."""
    if (isinstance(expression, Comparison) and expression.operator == "="
            and isinstance(expression.left, TermExpression)
            and isinstance(expression.right, TermExpression)):
        return expression.left.term, expression.right.term
    return None


@dataclass(frozen=True)
class And(Expression):
    """Logical conjunction ``&&``."""

    left: Expression
    right: Expression

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"({self.left} && {self.right})"


@dataclass(frozen=True)
class Or(Expression):
    """Logical disjunction ``||``."""

    left: Expression
    right: Expression

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __str__(self):
        return f"({self.left} || {self.right})"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation ``!``."""

    operand: Expression

    def variables(self):
        return self.operand.variables()

    def __str__(self):
        return f"(! {self.operand})"


@dataclass(frozen=True)
class Bound(Expression):
    """The ``bound(?var)`` builtin used for closed-world negation (Q6, Q7)."""

    variable: Variable

    def variables(self):
        return {self.variable}

    def __str__(self):
        return f"bound({self.variable})"


@dataclass(frozen=True)
class Regex(Expression):
    """The ``regex(expr, pattern [, flags])`` builtin."""

    text: Expression
    pattern: Expression
    flags: Opt[Expression] = None

    def variables(self):
        found = self.text.variables() | self.pattern.variables()
        if self.flags is not None:
            found |= self.flags.variables()
        return found

    def __str__(self):
        return f"regex({self.text}, {self.pattern})"


# ---------------------------------------------------------------------------
# Graph patterns
# ---------------------------------------------------------------------------

class PatternNode:
    """Base class for group-graph-pattern elements."""


@dataclass(frozen=True)
class TriplePatternNode(PatternNode):
    """A single triple pattern."""

    pattern: Triple

    def __str__(self):
        return self.pattern.n3()


@dataclass(frozen=True)
class FilterNode(PatternNode):
    """A FILTER constraint attached to the enclosing group."""

    expression: Expression

    def __str__(self):
        return f"FILTER {self.expression}"


@dataclass
class GroupGraphPattern(PatternNode):
    """A ``{ ... }`` group: an ordered list of pattern elements."""

    elements: list = field(default_factory=list)

    def triple_patterns(self):
        """All triple patterns directly inside this group (not nested)."""
        return [e.pattern for e in self.elements if isinstance(e, TriplePatternNode)]

    def filters(self):
        """All FILTER expressions directly inside this group."""
        return [e.expression for e in self.elements if isinstance(e, FilterNode)]

    def __str__(self):
        inner = " ".join(str(e) for e in self.elements)
        return "{ " + inner + " }"


@dataclass(frozen=True)
class OptionalNode(PatternNode):
    """An ``OPTIONAL { ... }`` element."""

    group: GroupGraphPattern

    def __str__(self):
        return f"OPTIONAL {self.group}"


@dataclass(frozen=True)
class UnionNode(PatternNode):
    """A ``{ A } UNION { B } [UNION { C } ...]`` element."""

    branches: tuple

    def __str__(self):
        return " UNION ".join(str(b) for b in self.branches)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Aggregate:
    """An aggregate expression in the SELECT clause, e.g. ``(COUNT(?doc) AS ?n)``.

    ``variable`` is None for ``COUNT(*)``.  Aggregation is the SPARQL
    extension the paper's conclusion anticipates ("aggregation support is
    currently discussed as a possible extension"); the syntax follows what
    later became SPARQL 1.1.
    """

    function: str                   # COUNT, SUM, AVG, MIN, MAX
    variable: Opt[Variable]
    alias: Variable
    distinct: bool = False

    def __str__(self):
        inner = "*" if self.variable is None else str(self.variable)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"({self.function}({inner}) AS {self.alias})"


@dataclass
class SelectQuery:
    """A parsed SELECT query."""

    variables: list                 # list[Variable]; empty means SELECT *
    where: GroupGraphPattern
    distinct: bool = False
    order_by: list = field(default_factory=list)   # list[(Variable, ascending: bool)]
    limit: Opt[int] = None
    offset: int = 0
    prefixes: dict = field(default_factory=dict)
    aggregates: list = field(default_factory=list)  # list[Aggregate]
    group_by: list = field(default_factory=list)    # list[Variable]

    form = "SELECT"

    def projected_variables(self):
        """The projection list; ``None`` signals SELECT * (all in-scope vars)."""
        names = list(self.variables)
        names.extend(aggregate.alias for aggregate in self.aggregates)
        return names if names else None

    def is_aggregate_query(self):
        """True when the query uses GROUP BY or aggregate expressions."""
        return bool(self.aggregates or self.group_by)


@dataclass
class AskQuery:
    """A parsed ASK query."""

    where: GroupGraphPattern
    prefixes: dict = field(default_factory=dict)

    form = "ASK"


# ---------------------------------------------------------------------------
# Updates (SPARQL 1.1 Update)
# ---------------------------------------------------------------------------

class UpdateOperation:
    """Base class for parsed SPARQL Update operations."""

    form = "UPDATE"


@dataclass
class InsertDataUpdate(UpdateOperation):
    """``INSERT DATA { triples }``: ground triples added verbatim."""

    triples: list                   # list[Triple], all ground
    prefixes: dict = field(default_factory=dict)

    form = "INSERT DATA"


@dataclass
class DeleteDataUpdate(UpdateOperation):
    """``DELETE DATA { triples }``: ground triples removed verbatim."""

    triples: list                   # list[Triple], all ground
    prefixes: dict = field(default_factory=dict)

    form = "DELETE DATA"


@dataclass
class ModifyUpdate(UpdateOperation):
    """The pattern-driven forms: ``DELETE/INSERT ... WHERE`` and
    ``DELETE WHERE``.

    ``delete_templates``/``insert_templates`` are triple *templates* (may
    contain variables bound by the WHERE pattern); either may be empty but
    not both.  Per the SPARQL 1.1 Update semantics both template sets are
    instantiated against the solutions of ``where`` evaluated on the
    pre-update state, deletions are applied first, then insertions.
    """

    delete_templates: list = field(default_factory=list)   # list[Triple]
    insert_templates: list = field(default_factory=list)   # list[Triple]
    where: GroupGraphPattern = None
    prefixes: dict = field(default_factory=dict)

    form = "MODIFY"
