"""Join planning for the SPARQL executor: one planner for three families.

Section V of the paper frames SP2Bench's query mix as an optimizer stress
test: Q4/Q5a/Q8 live or die by triple-pattern join order and filter
placement, and the cross-engine results (Figures 6-8) largely separate
engines by how well they plan joins.  :func:`plan_tree` is the one planning
pass; it returns the algebra tree with an explicit *physical plan* for the
engine's planner family (``EngineConfig.planner``):

* ``none`` keeps every BGP's textual order;
* ``greedy`` reorders each BGP (:func:`plan_bgp`);
* ``cost`` also picks bind joins and the build side of keyed joins, and
  runs the BGPs worth it on batch kernels.

The store family decides how a triple pattern is answered, and each
:class:`BGPPlan` records that once as its ``access``: ``scan`` on a store
without permutations (the in-memory engines: one pass over the document
per pattern, hash-joined on the shared slots), ``probe`` on an indexed
store (the native engines: one index lookup per intermediate row), and
``kernel`` for an indexed store's BGPs the ``cost`` family runs
column-at-a-time.  A pattern's standalone cardinality is the store's exact
``count`` (:class:`CostModel`).  The rest of the design:

* **Cardinality propagation.**  Planning tracks the estimated intermediate
  result size.  A candidate pattern's contribution is its standalone
  cardinality refined by the *distinct-subject/object counts per predicate*
  for every variable position already bound upstream — the average fan-out a
  bound variable actually has, not a fixed guess.
* **Star-join grouping.**  Patterns sharing a subject slot form a star
  group (the dominant shape in real SPARQL logs per Bonifati et al.);
  candidate ranking prefers continuing the star whose subject is already
  bound, keeping star probes contiguous and cheap.
* **Filter placement.**  Each filter the optimizer pushed into a BGP runs
  right after the first step at which its variables are bound
  (:meth:`BGPPlan.filters_at`), halving the estimate there.
* **Keyed joins.**  A Join carrying a condition (filter pushing's rewrite of
  ``FILTER (?a = ?b)`` between otherwise unconnected BGP parts, Q5a) is
  always a hash join keyed on the equality; its output is estimated from
  the distinct counts of the key variables, and under ``cost`` the smaller
  operand becomes the build side.
* **Bind joins across operators** (``cost``).  A
  :class:`~repro.sparql.algebra.Join` whose left side is estimated small
  seeds the evaluation of its right side (sideways information passing)
  instead of evaluating it standalone and hash-joining.  This is what keeps
  Q8's UNION branches anchored to the single "Paul Erdoes" solution instead
  of enumerating every co-author pair in the document.

The planner is a pure function over the algebra tree: it returns a new tree
whose BGP nodes carry a :class:`BGPPlan` (ordered steps with estimates) and
whose Join nodes carry a :class:`JoinPlan`.  The executor runs
those plans verbatim; :class:`ExplainReport` renders them with the actual
per-step cardinalities observed during an instrumented run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..rdf.terms import Variable
from . import algebra
from .bindings import _name

#: How a BGP's steps access the store (``BGPPlan.access``).
PROBE = "probe"    # index nested-loop: probe the store once per intermediate row
SCAN = "scan"      # scan the pattern extent once, hash-join on the shared slots
KERNEL = "kernel"  # ranges of the sorted permutations, column-at-a-time

#: Join-node strategies.
HASH_JOIN = "hash"
BIND_JOIN = "bind"

#: Minimum estimated BGP cost before batch kernels pay off.  Block execution
#: has per-query fixed overhead (block plumbing, numpy call constants) of the
#: order of tens of microseconds; point lookups like Q1/Q10 (cost <= ~5) run
#: faster tuple-at-a-time, while every join-heavy catalog BGP costs >= ~27.
VECTORIZE_MIN_COST = 16.0

#: Planner family names (the ``EngineConfig.planner`` axis).
PLANNER_NONE = "none"
PLANNER_GREEDY = "greedy"
PLANNER_COST = "cost"

#: Assumed selectivity of one inline FILTER conjunct (no value histograms).
FILTER_SELECTIVITY = 0.5


# ---------------------------------------------------------------------------
# Plan representation
# ---------------------------------------------------------------------------

@dataclass
class Observed:
    """Estimated versus observed output of one plan operator."""

    estimate: float = 0.0           #: estimated rows out of this operator
    actual: Optional[int] = None    #: rows observed during an EXPLAIN run
    #: Cumulative wall seconds spent pulling through this operator's observe
    #: boundary during an EXPLAIN run.  Steps are nested generators, so a
    #: downstream step's cumulative time includes its upstream steps; the
    #: renderer prints the difference as per-step self time.
    seconds: Optional[float] = None
    #: True while an EXPLAIN run has not pulled this operator to exhaustion
    #: (ASK and LIMIT stop early): ``actual`` is then only a lower bound.
    partial: bool = False

    def q_error(self):
        """``max(est/actual, actual/est)`` once fully observed, else None.

        Both sides are clamped to one row, the usual q-error convention, so
        an empty result estimated at 0.4 rows counts as exact.
        """
        if self.actual is None or self.partial:
            return None
        estimate = max(self.estimate, 1.0)
        actual = max(float(self.actual), 1.0)
        return max(estimate / actual, actual / estimate)


@dataclass
class PlanStep(Observed):
    """One pattern access in a planned basic graph pattern.

    ``estimate`` counts the rows after this step and its inline filters.
    """

    pattern: object = None          #: the triple pattern this step evaluates
    join_vars: tuple = ()           #: variable names shared with bound prefix
    star: int = 0                   #: star-group id (patterns sharing a subject)
    pattern_estimate: float = 0.0   #: standalone cardinality of the pattern


@dataclass
class BGPPlan:
    """Physical plan of one BGP: ordered steps, how every step accesses the
    store, where the pushed filters run, and summary estimates."""

    steps: list = field(default_factory=list)
    access: str = PROBE                   #: PROBE, SCAN or KERNEL
    #: ``(position, expression)``: the filter runs right after step ``position``.
    filters: list = field(default_factory=list)
    outer_bound: frozenset = frozenset()  #: variables bound before this BGP runs
    estimate: float = 0.0                 #: estimated final cardinality
    cost: float = 0.0                     #: summed intermediate-work estimate

    def filters_at(self, position):
        """Expressions scheduled to run right after step ``position``."""
        return [expression for at, expression in self.filters if at == position]


@dataclass
class JoinPlan(Observed):
    """Strategy annotation for a Join node.

    A hash join's output is observed like a BGP step's; a bind join's
    output is the output of its right operand's steps.
    """

    strategy: str = HASH_JOIN
    left_estimate: float = 0.0
    right_estimate: float = 0.0


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

class CostModel:
    """Cardinality estimation backed by store statistics.

    Works at the term level (patterns are not dictionary-encoded yet).  A
    pattern's standalone cardinality is the store's exact ``count``, asked
    once per distinct pattern; an indexed store (``supports_permutations``)
    also refines bound positions by its distinct counts, any other store by
    a fixed per-bound-variable discount.  Without a store every estimate is
    a static guess.  ``access`` is the store family's access path (a scan
    without a store), which :func:`plan_bgp` costs every step by.
    """

    #: Fallback divisor per bound variable when no statistics exist.
    _FALLBACK_BOUND_DIVISOR = 4.0

    def __init__(self, store):
        self.access = PROBE if _indexed(store) else SCAN
        self._store = store
        self._stats = store if self.access == PROBE else None
        self._counts = {}

    def pattern_cardinality(self, pattern):
        """Standalone cardinality: only the pattern's constants are bound."""
        constants = tuple(
            None if isinstance(term, Variable) else term for term in pattern
        )
        count = self._counts.get(constants)
        if count is None:
            if self._store is not None:
                count = float(self._store.count(*constants))
            else:
                count = 10.0 ** constants.count(None)
            self._counts[constants] = count
        return count

    def matches_per_row(self, pattern, bound_names):
        """Expected matches per intermediate row, given bound variables.

        Starts from the standalone cardinality and divides by the number of
        distinct values each already-bound variable position can take —
        the classic attribute-independence refinement, but with the live
        per-predicate distinct counts the indexed store keeps.
        """
        estimate = self.pattern_cardinality(pattern)
        if estimate <= 0:
            return 0.0
        stats = self._stats
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            predicate = None
        for position, term in (
            ("subject", pattern.subject),
            ("predicate", pattern.predicate),
            ("object", pattern.object),
        ):
            if not (isinstance(term, Variable) and term.name in bound_names):
                continue
            if stats is None:
                divisor = self._FALLBACK_BOUND_DIVISOR
            elif position == "subject":
                divisor = (
                    stats.distinct_subjects(predicate)
                    if predicate is not None
                    else stats.distinct_subject_total()
                )
            elif position == "object":
                divisor = (
                    stats.distinct_objects(predicate)
                    if predicate is not None
                    else stats.distinct_object_total()
                )
            else:  # a bound predicate variable
                divisor = stats.distinct_predicates()
            estimate /= max(divisor, 1.0)
        return estimate

    def distinct_values(self, node, name, rows):
        """Estimated distinct values ``?name`` takes over ``node``'s ``rows`` rows.

        No more than there are rows, and no more than any constant-predicate
        pattern binding the variable has distinct subjects/objects.
        """
        best = rows
        if self._stats is not None:
            for bgp in algebra.collect_bgps(node):
                for pattern in bgp.patterns:
                    if isinstance(pattern.predicate, Variable):
                        continue
                    if _is_variable(pattern.subject, name):
                        best = min(best, self._stats.distinct_subjects(pattern.predicate))
                    if _is_variable(pattern.object, name):
                        best = min(best, self._stats.distinct_objects(pattern.predicate))
        return max(best, 1.0)


def plan_dependencies(tree):
    """The predicates whose statistics decide how ``tree`` is planned.

    Everything the cost model asks about a constant-predicate pattern —
    its count, distinct subjects/objects — changes only when
    a triple of that predicate is added or removed, so a plan stays what a
    fresh planning pass would produce until one of the returned predicates
    is touched.  A variable-predicate pattern is estimated from store-wide
    totals that every update moves: returns None ("any").
    """
    predicates = set()
    for bgp in algebra.collect_bgps(tree):
        for pattern in bgp.patterns:
            if isinstance(pattern.predicate, Variable):
                return None
            predicates.add(pattern.predicate)
    return frozenset(predicates)


# ---------------------------------------------------------------------------
# BGP planning
# ---------------------------------------------------------------------------

def _is_variable(term, name):
    return isinstance(term, Variable) and term.name == name


def _pattern_variables(pattern):
    return {term.name for term in pattern if isinstance(term, Variable)}


def _star_key(pattern):
    subject = pattern.subject
    return subject.name if isinstance(subject, Variable) else subject


def plan_bgp(patterns, filters, model, outer_bound=frozenset(),
             initial_rows=1.0, reorder=True):
    """Plan one basic graph pattern and the ``filters`` pushed into it.

    Returns its :class:`BGPPlan`, whose steps hold the patterns in the order
    they run, on ``model.access``.  With ``reorder=False`` the given order
    is kept (the ``none`` family).
    """
    star_groups = {}
    for pattern in patterns:
        star_groups.setdefault(_star_key(pattern), len(star_groups))

    pending_filters = list(filters)
    remaining = list(patterns)
    placed_filters = []
    steps = []
    bound = set(outer_bound)
    rows = float(initial_rows)
    cost = 0.0
    previous_star = None

    while remaining:
        if reorder and len(remaining) > 1:
            candidates = [
                pattern for pattern in remaining
                if not _pattern_variables(pattern)
                or (_pattern_variables(pattern) & bound)
            ] or remaining

            def rank(pattern):
                out = rows * model.matches_per_row(pattern, bound)
                key = _star_key(pattern)
                subject = pattern.subject
                continues_star = (
                    (isinstance(subject, Variable) and subject.name in bound)
                    or key == previous_star
                )
                return (out, 0 if continues_star else 1,
                        model.pattern_cardinality(pattern))

            best = min(candidates, key=rank)
        else:
            best = remaining[0]
        remaining.remove(best)

        matches = model.matches_per_row(best, bound)
        out = rows * matches
        cardinality = model.pattern_cardinality(best)
        cost += (rows + out) if model.access == PROBE else (cardinality + rows + out)
        position = len(steps)
        join_vars = tuple(sorted(_pattern_variables(best) & bound))
        bound |= _pattern_variables(best)

        # Place every pushed filter at the earliest position where its
        # variables are bound (outer context counts), shrinking the estimate.
        still_pending = []
        for expression in pending_filters:
            needed = {variable.name for variable in expression.variables()}
            if needed <= bound:
                placed_filters.append((position, expression))
                out *= FILTER_SELECTIVITY
            else:
                still_pending.append(expression)
        pending_filters = still_pending

        steps.append(PlanStep(
            pattern=best,
            join_vars=join_vars,
            star=star_groups[_star_key(best)],
            pattern_estimate=cardinality,
            estimate=out,
        ))
        rows = out
        previous_star = _star_key(best)

    # Filters whose variables never fully bind stay at the last position
    # (they will evaluate unbound variables to an error -> effective false).
    last = max(len(steps) - 1, 0)
    for expression in pending_filters:
        placed_filters.append((last, expression))

    return BGPPlan(
        steps=steps,
        access=model.access,
        filters=placed_filters,
        outer_bound=frozenset(outer_bound),
        estimate=rows,
        cost=cost,
    )


# ---------------------------------------------------------------------------
# Tree planning
# ---------------------------------------------------------------------------

def _indexed(store):
    """True for the native family: index probes, permutations and index statistics."""
    return getattr(store, "supports_permutations", False)


def plan_tree(tree, store, family):
    """Plan a whole algebra tree for planner ``family``; returns a new tree.

    ``none`` keeps each BGP's pattern order and ``greedy`` reorders it;
    ``cost`` also chooses hash-versus-bind for Join nodes and the build
    side of keyed joins.  Every BGP plan runs on the store family's access
    path, except that under ``cost`` an indexed store's standalone BGPs
    worth it run on the batch kernels — which never changes ordering, so
    the same plan on ``probe`` is the tuple path.  The input tree is not
    mutated.
    """
    # A count on a scan store is a pass over the document: the ``none``
    # family, which orders nothing, scans without a model of the store.
    counted = store if family != PLANNER_NONE or _indexed(store) else None
    model = CostModel(counted)
    planned, _estimate, cost = _plan_node(tree, model, frozenset(), 1.0, family)
    # Costs add up the tree: below the threshold no BGP in it reaches it.
    if (family == PLANNER_COST and model.access == PROBE
            and cost >= VECTORIZE_MIN_COST):
        for node in algebra.collect_bgps(planned):
            if not node.plan.outer_bound and node.plan.cost >= VECTORIZE_MIN_COST:
                node.plan.access = KERNEL
    return planned


def _seedable(node):
    """True when bind-join seeding preserves semantics for ``node``.

    Seeding pushes the left rows *into* the right operand's evaluation;
    that is only sound for operators that extend solutions monotonically.
    A LeftJoin inside the right side must keep its standalone evaluation:
    deciding matched-versus-unmatched against already-merged seed rows
    would turn join failures into OPTIONAL pass-throughs.  A Filter is
    seedable only when every variable of its expression is produced by its
    own operand: a FILTER referencing a variable that is out of scope in
    its group must see it *unbound* (error -> false, SPARQL filter
    scoping), which seeding would silently bind.
    """
    if isinstance(node, algebra.BGP):
        return True
    if isinstance(node, algebra.Union):
        return _seedable(node.left) and _seedable(node.right)
    if isinstance(node, algebra.Filter):
        produced = {_name(v) for v in node.operand.variables()}
        needed = {v.name for v in node.expression.variables()}
        return needed <= produced and _seedable(node.operand)
    return False


def _plan_node(node, model, outer, rows, family):
    """Plan one node; returns ``(new_node, estimated_rows, estimated_cost)``."""
    if isinstance(node, algebra.BGP):
        plan = plan_bgp(node.patterns, node.inline_filters, model,
                        outer_bound=outer, initial_rows=rows,
                        reorder=family != PLANNER_NONE)
        ordered = [step.pattern for step in plan.steps]
        return replace(node, patterns=ordered, plan=plan), plan.estimate, plan.cost

    if isinstance(node, algebra.Join):
        left, left_rows, left_cost = _plan_node(node.left, model, outer, rows, family)
        left_vars = {_name(v) for v in node.left.variables()}
        right_vars = {_name(v) for v in node.right.variables()}
        # Hash option: the right side evaluates standalone.
        hash_right, hash_rows, hash_cost_right = _plan_node(
            node.right, model, outer, 1.0, family)
        if node.condition is not None:
            # A keyed join (FILTER (?a = ?b) between otherwise unconnected
            # sides): |L| x |R| pairs, of which one in max(distinct ?a,
            # distinct ?b) agrees on each key.  Anything else in the
            # condition is a filter over the pairs.
            hash_out = left_rows * hash_rows
            for conjunct in algebra.split_conjuncts(node.condition):
                key = algebra.cross_side_comparison(conjunct, left_vars, right_vars)
                if key is not None and key[2] == "=":
                    hash_out /= max(
                        model.distinct_values(left, key[0], left_rows),
                        model.distinct_values(hash_right, key[1], hash_rows),
                    )
                else:
                    hash_out *= FILTER_SELECTIVITY
            if family == PLANNER_COST and hash_rows > left_rows:
                # The evaluator builds its table on the right operand and
                # streams the left one: build on the smaller side.
                left, hash_right = hash_right, left
                left_rows, hash_rows = hash_rows, left_rows
        elif left_vars & right_vars:
            hash_out = max(left_rows, hash_rows)
        else:
            hash_out = left_rows * hash_rows
        hash_cost = left_cost + hash_cost_right + left_rows + hash_rows + hash_out
        if (family == PLANNER_COST and node.condition is None
                and _seedable(node.right)):
            # Bind option: seed the right side with the left rows.
            bind_right, bind_rows, bind_cost_right = _plan_node(
                node.right, model, outer | left_vars, left_rows, family)
            bind_cost = left_cost + bind_cost_right
            if bind_cost < hash_cost:
                plan = JoinPlan(strategy=BIND_JOIN, estimate=bind_rows,
                                left_estimate=left_rows, right_estimate=bind_rows)
                return (replace(node, left=left, right=bind_right, plan=plan),
                        bind_rows, bind_cost)
        plan = JoinPlan(strategy=HASH_JOIN, estimate=hash_out,
                        left_estimate=left_rows, right_estimate=hash_rows)
        return (replace(node, left=left, right=hash_right, plan=plan),
                hash_out, hash_cost)

    if isinstance(node, algebra.LeftJoin):
        left, left_rows, left_cost = _plan_node(node.left, model, outer, rows, family)
        right, right_rows, right_cost = _plan_node(node.right, model, outer, 1.0, family)
        cost = left_cost + right_cost + left_rows + right_rows
        return (algebra.LeftJoin(left, right, node.condition),
                max(left_rows, 1.0) if left_rows else left_rows, cost)

    if isinstance(node, algebra.Union):
        left, left_rows, left_cost = _plan_node(node.left, model, outer, rows, family)
        right, right_rows, right_cost = _plan_node(node.right, model, outer, rows, family)
        return (algebra.Union(left, right),
                left_rows + right_rows, left_cost + right_cost)

    if isinstance(node, algebra.Filter):
        operand, operand_rows, operand_cost = _plan_node(
            node.operand, model, outer, rows, family)
        return (algebra.Filter(node.expression, operand),
                operand_rows * FILTER_SELECTIVITY, operand_cost + operand_rows)

    if isinstance(node, (algebra.Project, algebra.Distinct, algebra.OrderBy,
                         algebra.Slice, algebra.Ask, algebra.Group)):
        operand, operand_rows, operand_cost = _plan_node(
            node.operand, model, outer, rows, family)
        estimate = operand_rows
        if isinstance(node, algebra.Slice) and node.limit is not None:
            estimate = float(min(estimate, node.limit))
        return replace(node, operand=operand), estimate, operand_cost

    return node, rows, 0.0


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------

@dataclass
class ExplainReport:
    """A rendered query plan with estimated and observed cardinalities.

    Produced by :meth:`repro.sparql.engine.SparqlEngine.explain`, whose
    instrumented run fills the ``actual`` columns; the slow-query log renders
    a prepared plan without running it, so its ``actual`` columns stay ``-``.
    """

    tree: object
    planner: str
    engine: str
    result_count: int = 0
    elapsed: float = 0.0
    #: Front-end/back-end stage wall times in seconds (parse/plan/execute),
    #: filled by :meth:`~repro.sparql.engine.SparqlEngine.explain`.
    stages: dict = field(default_factory=dict)
    #: Rows and cumulative seconds out of the last operator of an observed
    #: SELECT (None otherwise), and the distinct ids decoded by the end of
    #: the drain — FILTER / ORDER BY decode, the lazy result rows do not.
    result: Optional[Observed] = None
    decoded: Optional[int] = None

    def plan_steps(self):
        """Every PlanStep of every BGP, in tree pre-order."""
        for node in algebra.collect_bgps(self.tree):
            yield from node.plan.steps

    def q_errors(self):
        """q-error of every fully observed BGP step and hash join."""
        errors = [step.q_error() for step in self.plan_steps()]
        errors += [
            node.plan.q_error() for node in algebra.walk(self.tree)
            if isinstance(node, algebra.Join) and node.plan.strategy == HASH_JOIN
        ]
        return [error for error in errors if error is not None]

    def planned_patterns(self):
        """The triple patterns of the plan, one entry per step."""
        return [step.pattern for step in self.plan_steps()]

    def render(self):
        lines = [
            f"plan: planner={self.planner} engine={self.engine} "
            f"rows={self.result_count} elapsed={self.elapsed:.3f}s"
        ]
        if self.stages:
            breakdown = " ".join(
                f"{name}={seconds * 1e3:.2f}ms"
                for name, seconds in self.stages.items()
            )
            lines.append(f"stages: {breakdown}")
        self._render_node(self.tree, 0, lines)
        result = f"result: rows={self.result_count}"
        if self.result is not None and self.result.seconds is not None:
            # ``seconds`` is cumulative over every operator (the steps
            # above plus DISTINCT, ORDER BY, ... which carry no time= of
            # their own); the rest of the execute stage was spent handing
            # rows across the result boundary.
            operators = self.result.seconds
            boundary = max(self.elapsed - operators, 0.0)
            result += (f" decoded={self.decoded} "
                       f"operators={operators * 1e3:.2f}ms "
                       f"boundary={boundary * 1e3:.2f}ms")
        lines.append(result)
        return "\n".join(lines)

    __str__ = render

    def _render_node(self, node, depth, lines):
        pad = "  " * depth
        if isinstance(node, algebra.BGP):
            plan = node.plan
            substituted = "".join(
                f" ?{name}:={iri.n3()}" for name, iri in node.substituted.items()
            )
            lines.append(f"{pad}BGP [{len(node.patterns)} patterns] "
                         f"est={_fmt(plan.estimate)}{substituted}")
            # A kernel step is a probe answered column-at-a-time.
            access = SCAN if plan.access == SCAN else PROBE
            vectorized = "yes" if plan.access == KERNEL else "no"
            previous_seconds = 0.0
            for index, step in enumerate(plan.steps, start=1):
                join = (
                    " join=" + ",".join("?" + name for name in step.join_vars)
                    if step.join_vars else ""
                )
                filters = len(plan.filters_at(index - 1))
                filter_note = f" +{filters}filter" if filters else ""
                if step.seconds is None:
                    time_note = ""
                else:
                    # step.seconds is cumulative over the nested pull
                    # pipeline; the difference vs the previous step is
                    # this step's own contribution.
                    self_seconds = max(step.seconds - previous_seconds, 0.0)
                    previous_seconds = step.seconds
                    time_note = f" time={self_seconds * 1e3:.2f}ms"
                lines.append(
                    f"{pad}  {index}. [{access:<5}] "
                    f"{step.pattern.n3()}{join}{filter_note} "
                    f"{_observed(step)}{time_note} vectorized={vectorized}"
                )
            return
        label = type(node).__name__
        if isinstance(node, algebra.Join):
            plan = node.plan
            label += (
                f" [{plan.strategy}] left_est={_fmt(plan.left_estimate)} "
                f"right_est={_fmt(plan.right_estimate)}"
            )
            if node.condition is not None:
                label += f" on {node.condition}"
            if plan.strategy == HASH_JOIN:
                label += " " + _observed(plan)
        elif isinstance(node, algebra.Filter):
            label += f" ({node.expression})"
        elif isinstance(node, algebra.OrderBy):
            label += f" ({node.conditions})"
        elif isinstance(node, algebra.Slice):
            label += f" (limit={node.limit}, offset={node.offset})"
        lines.append(pad + label)
        for child in node.children():
            self._render_node(child, depth + 1, lines)


def _observed(operator):
    """The ``est= actual= qerr=`` columns of one observed plan operator."""
    actual = "-" if operator.actual is None else str(operator.actual)
    q_error = operator.q_error()
    qerr = "-" if q_error is None else f"{q_error:.{0 if q_error >= 100 else 1}f}"
    return f"est={_fmt(operator.estimate)} actual={actual} qerr={qerr}"


def _fmt(value):
    if value >= 100 or value == int(value):
        return str(int(round(value)))
    return f"{value:.1f}"
