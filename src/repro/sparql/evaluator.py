"""Bottom-up evaluation of the SPARQL algebra against a triple store.

The store decides how a query runs, mirroring the two engine families the
paper benchmarks (see DESIGN.md):

* Scan-based stores (:class:`~repro.store.MemoryStore`, the ARQ /
  Sesame-memory model) are evaluated **in term space** by this module:
  solutions are dict-backed :class:`~repro.sparql.bindings.Binding` objects
  and every pattern is matched in one linear pass over the store whose
  bindings are hash-joined — a query costs at least one full pass over the
  document, and paying term-object costs per row is part of the cost model
  the benchmark contrasts against.
* Stores advertising ``supports_id_access`` (the indexed "native engine"
  model) are evaluated **in id space**: index probes substitute the bound
  components of every intermediate solution, joins compare dictionary ids
  in flat slot-addressed tuples and RDF terms are only materialized at the
  result boundary.  The machinery lives in :mod:`.idspace`; this module is
  its term-level twin and the facade (:class:`Evaluator`) that dispatches
  between the two.

Either way a basic graph pattern runs from its plan (``node.plan``, attached
by the engine; :func:`~repro.sparql.planner.textual_plan` for a tree nobody
planned): one step per pattern, each a probe per solution or a scan plus
hash join.  OPTIONAL is evaluated as a hash-based left outer join on both
paths; the quadratic pairwise formulation survives only as a reference in
the test suite.
"""

from __future__ import annotations

from itertools import islice

from ..rdf.terms import Variable, term_sort_key
from . import algebra
from .bindings import EMPTY_BINDING, Binding, variable_name
from .errors import EvaluationError
from .expressions import effective_boolean_value, value_key
from .idspace import IdSpaceEvaluation, reduce_numbers
from .planner import BIND_JOIN, SCAN, default_strategy, textual_plan


class Evaluator:
    """Evaluates algebra trees over a :class:`~repro.store.TripleStore`.

    ``reuse_patterns`` enables the third optimization the paper calls out
    (Table II row 5) for the scan engines: when the same triple pattern
    shape occurs several times in a query (Q4 scans the article/creator/name
    patterns twice, Q6/Q7/Q8 repeat whole blocks), its scan result is
    computed once and reused.  The cache lives for a single evaluation and
    is keyed by the pattern's ground components.
    """

    def __init__(self, store, reuse_patterns=False, observe_plans=False,
                 deadline=None, seed=None):
        self._store = store
        self._id_space = bool(getattr(store, "supports_id_access", False))
        self._reuse_patterns = reuse_patterns
        self._observe_plans = observe_plans
        #: The most recent id-space run; EXPLAIN reads its ``result``
        #: observation and decode count after draining.
        self.id_space_run = None
        self._pattern_cache = {}
        #: Cooperative evaluation budget: the hot loops call ``_check()``
        #: so an expired :class:`~repro.sparql.cursor.Deadline` raises
        #: :class:`~repro.sparql.errors.QueryTimeout` mid-evaluation.
        self._deadline = deadline
        self._check = None if deadline is None else deadline.check
        #: Prepared-query parameter pre-binding: every BGP starts from this
        #: solution instead of the empty mapping, so probes use the bound
        #: terms and results carry them.
        if seed is None:
            self._seed_binding = EMPTY_BINDING
        elif isinstance(seed, Binding):
            self._seed_binding = seed
        else:
            self._seed_binding = Binding(seed)
        self._seed_map = dict(self._seed_binding.items())

    # -- public API -----------------------------------------------------------

    @property
    def uses_id_space(self):
        """True when this evaluator joins over dictionary ids."""
        return self._id_space

    def evaluate(self, node):
        """Evaluate an algebra tree.

        Returns an iterator of :class:`Binding` for SELECT-shaped trees and a
        bool for :class:`~repro.sparql.algebra.Ask` roots.  On id-capable
        stores the whole tree runs in id space and the Bindings handed out
        are lazy :class:`~repro.sparql.idspace.IdBinding` rows: still id
        tuples, decoded when touched.
        """
        if self._id_space:
            run = self._id_space_run()
            if isinstance(node, algebra.Ask):
                return run.ask(node.operand)
            return run.bindings(node)
        if isinstance(node, algebra.Ask):
            for _solution in self._eval(node.operand):
                return True
            return False
        return self._eval(node)

    def evaluate_ids(self, node):
        """Evaluate a SELECT-shaped tree into raw id rows (no decoding).

        Returns ``(layout, row_iterator)``; rows are flat tuples whose cells
        are dictionary ids (or None for unbound slots).  Exposed for
        benchmarks and the decode-counter tests; requires an id-capable store.
        """
        if not self._id_space:
            raise EvaluationError("evaluate_ids() requires an id-capable store")
        return self._id_space_run().solve(node)

    def _id_space_run(self):
        """A fresh per-evaluation id-space run (own caches and decode memo)."""
        self.id_space_run = IdSpaceEvaluation(
            self._store, observe_plans=self._observe_plans,
            deadline=self._deadline, seed=self._seed_map,
        )
        return self.id_space_run

    # -- dispatch ----------------------------------------------------------------

    def _eval(self, node):
        if isinstance(node, algebra.BGP):
            return self._eval_bgp(node)
        if isinstance(node, algebra.Join):
            return self._eval_join(node)
        if isinstance(node, algebra.LeftJoin):
            return self._eval_left_join(node)
        if isinstance(node, algebra.Union):
            return self._eval_union(node)
        if isinstance(node, algebra.Filter):
            return self._eval_filter(node)
        if isinstance(node, algebra.Project):
            return self._eval_project(node)
        if isinstance(node, algebra.Distinct):
            return self._eval_distinct(node)
        if isinstance(node, algebra.OrderBy):
            return self._eval_order_by(node)
        if isinstance(node, algebra.Slice):
            return self._eval_slice(node)
        if isinstance(node, algebra.Group):
            return self._eval_group(node)
        raise EvaluationError(f"cannot evaluate algebra node {node!r}")

    # -- basic graph patterns ------------------------------------------------------

    def _eval_bgp(self, node, solutions=None):
        """Run a BGP along its plan, from ``solutions`` (default: the seed).

        A PROBE step asks the store once per current solution with its bound
        components substituted; a SCAN step matches the pattern once against
        the whole store and hash-joins the bindings with the solutions so
        far.  ``solutions`` carries the left rows of a bind join.
        """
        if not node.admits(self._seed_map):
            return iter(())
        if solutions is None:
            solutions = (self._seed_binding,)
        plan = node.plan or textual_plan(node.patterns,
                                         default_strategy(self._store))
        check = self._check
        solutions = iter(solutions)
        for position, step in enumerate(plan.steps):
            pattern = step.pattern
            if step.strategy == SCAN:
                left = list(solutions)
                if not left:
                    return iter(())
                scanned = []
                for triple in self._scan_pattern(pattern):
                    if check is not None:
                        check()
                    binding = _bind_triple(pattern, triple, EMPTY_BINDING)
                    if binding is not None:
                        scanned.append(binding)
                solutions = iter(_hash_join(left, scanned))
            else:
                solutions = self._extend_by_pattern(solutions, pattern)
            for expression in node.filters_at(position):
                solutions = self._apply_inline_filter(solutions, expression)
        return solutions

    def _apply_inline_filter(self, solutions, expression):
        check = self._check
        for binding in solutions:
            if check is not None:
                check()
            if effective_boolean_value(expression, binding):
                yield binding

    def _extend_by_pattern(self, solutions, pattern):
        for binding in solutions:
            yield from self._match_pattern(pattern, binding)

    def _match_pattern(self, pattern, binding):
        lookup = []
        for term in pattern:
            if isinstance(term, Variable):
                lookup.append(binding.get(term))
            else:
                lookup.append(term)
        check = self._check
        for triple in self._store.triples(*lookup):
            if check is not None:
                check()
            extended = _bind_triple(pattern, triple, binding)
            if extended is not None:
                yield extended

    def _scan_pattern(self, pattern):
        """Match one triple pattern against the whole store.

        With pattern reuse enabled, the (ground-component) lookup is answered
        from the per-evaluation cache when the same pattern shape was scanned
        before.
        """
        lookup = tuple(
            term if not isinstance(term, Variable) else None for term in pattern
        )
        if not self._reuse_patterns:
            return self._store.triples(*lookup)
        cached = self._pattern_cache.get(lookup)
        if cached is None:
            cached = list(self._store.triples(*lookup))
            self._pattern_cache[lookup] = cached
        return cached

    # -- binary operators ------------------------------------------------------------

    def _eval_join(self, node):
        plan = getattr(node, "plan", None)
        if plan is not None and plan.strategy == BIND_JOIN:
            # A bind-join plan reordered the right side (and placed its
            # inline filters) under the assumption that the left rows seed
            # its evaluation; executing it standalone would let a filter run
            # before its variables are bound.  Honour the plan.
            left = list(self._eval(node.left))
            if not left:
                return iter(())
            return self._eval_seeded(node.right, left)
        return self._keyed_join(node, outer=False)

    def _eval_seeded(self, node, bindings):
        """Evaluate ``node`` continuing from existing solutions (bind join).

        The term-space counterpart of the id-space evaluator's seeded
        execution: supported for the operators the planner marks seedable
        (BGP, Union, Filter); anything else falls back to standalone
        evaluation followed by a hash join.
        """
        if isinstance(node, algebra.BGP):
            return self._eval_bgp(node, bindings)
        if isinstance(node, algebra.Union):
            def generate():
                yield from self._eval_seeded(node.left, list(bindings))
                yield from self._eval_seeded(node.right, list(bindings))

            bindings = list(bindings)
            return generate()
        if isinstance(node, algebra.Filter):
            expression = node.expression
            return (
                binding
                for binding in self._eval_seeded(node.operand, bindings)
                if effective_boolean_value(expression, binding)
            )
        right = list(self._eval(node))
        return iter(_hash_join(list(bindings), right))

    def _eval_left_join(self, node):
        return self._keyed_join(node, outer=True)

    def _keyed_join(self, node, outer):
        """Hash join of two operands: inner, or left outer (OPTIONAL).

        Right solutions are bucketed by the values of the shared variables
        plus the value keys of the condition's cross-side equalities
        (``FILTER (?name = ?name2)``, see :func:`~repro.sparql.expressions.
        value_key`), so each left solution meets only its hash bucket (plus
        the unkeyed rows produced by nested OPTIONALs) instead of the whole
        right side; the rest of the condition is evaluated per merged pair.
        With ``outer``, left solutions with no surviving match pass through
        unchanged.
        """
        left = list(self._eval(node.left))
        if not left:
            return iter(())
        right = list(self._eval(node.right))
        shared = _shared_variables(left, right)
        left_keys, right_keys, residual = _split_condition(node)
        keyed = {}
        entries = []
        for right_binding in right:
            equi = _value_keys(right_binding, right_keys)
            if equi is None:
                # An unbound equality operand never satisfies the condition.
                continue
            entries.append((right_binding, equi))
            key = _join_key(right_binding, shared)
            if key is not None:
                keyed.setdefault((key, equi), []).append(right_binding)
        unkeyed = [
            entry for entry in entries if _join_key(entry[0], shared) is None
        ]
        check = self._check
        results = []
        for left_binding in left:
            if check is not None:
                check()
            matched = False
            equi = _value_keys(left_binding, left_keys)
            if equi is not None:
                key = _join_key(left_binding, shared)
                if key is None:
                    candidates = [b for b, e in entries if e == equi]
                else:
                    candidates = keyed.get((key, equi), [])
                    if unkeyed:
                        candidates = candidates + [
                            b for b, e in unkeyed if e == equi
                        ]
                for right_binding in candidates:
                    if not left_binding.compatible(right_binding):
                        continue
                    merged = left_binding.merge(right_binding)
                    if residual is not None and not effective_boolean_value(
                            residual, merged):
                        continue
                    results.append(merged)
                    matched = True
            if outer and not matched:
                results.append(left_binding)
        return iter(results)

    def _eval_union(self, node):
        def generate():
            yield from self._eval(node.left)
            yield from self._eval(node.right)

        return generate()

    def _eval_filter(self, node):
        expression = node.expression

        def generate():
            for binding in self._eval(node.operand):
                if effective_boolean_value(expression, binding):
                    yield binding

        return generate()

    # -- solution modifiers --------------------------------------------------------------

    def _eval_project(self, node):
        projection = node.projection

        def generate():
            for binding in self._eval(node.operand):
                if projection is None:
                    yield binding
                else:
                    yield binding.project(projection)

        return generate()

    def _eval_distinct(self, node):
        def generate():
            # Bindings hash (cached) and compare by their mapping, so they
            # can be deduplicated directly.
            seen = set()
            for binding in self._eval(node.operand):
                if binding not in seen:
                    seen.add(binding)
                    yield binding

        return generate()

    def _eval_order_by(self, node):
        solutions = list(self._eval(node.operand))
        # Apply conditions right-to-left so the first condition dominates
        # (stable sort composition).
        for variable, ascending in reversed(node.conditions):
            solutions.sort(
                key=lambda binding: term_sort_key(binding.get(variable)),
                reverse=not ascending,
            )
        return iter(solutions)

    def _eval_slice(self, node):
        start = node.offset or 0
        stop = None if node.limit is None else start + node.limit
        return islice(self._eval(node.operand), start, stop)

    def _eval_group(self, node):
        """GROUP BY partitioning plus aggregate computation."""
        groups = {}
        for binding in self._eval(node.operand):
            key = tuple(binding.get(variable) for variable in node.group_vars)
            groups.setdefault(key, []).append(binding)
        if not groups and not node.group_vars:
            # Aggregates over an empty solution sequence still yield one row
            # (COUNT() = 0), matching SQL/SPARQL 1.1 behaviour.
            groups[()] = []
        results = []
        for key, members in groups.items():
            values = {
                variable.name: term
                for variable, term in zip(node.group_vars, key)
                if term is not None
            }
            for aggregate in node.aggregates:
                values[aggregate.alias.name] = _compute_aggregate(aggregate, members)
            results.append(Binding(values))
        return iter(results)


# -- aggregation ---------------------------------------------------------------------


def _compute_aggregate(aggregate, bindings):
    """Compute one aggregate over the solutions of a group.

    COUNT counts rows (for ``*``) or bound values; SUM/AVG/MIN/MAX operate on
    the typed values of the aggregated variable, skipping unbound rows.
    Numeric results are returned as integer literals when they are whole.
    """
    from ..rdf.terms import Literal

    if aggregate.variable is None:
        return Literal(len(bindings))
    values = [binding.get(aggregate.variable) for binding in bindings]
    values = [value for value in values if value is not None]
    if aggregate.distinct:
        seen = []
        for value in values:
            if value not in seen:
                seen.append(value)
        values = seen
    if aggregate.function == "COUNT":
        return Literal(len(values))
    numbers = []
    for value in values:
        python_value = value.to_python() if isinstance(value, Literal) else None
        if isinstance(python_value, bool) or not isinstance(python_value, (int, float)):
            continue
        numbers.append(python_value)
    return reduce_numbers(aggregate.function, numbers)


# -- helpers shared by strategies --------------------------------------------------


def _bind_triple(pattern, triple, binding):
    """Extend ``binding`` so that ``pattern`` maps onto ``triple``.

    Returns None when the triple conflicts with existing bindings or with a
    repeated variable inside the pattern.
    """
    updates = {}
    for pattern_term, data_term in zip(pattern, triple):
        if not isinstance(pattern_term, Variable):
            if pattern_term != data_term:
                return None
            continue
        name = pattern_term.name
        bound = binding.get(name)
        if bound is not None:
            if bound != data_term:
                return None
            continue
        if name in updates:
            if updates[name] != data_term:
                return None
            continue
        updates[name] = data_term
    if not updates:
        return binding
    merged = binding.as_dict()
    merged.update(updates)
    return Binding(merged)


def _hash_join(left, right):
    """Join two binding lists on their shared variables.

    Bindings that bind every shared variable are joined through a hash table;
    bindings with unbound shared variables (possible after OPTIONAL) fall
    back to pairwise compatibility checks.
    """
    if not left or not right:
        return []
    shared = _shared_variables(left, right)
    results = []
    if not shared:
        for left_binding in left:
            for right_binding in right:
                results.append(left_binding.merge(right_binding))
        return results

    keyed = {}
    unkeyed_right = []
    for right_binding in right:
        key = _join_key(right_binding, shared)
        if key is None:
            unkeyed_right.append(right_binding)
        else:
            keyed.setdefault(key, []).append(right_binding)

    for left_binding in left:
        key = _join_key(left_binding, shared)
        if key is None:
            candidates = right
        else:
            candidates = keyed.get(key, ())
        for right_binding in candidates:
            if left_binding.compatible(right_binding):
                results.append(left_binding.merge(right_binding))
        if key is not None:
            for right_binding in unkeyed_right:
                if left_binding.compatible(right_binding):
                    results.append(left_binding.merge(right_binding))
    return results


def _split_condition(node):
    """A join condition as (left key names, right key names, residual).

    Cross-side equalities (``?a = ?b`` with ``?a`` bindable only by the
    left operand and ``?b`` only by the right) become hash-key columns;
    every other conjunct stays in the residual condition.
    """
    left_keys, right_keys, residual = [], [], []
    if node.condition is not None:
        left_names = {variable_name(v) for v in node.left.variables()}
        right_names = {variable_name(v) for v in node.right.variables()}
        for conjunct in algebra.split_conjuncts(node.condition):
            crossed = algebra.cross_side_comparison(
                conjunct, left_names, right_names
            )
            if crossed is not None and crossed[2] == "=":
                left_keys.append(crossed[0])
                right_keys.append(crossed[1])
            else:
                residual.append(conjunct)
    return left_keys, right_keys, algebra.conjunction(residual)


def _value_keys(binding, names):
    """Value keys of the named variables; None if any of them is unbound
    or NaN (neither can satisfy an equality)."""
    keys = []
    for name in names:
        term = binding.get(name)
        key = None if term is None else value_key(term)
        if key is None:
            return None
        keys.append(key)
    return tuple(keys)


def _shared_variables(left, right):
    """Variable names that can be bound on both sides of a join."""
    left_vars = set()
    for binding in left:
        left_vars |= binding.variables()
    right_vars = set()
    for binding in right:
        right_vars |= binding.variables()
    return tuple(sorted(left_vars & right_vars))


def _join_key(binding, shared):
    values = []
    for name in shared:
        value = binding.get(name)
        if value is None:
            return None
        values.append(value)
    return tuple(values)
