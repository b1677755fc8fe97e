"""The SPARQL executor: join on dictionary ids, decode at the boundary.

The paper's native engines (Sesame-native, Virtuoso) are fast because their
join loops compare small fixed-size integers from physical indexes and only
materialize RDF terms for final results.  Every store here dictionary-encodes
its terms, so this one executor serves both engine families; they differ only
in what ``triples_ids`` does for a pattern — a linear scan of the document
(:class:`~repro.store.MemoryStore`) or an index probe
(:class:`~repro.store.IndexedStore`):

* :class:`SlotLayout` compiles one algebra tree into a variable -> column
  mapping; every intermediate solution is then a flat tuple of that width
  whose cells are ``None`` (unbound), an ``int`` (a dictionary id), or — only
  above GROUP BY — a computed RDF term.
* Query constants are encoded exactly once per evaluation; a constant the
  dictionary has never seen short-circuits its whole basic graph pattern to
  the empty result without touching a triple.
* A BGP runs from its plan on id rows, every step on the plan's one access
  path: ``probe`` asks ``triples_ids`` with already-encoded components
  once per row, ``scan`` hash-joins one pattern scan on the shared slot
  columns (with pattern reuse, Table II row 5, one scan per distinct scan
  key), and ``kernel`` runs column-at-a-time (:mod:`.kernels`).
  OPTIONAL is a hash-based left outer join on the statically shared slots.
* Terms are reconstructed lazily and memoized per id: FILTER / ORDER BY /
  aggregate evaluation decodes only the cells it actually touches, and
  finished rows cross the result boundary *still as id tuples*, each
  wrapped in an :class:`IdBinding` that decodes on touch — a serializer
  that works per distinct id (:mod:`.serializers`) never decodes per row.

Nothing in this module mutates the store or its dictionary; a fresh
:class:`IdSpaceEvaluation` is created per query evaluation, so decode memos
can never go stale.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from operator import add, itemgetter
from time import perf_counter

from ..rdf.terms import Literal, Variable, as_float, term_sort_key
from ..store.indexed_store import ORDERS
from . import algebra, ast, kernels
from .bindings import Binding, _name
from .cursor import window
from .errors import EvaluationError
from .expressions import ORDERING, effective_boolean_value, order_key, value_key
from .planner import BIND_JOIN, KERNEL, SCAN, Observed

#: What a left row contributes to :meth:`IdSpaceEvaluation._hash_join`.
INNER = "inner"
LEFT_OUTER = "left_outer"
ANTI = "anti"


class SlotLayout:
    """Variable -> column mapping for one query's flat solution rows.

    Given the store's dictionary it is also what every row of one result
    shares (the *shape* an :class:`IdBinding` points at): names, slot map
    and an id -> term memo in front of ``dictionary.decode``.  It references
    nothing else, so rows held after their cursor is gone keep alive neither
    the evaluation nor the store generation it pinned.
    """

    __slots__ = ("names", "_slots", "_decode", "_terms")

    def __init__(self, names, dictionary=None):
        self.names = tuple(names)
        self._slots = {name: index for index, name in enumerate(self.names)}
        self._decode = None if dictionary is None else dictionary.decode
        self._terms = {}

    @classmethod
    def for_tree(cls, tree, dictionary=None):
        """Collect every variable the tree can bind, in first-seen order.

        Triple-pattern variables come from BGP nodes; GROUP BY additionally
        introduces its aggregate aliases.  Variables that appear only in
        expressions need no column — they can never be bound.
        """
        names = []
        seen = set()

        def note(variable):
            name = _name(variable)
            if name not in seen:
                seen.add(name)
                names.append(name)

        for node in algebra.walk(tree):
            if isinstance(node, algebra.BGP):
                for pattern in node.patterns:
                    for term in pattern:
                        if isinstance(term, Variable):
                            note(term)
            elif isinstance(node, algebra.Group):
                for variable in node.group_vars:
                    note(variable)
                for aggregate in node.aggregates:
                    note(aggregate.alias)
        return cls(names, dictionary)

    @property
    def width(self):
        return len(self.names)

    def slot(self, variable):
        """Column index for a variable (or name), or None if it has no column."""
        return self._slots.get(_name(variable))

    def empty_row(self):
        return (None,) * len(self.names)

    def term(self, cell):
        """The RDF term for one row cell, decoded once per dictionary id."""
        if not isinstance(cell, int):
            return cell
        term = self._terms.get(cell)
        if term is None:
            term = self._terms[cell] = self._decode(cell)
        return term

    def adopt(self, term):
        """A (negative) id of this layout's own for a term the dictionary
        has never seen: no index holds it, and it decodes back to ``term``."""
        cell = -1 - len(self._terms)
        self._terms[cell] = term
        return cell

    def __repr__(self):
        return f"SlotLayout({', '.join(self.names)})"


class IdBinding(Binding):
    """A solution that is still an id row: nothing decoded until touched.

    The one row type of the id-space engine — FILTER / ORDER BY expressions
    see intermediate rows through it, and finished rows reach the cursor as
    it.  ``get`` / ``is_bound`` decode just the cell they are asked for;
    every other :class:`Binding` method works on the inherited ``_map``,
    which is built (decoding the whole row) the first time one of them
    reads it.  The serializers never do: they read ``_row`` / ``_shape``
    and encode each distinct id once per result.
    """

    __slots__ = ("_row", "_shape")

    # Two plain slot stores per row instead of two ``object.__setattr__``
    # calls (2x cheaper on a 36k-row result); without a ``__dict__`` only
    # the four private slots can be assigned at all.
    __setattr__ = object.__setattr__

    def __init__(self, shape, row):
        self._shape = shape
        self._row = row

    def __getattr__(self, name):
        # Reached only while the inherited slots are still empty.
        if name == "_map":
            term = self._shape.term
            self._map = built = {
                key: term(cell)
                for key, cell in zip(self._shape.names, self._row)
                if cell is not None
            }
            return built
        if name == "_hash":
            return None
        raise AttributeError(name)

    def get(self, variable, default=None):
        slot = self._shape.slot(variable)
        if slot is None:
            return default
        cell = self._row[slot]
        if cell is None:
            return default
        return self._shape.term(cell)

    def is_bound(self, variable):
        slot = self._shape.slot(variable)
        return slot is not None and self._row[slot] is not None


class IdSpaceEvaluation:
    """One query evaluation over id rows; see the module docstring.

    ``solve`` returns ``(layout, row_iterator)`` without any decoding —
    benchmarks and the decode-counter tests consume rows at this level.
    ``bindings`` wraps each solved row in an :class:`IdBinding`, still
    without decoding: terms appear when a consumer touches them.

    ``reuse_patterns`` enables the optimization the paper lists as Table II
    row 5: a SCAN step whose scan key (the pattern's encoded constants) was
    scanned before in this evaluation reuses that scan's triples — Q4 scans
    its article/creator/name/journal shapes twice, Q6/Q7/Q8 repeat whole
    blocks.
    """

    def __init__(self, store, observe_plans=False, deadline=None, seed=None,
                 reuse_patterns=False):
        self._store = store
        self._dictionary = store.dictionary
        #: When set, planned BGP steps count the rows they produce into
        #: their PlanStep.actual field (the EXPLAIN instrumentation).
        self._observe = observe_plans
        #: With observation on: rows and cumulative seconds out of the last
        #: operator, i.e. what reached the result boundary and when.
        self.result = Observed() if observe_plans else None
        #: Cooperative evaluation budget (a Deadline-like object): the
        #: row-producing hot loops call ``_check()`` so an expired budget
        #: raises :class:`~repro.sparql.errors.QueryTimeout` mid-stream.
        self._deadline = deadline
        self._check = None if deadline is None else deadline.check
        #: Prepared-query parameter pre-binding (variable name -> term),
        #: encoded into the starting row of every BGP by :meth:`solve`.
        self._seed = dict(seed) if seed else {}
        self._seed_row = None
        self._seed_slots = frozenset()
        self._value_key_memo = {}
        self._order_key_memo = {}
        self._scans = {} if reuse_patterns else None
        self._layout = None

    # -- public API ---------------------------------------------------------

    def solve(self, tree):
        """Evaluate a SELECT-shaped algebra tree into (layout, id rows)."""
        if isinstance(tree, algebra.Ask):
            raise EvaluationError("solve() takes the Ask operand, not the Ask node")
        self._layout = SlotLayout.for_tree(tree, self._dictionary)
        self._encode_seed()
        return self._layout, self._eval(tree)

    def _encode_seed(self):
        """Encode the pre-binding seed into the starting row.

        Seed variables without a slot (never used by the query) are ignored.
        A seed term unknown to the dictionary gets an id no triple holds
        (:meth:`SlotLayout.adopt`), so exactly the BGPs that use the
        variable come out empty; rows of any other BGP carry it through to
        the result.  Seeded slots count as bound for hash-join keying.
        """
        row = list(self._layout.empty_row())
        slots = set()
        lookup = self._dictionary.lookup
        for name, term in self._seed.items():
            slot = self._layout.slot(name)
            if slot is None:
                continue
            term_id = lookup(term)
            if term_id is None:
                term_id = self._layout.adopt(term)
            row[slot] = term_id
            slots.add(slot)
        self._seed_row = tuple(row)
        self._seed_slots = frozenset(slots)

    def ask(self, tree):
        """Existence test: True as soon as one solution row exists."""
        _layout, rows = self.solve(tree)
        for _row in rows:
            return True
        return False

    @property
    def decoded(self):
        """Distinct ids decoded so far (EXPLAIN's ``result:`` line)."""
        return len(self._layout._terms)

    def bindings(self, tree):
        """Evaluate into lazy :class:`IdBinding` rows (the result boundary)."""
        layout, rows = self.solve(tree)
        if self._observe:
            rows = self._observe_rows(rows, self.result)
        return self.materialize(layout, rows)

    @staticmethod
    def materialize(layout, rows):
        """Hand finished id rows on as Bindings without decoding anything.

        A C-level ``map``: the cursor pulls it in batches, so between the
        last operator and the consumer's list there is one ``IdBinding``
        construction per row and no Python generator frame.
        """
        return map(partial(IdBinding, layout), rows)

    # -- dispatch -----------------------------------------------------------

    def _eval(self, node):
        if isinstance(node, algebra.BGP):
            return self._eval_bgp(node)
        if isinstance(node, algebra.Join):
            return self._eval_join(node)
        if isinstance(node, algebra.LeftJoin):
            return self._hash_join(node, LEFT_OUTER)
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

    def _node_slots(self, node):
        """Slots of every variable an algebra subtree can bind."""
        slots = set()
        for variable in node.variables():
            slot = self._layout.slot(variable)
            if slot is not None:
                slots.add(slot)
        return slots

    def _ebv(self, expression, row):
        return effective_boolean_value(expression, IdBinding(self._layout, row))

    # -- basic graph patterns -----------------------------------------------

    def _compile_patterns(self, patterns):
        """Encode each pattern to ((is_var, slot-or-id), ...) triples.

        Constants go through the dictionary exactly once per evaluation.
        Returns None when any constant is unknown to the store — no triple
        can match, so the whole BGP is empty (the short-circuit that makes
        Q3c-style queries constant time).
        """
        lookup = self._dictionary.lookup
        slot_of = self._layout.slot
        compiled = []
        for pattern in patterns:
            parts = []
            for term in pattern:
                if isinstance(term, Variable):
                    parts.append((True, slot_of(term)))
                else:
                    term_id = lookup(term)
                    if term_id is None:
                        return None
                    parts.append((False, term_id))
            compiled.append(tuple(parts))
        return compiled

    def _start_row(self):
        """The starting solution row of a BGP (the pre-binding seed, if any)."""
        if self._seed_row is not None:
            return self._seed_row
        return self._layout.empty_row()

    def _eval_bgp(self, node, seeds=None):
        """Execute a BGP along its :class:`~repro.sparql.planner.BGPPlan`.

        Every step either scans its pattern once and hash-joins on the
        slots the planner saw as bound (a SCAN plan) or probes the store
        per intermediate row (any other); ``seeds`` carries the left rows
        of a bind join.  With observation on, every step counts the rows it
        produces into ``step.actual`` — the EXPLAIN estimated-versus-actual
        column.

        When :meth:`_bgp_block_stream` accepts the BGP (and no bind-join
        seeds come in, whose per-row starting bindings the block pipeline
        does not model), it executes column-at-a-time over
        :class:`~repro.sparql.kernels.Block` streams and only converts back
        to tuple rows at the BGP boundary.
        """
        if not node.admits(self._seed):
            return iter(())
        if seeds is None:
            blocks = self._bgp_block_stream(node)
            if blocks is not None:
                return kernels.rows_from_blocks(blocks, self._layout.width)
        compiled = self._compile_patterns(node.patterns)
        if compiled is None:
            return iter(())
        plan = node.plan
        scan = plan.access == SCAN
        layout = self._layout
        if seeds is not None:
            rows = iter(seeds)
        else:
            rows = iter((self._start_row(),))
        bound_slots = set(self._seed_slots)
        for name in plan.outer_bound:
            slot = layout.slot(name)
            if slot is not None:
                bound_slots.add(slot)
        for position, (cpattern, step) in enumerate(zip(compiled, plan.steps)):
            pattern_slots = {ref for is_var, ref in cpattern if is_var}
            if scan:
                first = next(rows, None)
                if first is None:
                    return iter(())  # the steps from here on never run
                # Seed rows may bind slots the plan does not know of, so
                # only unseeded rows are disjoint from the pattern's.  The
                # step's rows are drained here, which frees its table
                # before the next step builds one.
                rows = iter(list(self._join(
                    chain((first,), rows), partial(self._scan_rows, cpattern),
                    tuple(sorted(bound_slots & pattern_slots)), INNER,
                    pattern_slots if seeds is None else None,
                )))
            else:
                rows = self._extend_rows(rows, cpattern)
            bound_slots |= pattern_slots
            for expression in plan.filters_at(position):
                rows = self._filter_rows(rows, expression)
            if self._observe:
                rows = self._observe_rows(rows, step)
        return rows

    def _scan_rows(self, cpattern):
        """The rows of one SCAN step's pattern, one per matching triple.

        The triples come from a fresh scan or, with pattern reuse, from an
        earlier step of this evaluation that scanned the same key.
        """
        scan_key = tuple(None if is_var else ref for is_var, ref in cpattern)
        if self._scans is None:
            triples = self._store.triples_ids(*scan_key)
        else:
            triples = self._scans.get(scan_key)
            if triples is None:
                triples = self._scans[scan_key] = list(
                    self._store.triples_ids(*scan_key))
        empty = self._layout.empty_row()
        check = self._check
        rows = []
        for ids in triples:
            if check is not None:
                check()
            row = _bind_ids(empty, cpattern, ids)
            if row is not None:
                rows.append(row)
        return rows

    @staticmethod
    def _observe_rows(items, step, rows_of=None):
        """Count rows into ``step.actual`` and time pulls into ``step.seconds``.

        Each item is one row, or ``rows_of(item)`` rows (``len`` for a
        stream of Blocks).  ``step.partial`` stays set until the items are
        exhausted, so an early-stopping consumer (ASK, LIMIT) leaves
        ``actual`` marked as the lower bound it is.

        ``seconds`` accumulates the wall time spent inside ``next()`` at
        this boundary.  Steps are nested generators, so the measurement is
        *cumulative*: it includes the upstream steps this one pulls
        through.  The EXPLAIN renderer subtracts consecutive steps to show
        per-step self time.
        """
        if step.actual is None:
            step.actual = 0
        if step.seconds is None:
            step.seconds = 0.0
        step.partial = True

        def generate():
            iterator = iter(items)
            while True:
                started = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    step.seconds += perf_counter() - started
                    step.partial = False
                    return
                step.seconds += perf_counter() - started
                step.actual += 1 if rows_of is None else rows_of(item)
                yield item

        return generate()

    # -- batch (block) execution of kernel plans ----------------------------

    def _bgp_block_stream(self, node):
        """The Block stream of a BGP planned on the kernels, or None.

        None means the node is not eligible for block execution (not a
        BGP, another access path, or prepared pre-bindings in play, which
        run the plan's steps as probes); an eligible BGP whose constants
        are unknown to the dictionary returns the empty stream.
        """
        if not isinstance(node, algebra.BGP) or node.plan.access != KERNEL or self._seed:
            return None
        compiled = self._compile_patterns(node.patterns)
        if compiled is None:
            return iter(())
        return self._bgp_blocks(compiled, node.plan)

    def _bgp_blocks(self, compiled, plan):
        """Execute a BGP planned on the kernels as a lazy stream of Blocks.

        Mirrors the tuple pipeline step for step — per-position inline
        filters, EXPLAIN row counting, deadline checks — but each stage
        transforms whole blocks of at most ``kernels.BLOCK_ROWS`` rows, so
        LIMIT pushdown and mid-stream deadline expiry keep working at block
        granularity.
        """
        blocks = iter((kernels.unit_block(),))
        bound = set(self._seed_slots)
        for position, cpattern in enumerate(compiled):
            blocks = self._kernel_step(blocks, cpattern, frozenset(bound))
            bound.update(ref for is_var, ref in cpattern if is_var)
            for expression in plan.filters_at(position):
                blocks = self._filter_blocks(blocks, expression)
            if self._observe:
                blocks = self._observe_rows(blocks, plan.steps[position], len)
        return blocks

    def _kernel_step(self, blocks, cpattern, bound):
        """One pattern as a block transformer: a vectorized range of the
        permutation its bound positions lead, then masks.

        ``bound`` holds the slots every incoming block binds.  With a
        position bound as a column and at most one constant, each row takes
        its own range through row offsets: an endpoint's (the subject first)
        in a constant predicate's PSO or POS rows, or else its subject's,
        object's or predicate's in SPO, OSP or PSO.  Otherwise the constants
        give one range (all of SPO if none), crossed with every block or,
        when the third position is bound, a membership mask; no rows is the
        empty stream.  :func:`kernels.extend` binds every other position
        from the range rows or masks it against its constant or column.
        """
        store = self._store
        constants = [None if is_var else ref for is_var, ref in cpattern]
        bound_at = [position for position, (is_var, ref) in enumerate(cpattern)
                    if is_var and ref in bound]
        if bound_at and constants.count(None) > 1:
            lead = min(bound_at, key=(0, 2, 1).index)  # subject, object, predicate
            orders = ("spo", "pso", "osp") if constants[1] is None else ("pso", None, "pos")
            starts, *values = store.permutation(orders[lead], constants[1])
            lanes = [(column, cpattern[position]) for column, position
                     in zip(values, ORDERS[orders[lead]][-len(values):])]
            slot = cpattern[lead][1]
            return self._map_blocks(blocks, lambda block: kernels.extend(
                block, lanes, *kernels.key_ranges(starts, block.columns[slot])))
        count, ranged = store.range_columns(*constants)
        if not count:
            return iter(())
        lanes = [(column, cpattern[position]) for position, column in ranged.items()]
        if bound_at:
            ((values, (_var, slot)),) = lanes
            return self._map_blocks(blocks, lambda block: kernels.apply_mask(
                block, kernels.sorted_member(block.columns[slot], values)))
        if not lanes:
            return blocks  # every position constant: the triple exists
        return self._cross_blocks(blocks, kernels.extend(kernels.Block({}, count), lanes).columns)

    def _cross_blocks(self, blocks, columns):
        """Every block crossed with the same parallel ``columns`` (the rows
        of a pattern that shares no slot with the blocks), in pieces that
        keep output blocks near BLOCK_ROWS, deadline-checked per block;
        empty columns short-circuit to the empty stream."""
        total = len(next(iter(columns.values())))
        if not total:
            return iter(())
        check = self._check

        def generate():
            for block in blocks:
                if check is not None:
                    check()
                if not block.length:
                    continue
                # Crossed with the unit block (a first step), the columns are
                # the output as they stand: no repeat/tile needed.
                unit = not block.columns and block.length == 1
                step = kernels.BLOCK_ROWS if unit else max(1, kernels.BLOCK_ROWS // block.length)
                for start in range(0, total, step):
                    piece = {slot: column[start:start + step]
                             for slot, column in columns.items()}
                    yield (kernels.Block(piece, len(next(iter(piece.values()))))
                           if unit else kernels.cross_extend(block, piece))
        return generate()

    def _filter_blocks(self, blocks, expression):
        """Inline-filter a block stream, columnar when the shape compiles.

        Expression shapes :func:`kernels.compile_filter` understands run as
        whole-column masks; anything else drops to per-row effective-boolean
        evaluation over the block's materialized tuple rows (same semantics,
        block-sized batches).
        """
        compiled = kernels.compile_filter(expression, self._layout.slot)
        if compiled is not None:
            mask = kernels.filter_masks(compiled, self._layout.term)
            return self._map_blocks(blocks, lambda block: kernels.apply_mask(block, mask(block)))
        width = self._layout.width

        def keep_rows(block):
            keep = [
                index
                for index, row in enumerate(kernels.block_rows(block, width))
                if self._ebv(expression, row)
            ]
            return block if len(keep) == block.length else kernels.gather(block, keep)

        return self._map_blocks(blocks, keep_rows)

    def _map_blocks(self, blocks, transform):
        """``transform`` over every non-empty block, deadline-checked per
        block; blocks it empties are dropped."""
        check = self._check
        for block in blocks:
            if check is not None:
                check()
            if block.length == 0:
                continue
            out = transform(block)
            if out.length:
                yield out

    def _extend_rows(self, rows, cpattern):
        """Index nested-loop step: probe the store once per current row."""
        triples_ids = self._store.triples_ids
        check = self._check
        (s_var, s_ref), (p_var, p_ref), (o_var, o_ref) = cpattern
        for row in rows:
            s = row[s_ref] if s_var else s_ref
            p = row[p_ref] if p_var else p_ref
            o = row[o_ref] if o_var else o_ref
            for ids in triples_ids(s, p, o):
                if check is not None:
                    check()
                extended = _bind_ids(row, cpattern, ids)
                if extended is not None:
                    yield extended

    def _filter_rows(self, rows, expression):
        check = self._check
        fast = self._bound_predicate(expression)
        if fast is not None:
            for row in rows:
                if check is not None:
                    check()
                if fast(row):
                    yield row
            return
        for row in rows:
            if check is not None:
                check()
            if self._ebv(expression, row):
                yield row

    def _bound_predicate(self, expression):
        """A direct row predicate for ``bound``/``!bound`` filters, or None.

        These filters (the Q6/Q7 closed-world negation idiom) only test
        whether a cell is None, which needs no term decoding and no
        expression-tree walk — the dominant per-row cost right after a big
        left join.
        """
        negate = False
        if isinstance(expression, ast.Not):
            negate = True
            expression = expression.operand
        if not isinstance(expression, ast.Bound):
            return None
        slot = self._layout.slot(expression.variable)
        if slot is None:
            # A variable no pattern can bind: bound() is constantly false.
            return (lambda row: True) if negate else (lambda row: False)
        if negate:
            return lambda row: row[slot] is None
        return lambda row: row[slot] is not None

    # -- binary operators ----------------------------------------------------

    def _eval_join(self, node):
        if node.plan.strategy == BIND_JOIN:
            # Bind join: the left rows seed the right side's evaluation
            # (sideways information passing), so its patterns probe with the
            # already-bound slots instead of enumerating standalone.
            left = list(self._eval(node.left))
            if not left:
                return iter(())
            return self._eval_seeded(node.right, left)
        rows = self._hash_join(node, INNER)
        if self._observe:
            rows = self._observe_rows(rows, node.plan)
        return rows

    def _eval_seeded(self, node, rows):
        """Evaluate ``node`` continuing from the given solution rows.

        Only the operators :func:`~repro.sparql.planner._seedable` accepts
        (BGP, Union, Filter) can be seeded; the planner bind-joins no other
        right side.
        """
        if isinstance(node, algebra.BGP):
            return self._eval_bgp(node, seeds=rows)
        if isinstance(node, algebra.Union):
            def generate():
                yield from self._eval_seeded(node.left, rows)
                yield from self._eval_seeded(node.right, rows)

            return generate()
        if isinstance(node, algebra.Filter):
            return self._filter_rows(
                self._eval_seeded(node.operand, rows), node.expression
            )
        raise EvaluationError(f"cannot seed {type(node).__name__} with "
                              f"bind-join rows")

    def _hash_join(self, node, mode):
        """Join, OPTIONAL and closed-world negation of two operands, keyed
        on their statically shared slots and on the cross-side equalities
        of ``node.condition`` (Q5a's ``?name = ?name2``, Q6's ``?author =
        ?author2``): native engines turn exactly these theta-joins into
        equi-joins."""
        left_slots = self._node_slots(node.left)
        right_slots = self._node_slots(node.right)
        return self._join(
            self._eval(node.left), lambda: list(self._eval(node.right)),
            tuple(sorted(left_slots & right_slots)), mode, right_slots,
            self._split_equi_condition(node.condition, left_slots, right_slots),
        )

    def _join(self, left_rows, build_right, shared, mode, right_slots=None,
              condition=((), (), (), None)):
        """The one hash join: ``left_rows`` stream through a table of the
        rows ``build_right()`` returns, keyed on the ``shared`` slots and the
        equalities of ``condition`` (:meth:`_split_equi_condition`); only
        ordering conjuncts and the residual are tested per candidate pair.

        ``build_right`` runs once a first left row exists, so a SCAN step
        never scans for an empty input.  A row with an unbound shared slot
        meets every row of the other side through a compatibility check.
        With no shared slot, ``right_slots`` (when given) promises that
        right rows bind only those slots and left rows none of them.
        ``mode``: a left row contributes its matches (INNER), its matches or
        else itself (LEFT_OUTER), or itself when nothing matches (ANTI).
        """
        left_rows = iter(left_rows)
        first = next(left_rows, None)
        if first is None:
            return iter(())
        left_rows = chain((first,), left_rows)
        right = build_right()
        if not right:
            return iter(()) if mode == INNER else left_rows
        equi_left, equi_right, order_pairs, residual = condition
        value_key = self._value_key
        order_key = self._order_key
        n_shared = len(shared)

        def join_key(cells):
            """Shared cells plus the value keys of the equality cells; None
            when an equality cell is unbound or NaN (no pair can match)."""
            equi_cells = cells[n_shared:]
            if None in equi_cells:
                return None
            equi_keys = tuple(map(value_key, equi_cells))
            return None if None in equi_keys else cells[:n_shared] + equi_keys

        # A bare table holds the right rows themselves; with equality or
        # ordering conjuncts it holds (row, equality keys, ordering keys).
        bare = not (equi_left or order_pairs)
        build_cells = _cells_getter(shared + equi_right)
        keyed = {}
        loose = []     # entries whose shared-slot key is incomplete
        entries = []   # every entry, for left rows with an unbound key cell
        for row in right:
            key = build_cells(row)
            if bare:
                entry = row
            else:
                key = join_key(key)
                order_keys = (_order_cells_key(row, order_pairs, 1, order_key)
                              if order_pairs else ())
                if key is None or order_keys is None:
                    continue  # an unbound or NaN operand: no pair can match
                entry = (row, key[n_shared:], order_keys)
            entries.append(entry)
            if None in key:
                loose.append(entry)
            else:
                bucket = keyed.get(key)
                if bucket is None:
                    keyed[key] = [entry]
                else:
                    bucket.append(entry)

        # Without equality conjuncts or loose entries the key cells are the
        # table key, so the table itself is the per-key-cells memo.
        plain = not equi_left and not loose
        candidates_of = keyed if plain else {}

        def find(cells):
            """The entries a left row can match, for key cells not yet in
            ``candidates_of``: one value-key derivation and table lookup
            per distinct key cells."""
            if plain:
                return entries if None in cells else ()
            key = join_key(cells)
            if key is None:
                found = ()
            elif None in key:
                found = [entry for entry in entries
                         if bare or entry[1] == key[n_shared:]]
            else:
                found = keyed.get(key, ())
                if loose:
                    found = list(found) + [entry for entry in loose
                                           if bare or entry[1] == key[n_shared:]]
            candidates_of[cells] = found
            return found

        # Disjoint columns (modulo equal-valued seed slots): the cell-wise
        # union can never conflict.
        width = self._layout.width
        merge_disjoint = None if shared or right_slots is None else _cells_getter([
            slot + width if slot in right_slots else slot
            for slot in range(width)
        ])
        probe_cells = _cells_getter(shared + equi_left)
        check = self._check
        compare_ops = tuple(ORDERING[op] for _ls, _rs, op in order_pairs)
        ebv = self._ebv
        anti = mode == ANTI
        outer = mode != INNER

        def probe():
            for left_row in left_rows:
                if check is not None:
                    check()
                cells = probe_cells(left_row)
                candidates = candidates_of.get(cells)
                if candidates is None:
                    candidates = find(cells)
                matched = False
                left_keys = (_order_cells_key(left_row, order_pairs, 0, order_key)
                             if candidates and order_pairs else ())
                if left_keys is not None:
                    for entry in candidates:
                        right_row = entry if bare else entry[0]
                        if order_pairs and not _order_keys_hold(
                                left_keys, entry[2], compare_ops):
                            continue
                        if merge_disjoint is not None:
                            if anti and residual is None:
                                matched = True
                                break
                            merged = merge_disjoint(left_row + right_row)
                        else:
                            merged = _merge_compatible(left_row, right_row)
                            if merged is None:
                                continue
                        if residual is not None and not ebv(residual, merged):
                            continue
                        matched = True
                        if anti:
                            break
                        yield merged
                if outer and not matched:
                    yield left_row

        return probe()

    def _split_equi_condition(self, condition, left_slots, right_slots):
        """Split a join condition into hash keys, order pairs, residual.

        A conjunct ``?a = ?b`` where one variable can only be bound by the
        left operand and the other only by the right becomes a
        ``(left_slot, right_slot)`` key-column pair.  An ordering conjunct
        ``?a < ?b`` of the same cross-side shape becomes an
        ``(left_slot, right_slot, operator)`` entry checked through
        memoized ordering keys — per-candidate comparisons of precomputed
        floats/strings instead of full expression evaluation (Q6's
        ``?yr2 < ?yr`` theta-join is exactly this shape).  Everything else
        stays in the residual condition (rebuilt as a conjunction, None
        when empty).
        """
        if condition is None:
            return (), (), (), None
        names = self._layout.names
        slot_of = self._layout.slot
        left_names = {names[slot] for slot in left_slots}
        right_names = {names[slot] for slot in right_slots}
        equi_left = []
        equi_right = []
        order_pairs = []
        residual = []
        for conjunct in algebra.split_conjuncts(condition):
            crossed = algebra.cross_side_comparison(
                conjunct, left_names, right_names
            )
            if crossed is None:
                residual.append(conjunct)
                continue
            left_slot, right_slot = slot_of(crossed[0]), slot_of(crossed[1])
            if crossed[2] == "=":
                equi_left.append(left_slot)
                equi_right.append(right_slot)
            else:
                order_pairs.append((left_slot, right_slot, crossed[2]))
        return (tuple(equi_left), tuple(equi_right), tuple(order_pairs),
                algebra.conjunction(residual))

    def _order_key(self, cell):
        """Memoized :func:`~repro.sparql.expressions.order_key` of one
        cell's term (None results included)."""
        try:
            return self._order_key_memo[cell]
        except KeyError:
            key = self._order_key_memo[cell] = order_key(self._layout.term(cell))
            return key

    def _value_key(self, cell):
        """:func:`~repro.sparql.expressions.value_key` of one cell's term.

        Memoized per cell: the join build calls this once per row and
        equi-column, and rows repeat the same ids heavily (Q6-style builds
        re-derive the key for every author id on every row), so the memo
        turns decode + ``to_python`` + classification into one dict hit
        (NaN, whose key is None, is re-derived every time).
        """
        key = self._value_key_memo.get(cell)
        if key is None:
            key = value_key(self._layout.term(cell))
            self._value_key_memo[cell] = key
        return key

    def _eval_union(self, node):
        def generate():
            yield from self._eval(node.left)
            yield from self._eval(node.right)

        return generate()

    def _eval_filter(self, node):
        anti = self._anti_join_rows(node)
        if anti is not None:
            return anti
        return self._filter_rows(self._eval(node.operand), node.expression)

    def _anti_join_rows(self, node):
        """Closed-world negation, or None when the shape doesn't apply.

        ``FILTER (!bound(?v))`` over an OPTIONAL whose right side always
        binds ``?v`` keeps exactly the unmatched left rows — the Q6/Q7
        idiom the paper singles out.  Matched rows only exist to be thrown
        away, so the left join can stop probing a left row at its first
        match instead of materializing every merged pair.
        """
        expression = node.expression
        if not isinstance(expression, ast.Not):
            return None
        operand = expression.operand
        if not isinstance(operand, ast.Bound):
            return None
        inner = node.operand
        if not isinstance(inner, algebra.LeftJoin):
            return None
        if not isinstance(inner.right, algebra.BGP):
            return None
        if operand.variable not in inner.right.variables():
            return None
        slot = self._layout.slot(operand.variable)
        if slot is None or slot in self._node_slots(inner.left):
            return None
        if self._seed:
            # Seeds could bind the tested slot on the left side.
            return None
        return self._hash_join(inner, ANTI)

    # -- solution modifiers --------------------------------------------------

    def _eval_project(self, node):
        if node.projection is None:
            return self._eval(node.operand)
        width = self._layout.width
        keep = {slot for slot in map(self._layout.slot, node.projection)
                if slot is not None}
        found = self._block_operand(node.operand)
        if found is not None:
            # Unprojected columns are dropped in block space, before any
            # row is built.
            return kernels.rows_from_blocks(found[0], width, keep)
        rows = self._eval(node.operand)
        if len(keep) == width:
            return rows
        # One C-level gather per row: an unprojected cell reads the None
        # appended past the row's end.
        getter = _cells_getter([index if index in keep else width
                                for index in range(width)])
        return map(getter, map(add, rows, repeat((None,))))

    def _block_operand(self, node):
        """``(blocks, bound)`` for a BGP planned on the kernels or a Union of two
        (one stream of both sides' blocks), ``bound`` holding per side the
        slots its patterns bind; None when any part runs on tuples."""
        sides = (node.left, node.right) if isinstance(node, algebra.Union) else (node,)
        streams = []
        for side in sides:
            blocks = self._bgp_block_stream(side)
            if blocks is None:
                return None
            streams.append(blocks)
        return chain.from_iterable(streams), [self._node_slots(side) for side in sides]

    def _eval_distinct(self, node):
        fast = self._distinct_blocks(node.operand)
        if fast is not None:
            return fast

        def generate():
            seen = set()
            for row in self._eval(node.operand):
                if row not in seen:
                    seen.add(row)
                    yield row

        return generate()

    def _distinct_blocks(self, operand):
        """Block-space DISTINCT over a projected BGP, or None when ineligible.

        The Q4 shape — ``SELECT DISTINCT ?a ?b WHERE { <join-heavy BGP> }``
        — otherwise materializes one tuple per intermediate row only for
        the distinct set to discard most of them.  When the operand is
        Project over a kernel-annotated BGP, or over a Union of two (Q9),
        and the same one or two id columns survive the projection on every
        side, dedup runs on the blocks themselves (a u64 composite per row,
        deduplicated by sort) and only distinct rows ever become tuples.
        Emission order differs from the tuple path (blocks dedup sorted,
        tuples first-seen) — DISTINCT without ORDER BY leaves order
        unspecified, and the result multiset is identical.
        """
        if not (isinstance(operand, algebra.Project)
                and operand.projection is not None):
            return None
        found = self._block_operand(operand.operand)
        if found is None:
            return None
        blocks, bound = found
        projected = {slot for slot in map(self._layout.slot, operand.projection)
                     if slot is not None}
        # Projected variables a side never binds are None in every one of
        # its rows, which no u64 key holds: every side must keep the same
        # columns.  With no surviving id column the generic path handles the
        # degenerate all-None case.
        keeps = {tuple(sorted(projected & slots)) for slots in bound}
        if len(keeps) != 1:
            return None
        (keep,) = keeps
        if not 1 <= len(keep) <= 2:
            return None
        return kernels.rows_from_blocks(kernels.distinct_blocks(blocks, keep),
                                        self._layout.width)

    def _eval_order_by(self, node):
        rows = list(self._eval(node.operand))
        cell_term = self._layout.term
        # Apply conditions right-to-left so the first condition dominates
        # (stable sort composition); only the sorted columns are decoded.
        for variable, ascending in reversed(node.conditions):
            slot = self._layout.slot(variable)
            if slot is None:
                continue
            rows.sort(
                key=lambda row, slot=slot: term_sort_key(cell_term(row[slot])),
                reverse=not ascending,
            )
        return iter(rows)

    def _eval_slice(self, node):
        return window(self._eval(node.operand), node.offset, node.limit)

    def _eval_group(self, node):
        """GROUP BY partitioning plus aggregates, grouping on raw ids.

        Group keys compare ids (the dictionary is injective, so id equality
        is term equality); only SUM/AVG/MIN/MAX decode the aggregated column.
        Aggregate results are computed terms and live in their alias column
        as terms, not ids — they never existed in the store's dictionary.
        """
        layout = self._layout
        group_slots = tuple(layout.slot(variable) for variable in node.group_vars)
        groups = {}
        for row in self._eval(node.operand):
            key = tuple(
                None if slot is None else row[slot] for slot in group_slots
            )
            groups.setdefault(key, []).append(row)
        if not groups and not node.group_vars:
            # Aggregates over an empty solution sequence still yield one row
            # (COUNT() = 0), matching SQL/SPARQL 1.1 behaviour.
            groups[()] = []
        results = []
        for key, members in groups.items():
            out = [None] * layout.width
            for slot, cell in zip(group_slots, key):
                if slot is not None and cell is not None:
                    out[slot] = cell
            for aggregate in node.aggregates:
                alias_slot = layout.slot(aggregate.alias)
                if alias_slot is not None:
                    out[alias_slot] = self._compute_aggregate(aggregate, members)
            results.append(tuple(out))
        return iter(results)

    def _compute_aggregate(self, aggregate, rows):
        if aggregate.variable is None:
            return Literal(len(rows))
        slot = self._layout.slot(aggregate.variable)
        if slot is None:
            cells = []
        else:
            cells = [row[slot] for row in rows if row[slot] is not None]
        if aggregate.distinct:
            seen = set()
            distinct = []
            for cell in cells:
                if cell not in seen:
                    seen.add(cell)
                    distinct.append(cell)
            cells = distinct
        if aggregate.function == "COUNT":
            return Literal(len(cells))
        numbers = []
        for cell in cells:
            term = self._layout.term(cell)
            value = term.to_python() if isinstance(term, Literal) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            numbers.append(value)
        return reduce_numbers(aggregate.function, numbers)


# -- aggregation ----------------------------------------------------------------


def reduce_numbers(function, numbers):
    """SUM/AVG/MIN/MAX over extracted python numbers, as an RDF literal."""
    if not numbers:
        return Literal(0)
    if function in ("SUM", "AVG"):
        if any(isinstance(number, float) for number in numbers):
            # With a double among them the sum is a double, in whatever
            # order the rows come: an integer past its range is infinite.
            numbers = [as_float(number) for number in numbers]
        result = sum(numbers)
        if function == "AVG":
            try:
                result = result / len(numbers)
            except OverflowError:  # an integer sum past double range
                result = as_float(result) / len(numbers)
    elif function == "MIN":
        result = min(numbers)
    elif function == "MAX":
        result = max(numbers)
    else:
        raise EvaluationError(f"unknown aggregate function {function!r}")
    if isinstance(result, float) and result.is_integer():
        result = int(result)
    return Literal(result)


# -- join keys --------------------------------------------------------------------


def _cells_getter(slots):
    """``row -> tuple of the cells at slots`` (C speed for two or more)."""
    if len(slots) >= 2:
        return itemgetter(*slots)
    if slots:
        slot = slots[0]
        return lambda row: (row[slot],)
    return lambda row: ()


def _order_cells_key(row, order_pairs, side, order_key):
    """One row's ordering keys over the extracted conjuncts (one side).

    ``side`` selects the pair element (0 = left slot, 1 = right slot).
    None when any operand cell is unbound — a type error no candidate pair
    can recover from, mirroring :func:`expressions._compare`.
    """
    keys = []
    for pair in order_pairs:
        cell = row[pair[side]]
        if cell is None:
            return None
        keys.append(order_key(cell))
    return keys


def _order_keys_hold(left_keys, right_keys, compare_ops):
    """All extracted ordering conjuncts hold for one candidate pair.

    A missing key or a cross-kind pair is a SPARQL type error, which under
    the condition's conjunction makes the pair fail.
    """
    for key_a, key_b, compare in zip(left_keys, right_keys, compare_ops):
        if (key_a is None or key_b is None or key_a[0] != key_b[0]
                or not compare(key_a[1], key_b[1])):
            return False
    return True


# -- row algebra ----------------------------------------------------------------


def _bind_ids(row, cpattern, ids):
    """Extend an id row so that a compiled pattern maps onto an id triple.

    Returns None when the triple conflicts with a repeated variable in the
    pattern; components the probe already constrained are skipped for free.
    """
    updated = None
    for (is_var, ref), value in zip(cpattern, ids):
        if not is_var:
            continue
        current = row[ref] if updated is None else updated[ref]
        if current is None:
            if updated is None:
                updated = list(row)
            updated[ref] = value
        elif current != value:
            return None
    if updated is None:
        return row
    return tuple(updated)


def _merge_compatible(left_row, right_row):
    """Cell-wise union of two rows, or None when any column disagrees."""
    merged = []
    for a, b in zip(left_row, right_row):
        if a is None:
            merged.append(b)
        elif b is None or a == b:
            merged.append(a)
        else:
            return None
    return tuple(merged)
