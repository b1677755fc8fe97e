"""Batch (column-at-a-time) kernels for the id-space evaluator.

The tuple path in :mod:`.idspace` grows one Python tuple per intermediate
solution inside the BGP hot loops — per-row interpreter overhead the paper's
native engines do not pay.  This module provides the batch alternative: a
basic graph pattern executes over :class:`Block` objects (parallel ``u32``
id columns keyed by slot), and each plan step is one vectorized range of
the store permutation its bound positions lead, in one of two modes:

* **per-row ranges** — when the blocks bind a position as a column and at
  most one position is constant, every row reads its range off row
  offsets (``key_ranges``: a permutation's own, or a constant predicate's
  PSO or POS offsets), and the one range-expansion kernel (``expand``)
  repeats the row once per match;
* **one range** — otherwise the pattern's constants give one range, which
  the evaluator crosses with its blocks (``cross_extend``) in pieces of
  about :data:`BLOCK_ROWS` rows, so LIMIT pushdown and deadline checks keep
  working at block granularity; or, when the third position is a bound
  column, a membership mask (``sorted_member``).

In both modes :func:`extend` binds every other position from the range
rows, or masks it against its constant or column.  Block DISTINCT
(:func:`distinct_blocks`) keeps the ``u64`` keys it has seen as one sorted
array.  The **columnar filters** (:func:`filter_masks`) evaluate the
comparison/equality FILTER shapes the catalog queries use against whole
columns, each conjunct with a :class:`KeyTable` that keys every id once
per evaluation with :func:`.expressions.value_key` /
:func:`.expressions.order_key`, so a mask decides exactly what the row
filter does.  Dedup is by sort (:func:`sorted_distinct`), never
``np.unique``, which hashes integers in numpy 2.

The kernels are numpy code and nothing else.  Nothing here imports the
planner or the id-space evaluator — the dependency points the other way.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from ..rdf.terms import BNode, Literal, URIRef, Variable
from . import ast
from .expressions import ORDERING, order_key, value_key


#: Rows per block on the scan/selection kernels.  Large enough that per-block
#: Python overhead (one generator step, one deadline check) is amortized over
#: ~1k rows of C-level work, small enough that a LIMIT 10 query never
#: materializes more than one block past its answer and deadlines fire with
#: sub-millisecond granularity on the catalog workloads.
BLOCK_ROWS = 1024


class Block:
    """A batch of intermediate solutions as parallel id columns.

    ``columns`` maps slot index -> numpy column of dictionary ids; every
    column has exactly ``length`` entries.  Slots absent from ``columns``
    are unbound in every row of the block — within one planned BGP a
    variable is either bound in all rows of a block or in none, which is
    what lets blocks drop the per-cell ``None`` bookkeeping of the tuple
    path.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns, length):
        self.columns = columns
        self.length = length

    def __len__(self):
        return self.length

    def __repr__(self):
        return f"Block(slots={sorted(self.columns)}, rows={self.length})"


def unit_block():
    """The starting block of a BGP: one row binding nothing."""
    return Block({}, 1)


def empty_block():
    """A block with no rows (kernels return it for empty join results)."""
    return Block({}, 0)


# -- column plumbing ----------------------------------------------------------


def mask_all(block, value):
    """A constant filter mask over one block."""
    return np.full(block.length, bool(value))


def apply_mask(block, mask):
    """The block restricted to the rows where ``mask`` is true."""
    length = int(mask.sum())
    if length == block.length:
        return block
    columns = {slot: col[mask] for slot, col in block.columns.items()}
    return Block(columns, length)


def gather(block, indices):
    """The block restricted to (and ordered by) the given row indices."""
    idx = np.asarray(indices, dtype=np.intp)
    columns = {slot: col[idx] for slot, col in block.columns.items()}
    return Block(columns, len(indices))


def block_rows(block, width, slots=None):
    """One block's rows as flat ``width``-wide tuples of ints/None.

    The bridge back to the tuple domain: ids come out as Python ints
    (``tolist`` conversion) through one C-level ``zip`` of the columns, with
    ``repeat(None)`` for the unbound slots, so downstream operators
    (OPTIONAL joins, DISTINCT sets, the decode memo) see exactly the cells
    the tuple path would have produced.  ``slots``, when given, are the
    only columns kept (a projection); the others read as None.
    """
    kept = [slot for slot in block.columns if slots is None or slot in slots]
    if not kept:
        return repeat((None,) * width, block.length)
    columns = [repeat(None)] * width
    for slot in kept:
        columns[slot] = block.columns[slot].tolist()
    return zip(*columns)


def rows_from_blocks(blocks, width, slots=None):
    """Flatten a lazy block stream into the tuple-row protocol."""
    return chain.from_iterable(block_rows(block, width, slots) for block in blocks)


# -- scan / selection kernels -------------------------------------------------


def cross_extend(block, new_columns):
    """Cartesian product of a block with parallel new columns.

    ``new_columns`` maps slot -> column; all new columns have the same
    length ``m``.  Every block row is paired with every new row: existing
    columns repeat each entry ``m`` times (preserving row order, and with it
    any sortedness of existing columns), new columns tile ``block.length``
    times.
    """
    lengths = {len(col) for col in new_columns.values()}
    (m,) = lengths
    if m == 0 or block.length == 0:
        return empty_block()
    columns = {
        slot: np.repeat(col, m) for slot, col in block.columns.items()
    }
    for slot, col in new_columns.items():
        columns[slot] = np.tile(np.asarray(col), block.length)
    return Block(columns, block.length * m)


# -- join / probe kernels -----------------------------------------------------


def key_ranges(starts, keys):
    """``(lo, hi)``: the rows of each id of the column ``keys`` by row
    offsets ``starts``.  An id the offsets do not cover — a term a later
    generation added to the shared dictionary — has none."""
    last = len(starts) - 1
    keys = np.minimum(keys, last)
    return starts[keys], starts[np.minimum(keys + 1, last)]


def expand(block, lo, hi):
    """The block with row ``i`` repeated once per position of ``lo[i]:hi[i]``,
    and those positions: the one range-expansion kernel.

    Row order is preserved (the output index vector is non-decreasing), so
    a column that was sorted stays sorted — the property that keeps
    merge-join steps merge-joinable down the pipeline.
    """
    lo = np.asarray(lo, dtype=np.intp)
    counts = np.asarray(hi, dtype=np.intp) - lo
    total = int(counts.sum())
    if total == 0:
        return empty_block(), None
    out_index = np.repeat(np.arange(block.length), counts)
    # A ramp over the output rows, rebased per input row to its ``lo``.
    positions = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    columns = {slot: col[out_index] for slot, col in block.columns.items()}
    return Block(columns, total), positions


def extend(block, lanes, lo=None, hi=None):
    """The block's rows joined with their ranges ``lo[i]:hi[i]`` of the
    lanes' columns (:func:`expand`), or, without ranges, paired row by row
    with the columns: the one extend kernel.

    A lane is ``(column, (is_var, ref))``, a range column and the pattern
    position it fills.  A constant id, or a slot the block binds, must equal
    the column's values (a mask, applied first); an unbound slot takes them,
    and a later lane of that slot (a variable repeated in one pattern) must
    equal them.
    """
    out, positions = (block, None) if lo is None else expand(block, lo, hi)
    if not out.length:
        return out
    for column, (is_var, ref) in sorted(
            lanes, key=lambda lane: lane[1][0] and lane[1][1] not in block.columns):
        values = column if positions is None else column[positions]
        if is_var and ref not in out.columns:
            out.columns[ref] = values
            continue
        mask = values == (out.columns[ref] if is_var else ref)
        out = apply_mask(out, mask)
        positions = np.flatnonzero(mask) if positions is None else positions[mask]
    return out


def sorted_member(column, sorted_values):
    """Mask of the entries of ``column`` that occur in an ascending column."""
    if not len(sorted_values):
        return np.zeros(len(column), dtype=bool)
    positions = np.searchsorted(sorted_values, column)
    return sorted_values[np.minimum(positions, len(sorted_values) - 1)] == column


def sorted_distinct(column):
    """The distinct values of a column, ascending: one sort and a neighbour
    mask.  (numpy 2's ``np.unique`` hashes integers instead, 20-40x slower
    on the catalog's blocks.)"""
    column = np.sort(column)
    if len(column) > 1:
        first = np.empty(len(column), dtype=bool)
        first[0] = True
        np.not_equal(column[1:], column[:-1], out=first[1:])
        column = column[first]
    return column


def distinct_blocks(blocks, slots):
    """The rows of a block stream whose ids in ``slots`` (one or two) no
    earlier row held, a block at a time, as blocks of those columns alone
    (ascending by their ids within a block).

    A row's ids make one ``u64`` key, and the keys seen so far are one
    ascending array: a block's keys are sorted and deduplicated
    (:func:`sorted_distinct`), its fresh ones found by ``searchsorted`` and
    merged in, and split back into id columns by shifts.
    """
    shifts = (32, 0)[-len(slots):]
    seen = np.zeros(0, dtype=np.uint64)
    for block in blocks:
        keys = np.zeros(block.length, dtype=np.uint64)
        for slot, shift in zip(slots, shifts):
            keys |= block.columns[slot].astype(np.uint64) << shift
        keys = sorted_distinct(keys)
        fresh = keys[~sorted_member(keys, seen)]
        if len(fresh):
            seen = np.insert(seen, np.searchsorted(seen, fresh), fresh)
            yield Block({slot: (fresh >> shift).astype(np.uintc)
                         for slot, shift in zip(slots, shifts)}, len(fresh))


# -- columnar filters ---------------------------------------------------------
#
# The filter kernels decide each comparison by the keys of the row filters
# (expressions.value_key / order_key), one distinct id at a time instead of
# one row at a time: each conjunct keeps a table of the ids its operand
# columns held so far, every id in it decoded and keyed once per evaluation,
# and a block's mask is two gathers per operand and array arithmetic.  A type
# error (an ordering without two keys of one kind) is a false mask entry, as
# effective_boolean_value makes it on the row path.


def compile_filter(expression, slot_of):
    """Compile a FILTER expression to columnar conjuncts, or None.

    Supported: conjunctions (``&&``) of comparisons whose operands are
    variables or constant terms — the shapes the catalog queries use.  Each
    compiled conjunct is ``(operator, operand, operand)`` with operands
    ``("slot", index-or-None)`` or ``("const", term)``.  Anything else
    returns None and the caller falls back to per-row evaluation.
    """
    conjuncts = []
    for conjunct in _flatten_and(expression):
        if not isinstance(conjunct, ast.Comparison):
            return None
        if conjunct.operator not in ("=", "!=") and \
                conjunct.operator not in ORDERING:
            return None
        operands = []
        for side in (conjunct.left, conjunct.right):
            if not isinstance(side, ast.TermExpression):
                return None
            term = side.term
            if isinstance(term, Variable):
                operands.append(("slot", slot_of(term)))
            elif isinstance(term, (URIRef, BNode, Literal)):
                operands.append(("const", term))
            else:
                return None
        conjuncts.append((conjunct.operator, operands[0], operands[1]))
    return conjuncts


def _flatten_and(expression):
    if isinstance(expression, ast.And):
        return _flatten_and(expression.left) + _flatten_and(expression.right)
    return [expression]


def filter_masks(compiled, cell_term):
    """``block -> row mask`` of a compiled filter over the blocks of one
    evaluation, each conjunct with its own :class:`KeyTable`.

    Conjuncts combine by plain AND: a per-conjunct type error yields false
    for that conjunct, and under SPARQL's three-valued ``&&`` any false or
    error conjunct makes the whole filter drop the row — identical outcomes.
    """
    conjuncts = []
    for op, left, right in compiled:
        key_of = value_key if op in ("=", "!=") else order_key
        operands = [("key", key_of(ref)) if kind == "const" else (kind, ref)
                    for kind, ref in (left, right)]
        conjuncts.append((op, operands, KeyTable(key_of, cell_term)))

    def mask(block):
        result = None
        for op, operands, table in conjuncts:
            conjunct = _conjunct_mask(block, op, operands, table)
            result = conjunct if result is None else result & conjunct
        return result

    return mask


def _conjunct_mask(block, op, operands, table):
    sides = []
    for kind, ref in operands:
        if kind == "slot":
            ref = None if ref is None else block.columns.get(ref)
            if ref is None:
                # A variable without a column in this block: unbound in
                # every row, a type error, false.
                return mask_all(block, False)
        sides.append((kind, ref))
    # Both operands are keyed before either lane is read: a new string
    # re-ranks every string the table holds.
    for kind, ref in sides:
        if kind == "slot":
            table.learn(ref)
        else:
            table.lane(ref)
    (kind_a, value_a), (kind_b, value_b) = (
        table.lanes(ref) if kind == "slot" else table.lane(ref) for kind, ref in sides)
    same = (kind_a == kind_b) & (kind_a != 0)
    if op in ("=", "!="):
        equal = same & (value_a == value_b)
        result = equal if op == "=" else ~equal
    else:
        result = same & ORDERING[op](value_a, value_b)
    # Two constants give a scalar.
    return np.broadcast_to(result, (block.length,))


class KeyTable:
    """``id -> (kind, value)``: one comparison's operand keys over one
    evaluation, as two lanes indexed by dictionary id.

    An id is decoded and keyed (by ``key_of``: ``value_key`` or
    ``order_key``) the first time a column holds it.  Its kind is 0 for no
    key (the row filter's type error, or NaN under ``=``), 1 for a number,
    whose value is its float, 2 for a string, whose value is its rank among
    every string the table has seen (all re-ranked when new ones arrive),
    and 3 for any other term, whose value is a code per term: equal keys
    get equal lanes, and strings order as their texts.
    """

    def __init__(self, key_of, cell_term):
        self._key_of = key_of
        self._cell_term = cell_term
        self._kind = np.zeros(0, dtype=np.int8)  # -1: not keyed yet
        self._value = np.zeros(0, dtype=np.float64)
        self._ranks = {}          # text -> rank
        self._strings = ([], [])  # the ids keyed as strings, and their texts
        self._codes = {}          # term -> code

    def learn(self, column):
        """Key the ids of ``column`` the table has not seen."""
        if not len(column):
            return
        top = int(column.max()) + 1
        if top > len(self._kind):
            grow = max(top, 2 * len(self._kind)) - len(self._kind)
            self._kind = np.concatenate((self._kind, np.full(grow, -1, dtype=np.int8)))
            self._value = np.concatenate((self._value, np.zeros(grow)))
        fresh = column[self._kind[column] < 0]
        if not len(fresh):
            return
        fresh = sorted_distinct(fresh).tolist()
        keys = [self._key_of(self._cell_term(ident)) for ident in fresh]
        lanes = self._lanes_of(keys)
        self._kind[fresh] = [kind for kind, _value in lanes]
        self._value[fresh] = [value for _kind, value in lanes]
        ids, texts = self._strings
        for ident, key in zip(fresh, keys):
            if key is not None and key[0] == "str":
                ids.append(ident)
                texts.append(key[1])

    def lanes(self, column):
        """The ``(kind, value)`` lanes of a column whose ids were learnt."""
        return self._kind[column], self._value[column]

    def lane(self, key):
        """A constant's ``(kind, value)``, its string ranked with the rest."""
        return self._lanes_of([key])[0]

    def _lanes_of(self, keys):
        fresh = {key[1] for key in keys
                 if key is not None and key[0] == "str"} - self._ranks.keys()
        if fresh:
            texts = sorted(self._ranks.keys() | fresh)
            self._ranks = dict(zip(texts, map(float, range(len(texts)))))
            ids, texts = self._strings
            if ids:
                self._value[ids] = list(map(self._ranks.__getitem__, texts))
        codes = self._codes
        return [(0, 0.0) if key is None
                else (1, key[1]) if key[0] == "num"
                else (2, self._ranks[key[1]]) if key[0] == "str"
                else (3, codes.setdefault(key[1], float(len(codes))))
                for key in keys]
