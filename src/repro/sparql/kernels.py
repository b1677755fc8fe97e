"""Batch (column-at-a-time) kernels for the id-space evaluator.

The tuple path in :mod:`.idspace` grows one Python tuple per intermediate
solution inside the BGP hot loops — per-row interpreter overhead the paper's
native engines do not pay.  This module provides the batch alternative: a
basic graph pattern executes over :class:`Block` objects (parallel ``u32``
id columns keyed by slot), and each plan step is one vectorized range of
the store permutation its bound positions lead, in one of two modes:

* **per-row ranges** — when the blocks bind a position as a column and at
  most one position is constant, every row takes its range
  (``key_ranges`` through row offsets, or ``equal_ranges`` in a constant
  predicate's sorted slice), and the one range-expansion kernel
  (``expand``) repeats the row once per match;
* **one range** — otherwise the pattern's constants give one range, which
  the evaluator crosses with its blocks (``cross_extend``) in pieces of
  about :data:`BLOCK_ROWS` rows, so LIMIT pushdown and deadline checks keep
  working at block granularity; or, when the third position is a bound
  column, a membership mask (``member_mask``).

In both modes :func:`extend` binds every other position from the range
rows, or masks it against its constant or column.  The **columnar
filters** evaluate the comparison/equality FILTER shapes the catalog
queries use against whole columns, with the keys of
:func:`.expressions.value_key` / :func:`.expressions.order_key` computed
once per distinct id, so a mask decides exactly what the row filter does.

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


def equal_ranges(sorted_keys, keys):
    """``(lo, hi)``: the rows of each id of the column ``keys`` in an
    ascending column."""
    return (np.searchsorted(sorted_keys, keys, "left"),
            np.searchsorted(sorted_keys, keys, "right"))


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


def member_mask(block, bound_slot, sorted_values):
    """Mask of rows whose column id occurs in an ascending value column."""
    column = block.columns[bound_slot]
    if len(sorted_values) == 0:
        return np.zeros(block.length, dtype=bool)
    values = np.asarray(sorted_values)
    positions = np.searchsorted(values, column, "left")
    clipped = np.minimum(positions, len(values) - 1)
    return values[clipped] == column


# -- columnar filters ---------------------------------------------------------
#
# The filter kernels decide each comparison by the keys of the row filters
# (expressions.value_key / order_key), one distinct id at a time instead of
# one row at a time: every distinct id in the operand columns is decoded and
# keyed once, then the row-level mask is pure array arithmetic.  A type error
# (an ordering without two keys of one kind) is a false mask entry, as
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


def filter_mask(block, compiled, cell_term):
    """Row mask of a compiled filter over one block.

    Conjuncts combine by plain AND: a per-conjunct type error yields false
    for that conjunct, and under SPARQL's three-valued ``&&`` any false or
    error conjunct makes the whole filter drop the row — identical outcomes.
    """
    mask = None
    for op, left, right in compiled:
        conjunct = _conjunct_mask(block, op, left, right, cell_term)
        mask = conjunct if mask is None else mask & conjunct
    return mask


def _operand_column(block, operand):
    """Resolve an operand to ``("col", column)`` / ``("const", term)`` / None.

    None means the operand is a variable with no bound column in this block:
    every row evaluates it as unbound -> type error -> false.
    """
    kind, ref = operand
    if kind == "const":
        return ("const", ref)
    if ref is None:
        return None
    column = block.columns.get(ref)
    if column is None:
        return None
    return ("col", column)


def _conjunct_mask(block, op, left, right, cell_term):
    left = _operand_column(block, left)
    right = _operand_column(block, right)
    if left is None or right is None:
        return mask_all(block, False)
    if op in ("=", "!="):
        return _equality_mask(block, op, left, right, cell_term)
    return _ordering_mask(block, op, left, right, cell_term)


def _side_keys(operand, key_of, cell_term):
    """An operand's keys: ``(keys, None)`` for a constant (one key), or one
    key per distinct column id plus the row -> distinct-id inverse."""
    if operand[0] == "const":
        return [key_of(operand[1])], None
    unique, inverse = np.unique(operand[1], return_inverse=True)
    return [key_of(cell_term(ident)) for ident in unique.tolist()], inverse


def _lane(values, inverse):
    """One operand's per-row lane (a scalar for a constant operand)."""
    return values[0] if inverse is None else values[inverse]


def _as_mask(block, result):
    """A comparison result as a row mask; both-constant results are scalars."""
    return np.broadcast_to(result, (block.length,))


def _equality_mask(block, op, left, right, cell_term):
    # Equal keys get equal codes; a None key (NaN) gets a per-side code that
    # matches nothing.
    codes = {}
    lanes = []
    for missing, operand in enumerate((left, right), start=1):
        keys, inverse = _side_keys(operand, value_key, cell_term)
        values = np.array([-missing if key is None
                           else codes.setdefault(key, len(codes))
                           for key in keys], dtype=np.int64)
        lanes.append(_lane(values, inverse))
    equal = lanes[0] == lanes[1]
    return _as_mask(block, equal if op == "=" else ~equal)


def _ordering_mask(block, op, left, right, cell_term):
    sides = [_side_keys(operand, order_key, cell_term) for operand in (left, right)]
    # Strings from both sides share one dense rank so the float lanes compare
    # consistently; numbers are their own rank.  Kind 0 is a missing key.
    kinds = {"num": 1, "str": 2}
    strings = sorted({key[1] for keys, _inverse in sides for key in keys
                      if key is not None and key[0] == "str"})
    rank = {text: float(index) for index, text in enumerate(strings)}
    lanes = []
    for keys, inverse in sides:
        kind = np.array([0 if key is None else kinds[key[0]] for key in keys],
                        dtype=np.int8)
        value = np.array([0.0 if key is None else
                          key[1] if key[0] == "num" else rank[key[1]]
                          for key in keys], dtype=np.float64)
        lanes.append((_lane(kind, inverse), _lane(value, inverse)))
    (kind_a, value_a), (kind_b, value_b) = lanes
    return _as_mask(block, (kind_a == kind_b) & (kind_a != 0)
                    & ORDERING[op](value_a, value_b))
