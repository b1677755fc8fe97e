"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary
ids*, materializing RDF terms only for final results.  In
:class:`IndexedStore` every term is a dictionary id (:mod:`.dictionary`)
and the id triples have one representation: four whole-store permutations
of one shape, SPO, OSP, PSO and POS (:data:`ORDERS`).  Each keeps its
leading column as row offsets per id (CSR style) and its other two as
sorted ``array('I')`` columns, so every pattern is one range of the
permutation its bound positions lead: the offsets of the leading id, then a
bisect within them per further bound id.  A predicate's PSO or POS range
is its (subject, object) or (object, subject) pairs, sorted, and the batch
kernels read it through its own row offsets per subject or object, built
on first use.  The cost model's statistics are range lengths and the
distinct keys within a range or of the offsets, counted once per
generation.  ``triples_ids()`` / ``count_ids()`` decode nothing: the SPARQL
executor (:mod:`repro.sparql.idspace`) joins over ids, and
``supports_permutations`` gives the planner probes per row and batch
kernels over ``permutation()``'s numpy views.

No column is edited in place: ``add_all``/``remove_all`` splice a batch of
triples into copies of every permutation in one pass (``add``/``remove``
are batches of one), and a bulk load or a snapshot concatenates, sorts
once per permutation and drops repeated triples.  So
``begin_generation()``'s MVCC draft, itself an ``IndexedStore``, shares the
dictionary and every column with its base.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress, product, repeat
from operator import itemgetter

import numpy as np

from .base import TripleStore
from .dictionary import TermDictionary

#: The four permutations, each by the positions of (subject, predicate,
#: object) it sorts on, its leading one first.
ORDERS = {"spo": (0, 1, 2), "osp": (2, 0, 1), "pso": (1, 0, 2), "pos": (1, 2, 0)}

#: Which permutation ranges a pattern, by which of its positions are bound:
#: the first whose leading positions are exactly those, with its positions.
_RANGED_BY = {
    bound: next((name, positions) for name, positions in ORDERS.items()
                if set(positions[:sum(bound)]) == set(compress(range(3), bound)))
    for bound in product((False, True), repeat=3)
}

#: Each permutation's (lead, second, third) lanes, reordered to (s, p, o).
_AS_SPO = {name: itemgetter(*map(positions.index, range(3)))
           for name, positions in ORDERS.items()}


def _equal_range(column, key, lo, hi):
    """``(lo, hi)``: the rows of sorted ``column[lo:hi]`` equal to ``key``."""
    lo = bisect_left(column, key, lo, hi)
    return lo, bisect_right(column, key, lo, hi)


def _key_range(starts, key):
    """``(lo, hi)``: the rows of id ``key`` by row offsets ``starts``; none for
    an id they do not cover (added later, or the executor's negative stand-in)."""
    if 0 <= key < len(starts) - 1:
        return starts[key], starts[key + 1]
    return starts[-1], starts[-1]


def _spliced(columns, rows, ranges, insert):
    """Copies of lexicographically sorted parallel ``columns`` with sorted
    ``rows`` inserted (each absent) or removed (each present), each found
    by bisect within its ``(lo, hi)`` of ``ranges``.  Columns are never
    edited in place: a superseded generation may still hold them, and the
    kernels' numpy views of a column forbid resizing it."""
    points = []
    for row, (lo, hi) in zip(rows, ranges):
        for column, value in zip(columns, row):
            lo, hi = _equal_range(column, value, lo, hi)
        points.append(lo)
    copies = []
    for index, column in enumerate(columns):
        copy, done = array("I"), 0
        for point, row in zip(points, rows):
            copy += column[done:point]
            if insert:
                copy.append(row[index])
            done = point if insert else point + 1
        copy += column[done:]
        copies.append(copy)
    return tuple(copies)


def _spliced_permutation(permutation, rows, size, insert):
    """A copy of ``permutation`` (row offsets, then two sorted columns) with
    sorted ``rows`` (a leading id, then the two values) inserted or removed,
    its offsets covering every id below ``size``."""
    starts, *columns = permutation
    # An offset gains (or loses) one per row whose leading id is below its
    # own: a step function, added one step at a time.
    shifted = starts + array("I", repeat(starts[-1], size + 1 - len(starts)))
    view = np.frombuffer(shifted, np.uintc)
    leads = [row[0] for row in rows]
    for count, (lead, end) in enumerate(zip(leads, [*leads[1:], size]), 1):
        if insert:
            view[lead + 1:end + 1] += count
        else:
            view[lead + 1:end + 1] -= count
    return (shifted, *_spliced(columns, [row[1:] for row in rows],
                               [_key_range(starts, lead) for lead in leads], insert))


def _offsets(keys, size):
    """Row offsets of a sorted key column, as a numpy ``u32`` array: the
    rows of id ``k`` are ``offsets[k]:offsets[k + 1]``, for every id below
    ``size``."""
    offsets = np.zeros(size + 1, np.uintc)
    np.cumsum(np.bincount(keys, minlength=size), out=offsets[1:], dtype=np.uintc)
    return offsets


def leading_column(starts):
    """The leading column a permutation's row offsets stand for (numpy)."""
    offsets = np.frombuffer(starts, np.uintc)
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.uintc), np.diff(offsets))


def _column(values):
    # np.uintc is C's unsigned int, the item of an array("I").
    return array("I", values.tobytes())


def _view(column, lo, hi):
    """Rows ``lo:hi`` of an ``array('I')`` column as a zero-copy numpy view."""
    return np.frombuffer(column, np.uintc, hi - lo, lo * column.itemsize)


class IndexedStore(TripleStore):
    """A triple store of sorted id columns with dictionary encoding."""

    name = "indexed"

    #: Index probes and whole-store permutations (``permutation``) are
    #: available: the planner's cue for PROBE steps and batch kernels, and
    #: for reading its statistics (``count`` and the distinct counts).
    supports_permutations = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        #: Permutation name (of :data:`ORDERS`) -> the row offsets of its
        #: leading id and its other two columns, e.g. SPO is (subject
        #: offsets, predicates, objects).  A write replaces the dict.
        self._permutations = dict.fromkeys(ORDERS, (array("I", [0]), array("I"), array("I")))
        #: The distinct counts read so far (:meth:`_distinct`): a generation's
        #: own, so a write starts a new dict.
        self._statistics = {}
        #: ``(order, predicate_id)`` -> that predicate's PSO or POS rows as
        #: offsets per second id (:meth:`permutation`), built on first use
        #: and kept like the statistics.
        self._predicate_offsets = {}
        #: predicate_id -> ``version`` at which a triple of that predicate
        #: was last added or removed (absent: not since construction).
        self._predicate_stamps = {}
        if triples is not None:
            self.load_graph(triples)

    @classmethod
    def _from_snapshot(cls, dictionary, flat):
        """Assemble a store from a snapshot's dictionary and its id triples
        (``flat``: an ``array('I')`` of subject, predicate, object ids)."""
        store = cls()
        store._dictionary = dictionary
        store._merge(flat)
        return store

    # -- mutation -----------------------------------------------------------

    def add_all(self, triples):
        """Add every triple of an iterable in one write; returns the count
        added.  A write copies each column once and bisects a few times per
        triple (``load_graph`` sorts instead: the path for batches as big as
        the store)."""
        return self._write(map(self._dictionary.encode_triple, triples), insert=True)

    def remove_all(self, triples):
        """Remove every stored triple of an iterable in one write; returns
        the count removed.  Their terms keep their ids: decoded-term caches
        stay valid for the store's life."""
        return self._write((self.encode_pattern(*triple) for triple in triples),
                           insert=False)

    def _write(self, encoded, insert):
        """Splice the id triples of ``encoded`` that are absent (``insert``)
        or present (not) into or out of copies of every permutation; returns
        their count."""
        rows = {ids: None for ids in encoded
                if ids is not None and (self.count_ids(*ids) == 0) == insert}
        if not rows:
            return 0
        size = len(self._dictionary)
        self._permutations = {
            name: _spliced_permutation(
                self._permutations[name],
                sorted(tuple(row[position] for position in positions) for row in rows),
                size, insert)
            for name, positions in ORDERS.items()}
        touched = {p for _s, p, _o in rows}
        # New dicts, so a base sharing the old ones keeps its own counts and
        # offsets; those of the predicates left alone carry over.  Each is
        # copied (one C call) before the filter: the base's readers may be
        # filling it.
        self._statistics = {key: count for key, count in self._statistics.copy().items()
                            if key[1] is not None and key[1] not in touched}
        self._predicate_offsets = {key: offsets for key, offsets
                                   in self._predicate_offsets.copy().items()
                                   if key[1] not in touched}
        self._touch(touched)
        return len(rows)

    def load_graph(self, graph):
        """Bulk-load every triple of an iterable/Graph.  Returns count added.
        The batch is encoded, then merged by one sort per permutation."""
        encode = self._dictionary.encode_triple
        batch = array("I")
        before = len(self)
        try:
            for triple in graph:
                batch.extend(encode(triple))
        finally:  # on a failing input, the triples before it stay loaded
            if batch:
                touched = self._merge(batch)
                if touched:
                    self._touch(touched)
        return len(self) - before

    def _merge(self, flat):
        """Merge ``flat`` (an ``array('I')`` of subject, predicate, object
        ids) into the store: concatenate, sort once per permutation and drop
        repeats.  Returns the ids of the predicates that gained a triple."""
        stored = len(self)
        starts, predicates, objects = self._permutations["spo"]
        s, p, o = np.concatenate((
            np.stack((leading_column(starts), np.frombuffer(predicates, np.uintc),
                      np.frombuffer(objects, np.uintc))),
            np.asarray(flat, np.uintc).reshape(-1, 3).T), axis=1)
        fresh = np.arange(len(s)) >= stored
        # A stored triple sorts before its repeats, so the one kept of each
        # group is new only when the store lacked it.
        order = np.lexsort((fresh, o, p, s))
        s, p, o, fresh = s[order], p[order], o[order], fresh[order]
        first = np.ones(len(s), bool)
        first[1:] = (s[1:] != s[:-1]) | (p[1:] != p[:-1]) | (o[1:] != o[:-1])
        s, p, o, fresh = s[first], p[first], o[first], fresh[first]
        order = np.lexsort((p, s, o))
        spo, osp = (s, p, o), (o[order], s[order], p[order])
        # Within one predicate, SPO order is (s, o) order and OSP order is
        # (o, s) order, so a stable sort on the predicate yields PSO and POS.
        by_subject, by_object = np.argsort(p, kind="stable"), np.argsort(osp[2], kind="stable")
        pso = p[by_subject], s[by_subject], o[by_subject]
        pos = osp[2][by_object], osp[0][by_object], osp[1][by_object]
        size = len(self._dictionary)
        # PSO and POS lead with the same predicates: one offsets array serves both.
        predicate_starts = _column(_offsets(pso[0], size))
        self._permutations = {
            name: (predicate_starts if name in ("pso", "pos") else _column(_offsets(lead, size)),
                   _column(second), _column(third))
            for name, (lead, second, third) in zip(ORDERS, (spo, osp, pso, pos))}
        self._statistics, self._predicate_offsets = {}, {}
        return np.unique(p[fresh]).tolist()

    def _touch(self, predicate_ids):
        """Bump the version and stamp the predicates with it."""
        self.version += 1
        for predicate_id in predicate_ids:
            self._predicate_stamps[predicate_id] = self.version

    def begin_generation(self):
        """Start a draft of this store's next MVCC generation: an
        ``IndexedStore`` the MVCC writer (:mod:`repro.store.mvcc`) drives
        through ``add_all``/``remove_all``.  It shares the term dictionary
        (append-only), every permutation, the statistics and predicate
        offsets read so far, and copies the change stamps; a write replaces
        all three, so this store stays frozen."""
        draft = IndexedStore()
        draft._dictionary = self._dictionary
        draft._permutations, draft._statistics = self._permutations, self._statistics
        draft._predicate_offsets = self._predicate_offsets
        draft._predicate_stamps = self._predicate_stamps.copy()
        draft.version = self.version
        return draft

    def seal(self, version):
        """Finish this draft as generation ``version`` (one past its base's):
        a predicate written since the draft began (its stamp is at least
        ``version``) is restamped ``version``; the others keep theirs."""
        self._predicate_stamps = {
            predicate_id: min(stamp, version)
            for predicate_id, stamp in self._predicate_stamps.items()
        }
        return super().seal(version)

    def predicates_changed_since(self, predicates, version):
        """True when a triple of any of ``predicates`` (terms) was added or
        removed after this store was at ``version``: the engine's statement
        cache keeps a plan across updates that leave its statistics alone."""
        stamps = self._predicate_stamps
        lookup = self._dictionary.lookup
        return any(stamps.get(lookup(predicate), 0) > version
                   for predicate in predicates)

    # -- statistics for the cost model (term-level, read off the columns) ----

    def distinct_subjects(self, predicate):
        """Number of distinct subjects appearing with ``predicate``."""
        return self._distinct_per_predicate("pso", predicate)

    def distinct_objects(self, predicate):
        """Number of distinct objects appearing with ``predicate``."""
        return self._distinct_per_predicate("pos", predicate)

    def distinct_subject_total(self):
        """Number of distinct subjects across all predicates."""
        return self._distinct("spo")

    def distinct_object_total(self):
        """Number of distinct objects across all predicates."""
        return self._distinct("osp")

    def distinct_predicates(self):
        """Number of distinct predicates with at least one triple."""
        return self._distinct("pso")

    def _distinct_per_predicate(self, order, predicate):
        predicate_id = self._dictionary.lookup(predicate)
        return 0 if predicate_id is None else self._distinct(order, predicate_id)

    def _distinct(self, order, lead=None):
        """The distinct leading ids of permutation ``order`` (nonzero steps
        of its offsets) or, for a ``lead`` id, the distinct ids of the second
        column within its range; counted once per generation."""
        statistics = self._statistics
        count = statistics.get((order, lead))
        if count is None:
            starts, seconds, _thirds = self._permutations[order]
            if lead is None:
                keys, count = np.frombuffer(starts, np.uintc), 0
            else:
                lo, hi = _key_range(starts, lead)
                keys, count = np.frombuffer(seconds, np.uintc)[lo:hi], int(hi > lo)
            count = statistics[order, lead] = count + int(np.count_nonzero(np.diff(keys)))
        return count

    # -- id-level access ----------------------------------------------------

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Raw id 3-tuples matching an encoded pattern: one range of the
        permutation its bound positions lead (all of SPO for ``(?, ?, ?)``)."""
        name, lead, lo, hi = self._range((subject, predicate, object))
        starts, second, third = self._permutations[name]
        leads = _column(leading_column(starts)) if lead is None else repeat(lead)
        return zip(*_AS_SPO[name]((leads, second[lo:hi], third[lo:hi])))

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode):
        the length of the range :meth:`triples_ids` reads."""
        _name, _lead, lo, hi = self._range((subject, predicate, object))
        return hi - lo

    def _range(self, pattern):
        """``(name, lead, lo, hi)``: the permutation whose leading positions
        are the bound ones of ``pattern`` (ids, None unbound), its leading id
        (None when nothing is bound), and the range of its rows that match."""
        name, (first, second, third) = _RANGED_BY[
            pattern[0] is not None, pattern[1] is not None, pattern[2] is not None]
        starts, seconds, thirds = self._permutations[name]
        lead = pattern[first]
        if lead is None:
            return name, None, 0, len(seconds)
        lo, hi = _key_range(starts, lead)
        key = pattern[second]
        if key is not None:
            lo, hi = _equal_range(seconds, key, lo, hi)
            key = pattern[third]
            if key is not None:
                lo, hi = _equal_range(thirds, key, lo, hi)
        return name, lead, lo, hi

    def range_columns(self, subject=None, predicate=None, object=None):
        """``(count, columns)``: the rows :meth:`triples_ids` reads, as
        numpy views of their unbound positions' columns, ``{position:
        column}`` with 0 the subject, 1 the predicate and 2 the object, in
        the permutation's order (with two positions bound the one column is
        ascending).  Nothing bound materializes SPO's subjects."""
        pattern = (subject, predicate, object)
        name, lead, lo, hi = self._range(pattern)
        starts, second, third = self._permutations[name]
        first, middle, last = ORDERS[name]
        columns = {} if lead is not None else {first: leading_column(starts)}
        if pattern[middle] is None:
            columns[middle] = _view(second, lo, hi)
        if pattern[last] is None:
            columns[last] = _view(third, lo, hi)
        return hi - lo, columns

    def permutation(self, order, lead=None):
        """Permutation ``order`` (a name of :data:`ORDERS`) as zero-copy
        numpy views ``(starts, second, third)``: the rows of leading id ``k``
        are ``starts[k]:starts[k + 1]``, and ``second`` and ``third`` hold
        their other two ids in the order's sequence (SPO: predicates, then
        objects; PSO: subjects, then objects).

        Given a predicate id ``lead`` of PSO or POS, its rows in the same
        shape one level down, ``(starts, third)``: the rows of subject (or
        object) ``k`` are ``starts[k]:starts[k + 1]`` of ``third``, their
        objects (or subjects).  The offsets are ``u32``, one per id up to
        the largest the rows hold (an id past them has no rows), built on
        first use per generation; a write keeps those of the predicates it
        leaves alone."""
        if order not in ORDERS:
            raise ValueError(f"unknown permutation order: {order!r}")
        starts, second, third = self._permutations[order]
        if lead is None:
            return tuple(np.frombuffer(column, np.uintc) for column in (starts, second, third))
        if order not in ("pso", "pos"):
            raise ValueError(f"a lead id ranges PSO or POS, not {order!r}")
        lo, hi = _key_range(starts, lead)
        offsets = self._predicate_offsets.get((order, lead))
        if offsets is None:
            keys = _view(second, lo, hi)
            offsets = self._predicate_offsets[order, lead] = _offsets(
                keys, int(keys[-1]) + 1 if len(keys) else 0)
        return offsets, _view(third, lo, hi)

    def __len__(self):
        return len(self._permutations["spo"][1])

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"
