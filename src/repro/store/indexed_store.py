"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary
ids*, materializing RDF terms only for final results.  In
:class:`IndexedStore` every term is a dictionary id (:mod:`.dictionary`)
and the id triples have one representation: four sorted permutations held
as ``array('I')`` columns, SPO and OSP over the whole store and each
predicate's PSO and POS runs (:class:`SortedRun`).  SPO and OSP keep their
leading column as row offsets per id (CSR style), so ``(s, ?, ?)`` and
``(?, ?, o)`` are two offset reads.  Every other pattern is a bisected
range of one permutation — ``(s, p, ?)``, ``(?, p, o)``, ``(?, p, ?)``: the
runs; ``(s, p, o)``: SPO; ``(s, ?, o)``: OSP.  The cost model's statistics
are range lengths and the distinct keys of sorted columns.
``triples_ids()`` / ``count_ids()`` decode nothing: the SPARQL executor
(:mod:`repro.sparql.idspace`) joins over ids, and ``supports_sorted_runs``
gives the planner probes per row and batch kernels over the runs and, for a
variable predicate, over SPO and OSP (``permutation()``'s numpy views).

No column is edited in place: ``add_all``/``remove_all`` splice a batch of
triples into copies in one pass (``add``/``remove`` are batches of one),
and a bulk load or a snapshot concatenates, sorts once per permutation and
drops repeated triples.  So ``begin_generation()``'s MVCC draft, itself an
``IndexedStore``, shares the dictionary and every column with its base.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat

import numpy as np

from .base import TripleStore
from .dictionary import TermDictionary

#: Sort orders a predicate run can be materialized in.
RUN_BY_SUBJECT = "s"
RUN_BY_OBJECT = "o"


class SortedRun:
    """One predicate's triples as two parallel, key-sorted ``u32`` columns.

    ``keys`` holds the sort column (subjects for order ``"s"``, objects for
    order ``"o"``) in ascending order with ties broken by ``values``, so a
    run doubles as a lexicographically sorted ``(key, value)`` pair list —
    the layout the batch kernels (:mod:`repro.sparql.kernels`) binary-search
    and merge-join over without materializing any Python tuples.

    A run is never edited: a write replaces it.  ``cache`` holds views
    derived from it (numpy mirrors, composite keys, the distinct-key count).
    """

    __slots__ = ("predicate", "order", "keys", "values", "cache")

    def __init__(self, predicate, order, keys, values):
        self.predicate = predicate
        self.order = order
        self.keys = keys
        self.values = values
        self.cache = {}

    def __len__(self):
        return len(self.keys)

    def __repr__(self):
        return f"SortedRun(predicate={self.predicate}, order={self.order!r}, len={len(self)})"


#: What a predicate without triples reads as (never stored or returned).
_NO_RUN = SortedRun(None, RUN_BY_SUBJECT, array("I"), array("I"))


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
    kernels' numpy views of a run's arrays forbid resizing them."""
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


def _starts(keys, size):
    """Row offsets of a sorted key column (numpy): the rows of id ``k`` are
    ``starts[k]:starts[k + 1]``, for every id below ``size``."""
    return _column(np.searchsorted(keys, np.arange(size + 1, dtype=np.uintc)).astype(np.uintc))


def leading_column(starts):
    """The leading column a permutation's row offsets stand for (numpy)."""
    offsets = np.frombuffer(starts, np.uintc)
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.uintc), np.diff(offsets))


def _column(values):
    # np.uintc is C's unsigned int, the item of an array("I").
    return array("I", values.tobytes())


class IndexedStore(TripleStore):
    """A triple store of sorted id columns with dictionary encoding."""

    name = "indexed"

    #: Index probes and predicate-sorted id runs (``sorted_run``) are
    #: available: the planner's cue for PROBE steps and batch kernels, and
    #: for reading its statistics (``count`` and the distinct counts).
    supports_sorted_runs = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        #: The triples sorted by (s, p, o) and by (o, s, p), each as the row
        #: offsets of its leading id and its other two columns: SPO is (subject
        #: offsets, predicates, objects), OSP (object offsets, subjects, predicates).
        self._spo = self._osp = (array("I", [0]), array("I"), array("I"))
        #: Distinct subjects and objects, counted on first use after a write.
        self._totals = None
        self._sorted_runs = {}     # (predicate_id, order) -> SortedRun
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
        added.  A write copies each column it touches once and bisects a
        few times per triple (``load_graph`` sorts instead: the path for
        batches as big as the store)."""
        return self._write(map(self._dictionary.encode_triple, triples), insert=True)

    def remove_all(self, triples):
        """Remove every stored triple of an iterable in one write; returns
        the count removed.  Their terms keep their ids: decoded-term caches
        stay valid for the store's life."""
        return self._write((self.encode_pattern(*triple) for triple in triples),
                           insert=False)

    def _write(self, encoded, insert):
        """Splice the id triples of ``encoded`` that are absent (``insert``)
        or present (not) into or out of copies of every column holding
        them; returns their count."""
        rows = {ids: None for ids in encoded
                if ids is not None and (self.count_ids(*ids) == 0) == insert}
        if not rows:
            return 0
        size = len(self._dictionary)
        self._spo = _spliced_permutation(self._spo, sorted(rows), size, insert)
        self._osp = _spliced_permutation(
            self._osp, sorted((o, s, p) for s, p, o in rows), size, insert)
        self._totals = None
        pairs = {}
        for s, p, o in rows:
            pairs.setdefault(p, []).append((s, o))
        for p, by_subject in pairs.items():
            for order, run_rows in ((RUN_BY_SUBJECT, sorted(by_subject)),
                                    (RUN_BY_OBJECT, sorted((o, s) for s, o in by_subject))):
                run = self._sorted_runs.get((p, order), _NO_RUN)
                keys, values = _spliced((run.keys, run.values), run_rows,
                                        repeat((0, len(run))), insert)
                if keys:
                    self._sorted_runs[p, order] = SortedRun(p, order, keys, values)
                else:
                    del self._sorted_runs[p, order]
        self._touch(pairs)
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
        ids) into the store: concatenate, sort once per permutation, drop
        repeats, and rebuild the runs of every predicate that gained a
        triple.  Returns those predicate ids."""
        stored = len(self)
        starts, predicates, objects = self._spo
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
        touched = np.unique(p[fresh]).tolist()
        order = np.lexsort((p, s, o))
        osp = o[order], s[order], p[order]
        size = len(self._dictionary)
        self._spo = (_starts(s, size), _column(p), _column(o))
        self._osp = (_starts(osp[0], size), _column(osp[1]), _column(osp[2]))
        self._totals = None
        # Within one predicate, SPO order is (s, o) order and OSP order is
        # (o, s) order, so a stable sort on the predicate yields both runs.
        for run_order, (keys, predicates, values) in (
                (RUN_BY_SUBJECT, (s, p, o)), (RUN_BY_OBJECT, (osp[0], osp[2], osp[1]))):
            selected = np.isin(predicates, touched)
            predicates, keys, values = predicates[selected], keys[selected], values[selected]
            order = np.argsort(predicates, kind="stable")
            predicates, keys, values = predicates[order], keys[order], values[order]
            cuts = (np.flatnonzero(predicates[1:] != predicates[:-1]) + 1).tolist()
            for start, end in zip([0, *cuts], [*cuts, len(predicates)] if touched else []):
                predicate = int(predicates[start])
                self._sorted_runs[predicate, run_order] = SortedRun(
                    predicate, run_order, _column(keys[start:end]), _column(values[start:end]))
        return touched

    def _touch(self, predicate_ids):
        """Bump the version and stamp the predicates with it."""
        self.version += 1
        for predicate_id in predicate_ids:
            self._predicate_stamps[predicate_id] = self.version

    def begin_generation(self):
        """Start a draft of this store's next MVCC generation: an
        ``IndexedStore`` the MVCC writer (:mod:`repro.store.mvcc`) drives
        through ``add_all``/``remove_all``.  It shares the term dictionary
        (append-only) and every column, and copies the run and change-stamp
        dicts; a write replaces columns, so this store stays frozen."""
        draft = IndexedStore()
        draft._dictionary = self._dictionary
        draft._spo, draft._osp, draft._totals = self._spo, self._osp, self._totals
        draft._sorted_runs = self._sorted_runs.copy()
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
        return self._distinct(self._dictionary.lookup(predicate), RUN_BY_SUBJECT)

    def distinct_objects(self, predicate):
        """Number of distinct objects appearing with ``predicate``."""
        return self._distinct(self._dictionary.lookup(predicate), RUN_BY_OBJECT)

    def _distinct(self, predicate_id, order):
        """Distinct keys of the predicate's run in ``order`` (0 without one),
        counted once per run: a run never changes."""
        run = self._sorted_runs.get((predicate_id, order), _NO_RUN)
        if "distinct" not in run.cache:
            steps = np.count_nonzero(np.diff(np.frombuffer(run.keys, np.uintc)))
            run.cache["distinct"] = int(steps) + (len(run) > 0)
        return run.cache["distinct"]

    def distinct_subject_total(self):
        """Number of distinct subjects across all predicates."""
        return self._distinct_totals()[0]

    def distinct_object_total(self):
        """Number of distinct objects across all predicates."""
        return self._distinct_totals()[1]

    def _distinct_totals(self):
        """The ids with rows in SPO and in OSP: nonzero offset steps."""
        if self._totals is None:
            self._totals = tuple(
                int(np.count_nonzero(np.diff(np.frombuffer(starts, np.uintc))))
                for starts, _values, _more in (self._spo, self._osp))
        return self._totals

    def distinct_predicates(self):
        """Number of distinct predicates with at least one triple (each
        has exactly two runs)."""
        return len(self._sorted_runs) // 2

    # -- id-level access ----------------------------------------------------

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Raw id 3-tuples matching an encoded pattern: one range of a
        predicate's run, of SPO or of OSP (all of SPO for ``(?, ?, ?)``)."""
        if predicate is not None and (subject is None or object is None):
            run, lo, hi = self._run_range(subject, predicate, object)
            if subject is None and object is None:
                return zip(run.keys, repeat(predicate), run.values)
            if object is None:
                return zip(repeat(subject), repeat(predicate), run.values[lo:hi])
            return zip(run.values[lo:hi], repeat(predicate), repeat(object))
        if predicate is None and object is not None:
            _starts, subjects, predicates = self._osp
            lo, hi = self._osp_range(subject, object)
            return zip(subjects[lo:hi], predicates[lo:hi], repeat(object))
        starts, predicates, objects = self._spo
        if subject is None:
            return zip(_column(leading_column(starts)), predicates, objects)
        lo, hi = self._spo_range(subject, predicate, object)
        return zip(repeat(subject), predicates[lo:hi], objects[lo:hi])

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode):
        the length of the range :meth:`triples_ids` reads."""
        if predicate is not None and (subject is None or object is None):
            _run, lo, hi = self._run_range(subject, predicate, object)
        elif predicate is None and object is not None:
            lo, hi = self._osp_range(subject, object)
        elif subject is None:
            return len(self)
        else:
            lo, hi = self._spo_range(subject, predicate, object)
        return hi - lo

    def _run_range(self, s, p, o):
        """``(run, lo, hi)``: the predicate's run keyed on the bound one of
        ``s`` and ``o`` (by subject when neither is) and the index range of
        that key in it (the whole run when neither is bound)."""
        key, order = (s, RUN_BY_SUBJECT) if o is None else (o, RUN_BY_OBJECT)
        run = self._sorted_runs.get((p, order), _NO_RUN)
        if key is None:
            return run, 0, len(run)
        lo = bisect_left(run.keys, key)
        return run, lo, bisect_right(run.keys, key, lo)

    def _osp_range(self, s, o):
        """The OSP range of ``(?, ?, o)`` or, with ``s`` bound, ``(s, ?, o)``."""
        starts, subjects, _predicates = self._osp
        lo, hi = _key_range(starts, o)
        return (lo, hi) if s is None else _equal_range(subjects, s, lo, hi)

    def _spo_range(self, s, p, o):
        """The SPO range of ``(s, ?, ?)`` or, with ``p`` and ``o`` bound too,
        ``(s, p, o)``."""
        starts, predicates, objects = self._spo
        lo, hi = _key_range(starts, s)
        if p is None:
            return lo, hi
        lo, hi = _equal_range(predicates, p, lo, hi)
        return _equal_range(objects, o, lo, hi)

    def permutation(self, order=RUN_BY_SUBJECT):
        """SPO (``order`` ``"s"``) or OSP (``"o"``) as zero-copy numpy views
        ``(starts, predicates, values)``: the rows of key id ``k`` are
        ``starts[k]:starts[k + 1]``, and ``values`` holds their objects (SPO)
        or subjects (OSP), as a :meth:`sorted_run` of that order does."""
        if order == RUN_BY_SUBJECT:
            starts, predicates, values = self._spo
        elif order == RUN_BY_OBJECT:
            starts, values, predicates = self._osp
        else:
            raise ValueError(f"unknown permutation order: {order!r}")
        return tuple(np.frombuffer(column, np.uintc) for column in (starts, predicates, values))

    # -- sorted runs ---------------------------------------------------------

    def sorted_run(self, predicate_id, order=RUN_BY_SUBJECT):
        """The predicate's triples as a key-sorted :class:`SortedRun`, or
        ``None`` when it has none.  ``order`` ``"s"`` sorts by subject (values
        are the objects), ``"o"`` by object (values are the subjects)."""
        if order not in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
            raise ValueError(f"unknown run order: {order!r}")
        return self._sorted_runs.get((predicate_id, order))

    def __len__(self):
        return len(self._spo[1])

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"
