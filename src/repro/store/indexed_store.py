"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary ids*,
materializing RDF terms only for final results.  :class:`IndexedStore`
reproduces both halves of that design in pure Python:

* all terms are dictionary-encoded to integers (:mod:`.dictionary`),
* the id triples live in three structures: the S and O hash indexes map a
  bound subject or object to its set of triples, and each predicate's two
  sorted runs (by subject, by object) are its only predicate index:
  ``(s, p, ?)`` and ``(?, p, o)`` binary-search the run keyed on the bound
  side, ``(?, p, ?)`` reads the subject run, and ``(s, ?p, o)``, bound by
  no query template, filters the S bucket,
* the runs are sorted from the id triples when a snapshot or a bulk load
  arrives, and ``add``/``remove`` splice them into new arrays: no read
  ever builds a run,
* the cost model's statistics are exact counts (an index bucket's size, a
  run's length or key range, the triple counter) and a run's distinct keys
  (distinct subjects/objects per predicate).

``triples_ids()`` / ``count_ids()`` answer an encoded pattern from the
index or run matching its bound positions, with **no decoding at all** —
the SPARQL executor (:mod:`repro.sparql.idspace`) joins over the ids and
terms are only reconstructed at the result boundary.
``supports_sorted_runs`` marks the family for the planner: probes per row,
and batch kernels over the same runs.

``begin_generation()`` returns an MVCC draft that is itself an
``IndexedStore``: it shares the dictionary, every index bucket and every
run with its base; either side copies a shared bucket before its first
write to it, and a write to a predicate replaces that side's runs of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .base import TripleStore
from .dictionary import TermDictionary

#: Shared empty set returned for index misses (never mutated).
_EMPTY = frozenset()

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

    A run is never edited: a write replaces it with a new one.  ``cache`` is
    scratch space for views derived from the run (numpy mirrors, composite
    keys, the distinct-key count); it lives and dies with the run.
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
        return (f"SortedRun(predicate={self.predicate}, order={self.order!r}, "
                f"len={len(self)})")


#: What a predicate without triples reads as inside the store (never stored,
#: never returned by ``sorted_run``).
_NO_RUN = SortedRun(None, RUN_BY_SUBJECT, array("I"), array("I"))


class IndexedStore(TripleStore):
    """A hash-indexed triple store with dictionary encoding."""

    name = "indexed"

    #: Index probes and predicate-sorted id runs (``sorted_run``) are
    #: available: the planner's cue for PROBE steps and batch kernels, and
    #: for reading its statistics (``count`` and the distinct counts).
    supports_sorted_runs = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        self._by_s = {}
        self._by_o = {}
        self._sorted_runs = {}     # (predicate_id, order) -> SortedRun
        self._size = 0             # stored triples
        #: predicate_id -> ``version`` at which a triple of that predicate
        #: was last added or removed (absent: not since construction).
        self._predicate_stamps = {}
        #: None while this store owns every bucket; after ``begin_generation``
        #: the keys per index (S, then O) whose bucket it has copied since (the
        #: rest may be shared with another generation and are copied before a
        #: write).
        self._owned = None
        if triples is not None:
            self.load_graph(triples)

    @classmethod
    def _from_snapshot(cls, dictionary, flat):
        """Assemble a store from a snapshot's dictionary and its id triples
        (``flat``: an ``array('I')`` of subject, predicate, object ids)."""
        store = cls()
        store._dictionary = dictionary
        ids = iter(flat)
        triples = list(zip(ids, ids, ids))
        # _index()'s walk minus the encode, one index at a time: each
        # index's buckets are then allocated together, which makes both this
        # build and later queries faster than one pass interleaving both.
        for index, position in ((store._by_s, 0), (store._by_o, 2)):
            for triple, key in zip(triples, map(itemgetter(position), triples)):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {triple}
                else:
                    bucket.add(triple)
        store._size = sum(map(len, store._by_s.values()))
        store._merge_runs(flat)
        return store

    # -- snapshots -----------------------------------------------------------

    def save(self, path, metadata=None):
        """Write a binary snapshot of this store (see :mod:`.snapshot`)."""
        from .snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path):
        """Rebuild a store from a snapshot saved by either store family."""
        from .snapshot import load_snapshot

        return load_snapshot(path, cls)

    # -- mutation -----------------------------------------------------------

    def add(self, triple):
        ids = self._dictionary.encode_triple(triple)
        if not self._index(ids):
            return False
        self._splice(*ids, insert=True)
        self._touch((ids[1],))
        return True

    def load_graph(self, graph):
        """Bulk-load every triple of an iterable/Graph.  Returns count added.

        The batch goes into the S and O indexes first, then each touched
        predicate's runs are sorted once per order: a splice per triple
        would make a large load quadratic."""
        encode = self._dictionary.encode_triple
        added = array("I")
        try:
            for triple in graph:
                ids = encode(triple)
                if self._index(ids):
                    added.extend(ids)
        finally:  # on a failing input, the triples before it stay loaded
            if added:
                self._touch(self._merge_runs(added))
        return len(added) // 3

    def _merge_runs(self, flat):
        """Rebuild the runs of every predicate in ``flat`` (an ``array('I')``
        of new subject, predicate, object ids) from their pairs plus the new
        ones: one lexicographic sort per order, cut where the predicate
        changes.  Returns the predicate ids."""
        columns = [np.asarray(flat, np.uintc).reshape(-1, 3).T]
        touched = np.unique(columns[0][1]).tolist()
        for predicate in touched:
            run = self._sorted_runs.get((predicate, RUN_BY_SUBJECT), _NO_RUN)
            columns.append(np.array([run.keys, np.full(len(run), predicate), run.values],
                                    np.uintc))
        s, p, o = np.concatenate(columns, axis=1)
        for order, keys, values in ((RUN_BY_SUBJECT, s, o), (RUN_BY_OBJECT, o, s)):
            permutation = np.lexsort((values, keys, p))
            predicates, keys, values = (column[permutation] for column in (p, keys, values))
            cuts = (np.flatnonzero(predicates[1:] != predicates[:-1]) + 1).tolist()
            for start, end in zip([0, *cuts], [*cuts, len(predicates)] if touched else []):
                predicate = int(predicates[start])
                # np.uintc is C's unsigned int, the item of an array("I").
                self._sorted_runs[predicate, order] = SortedRun(
                    predicate, order, array("I", keys[start:end].tobytes()),
                    array("I", values[start:end].tobytes()))
        return touched

    def remove(self, triple):
        """Remove a triple if present; returns True when removed.

        Both indexes are maintained and the predicate's runs replaced;
        empty index buckets are dropped so lookups of fully removed keys
        stay O(1).  Dictionary entries are intentionally kept — ids are
        stable for the lifetime of the store, which is what lets id-space
        evaluation cache decoded terms safely.
        """
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None or encoded not in self._by_s.get(encoded[0], _EMPTY):
            return False
        s, p, o = encoded
        owned = self._owned
        for slot, (index, key) in enumerate(((self._by_s, s), (self._by_o, o))):
            bucket = index[key]
            if len(bucket) == 1:
                del index[key]
            elif owned is None or key in owned[slot]:
                bucket.discard(encoded)
            else:
                owned[slot].add(key)
                index[key] = bucket - {encoded}
        self._size -= 1
        self._splice(s, p, o, insert=False)
        self._touch((p,))
        return True

    def _index(self, ids):
        """Put an id triple into both indexes; False when already stored."""
        s, _p, o = ids
        bucket = self._by_s.get(s)
        if bucket is not None and ids in bucket:
            return False
        owned = self._owned
        for slot, (index, key) in enumerate(((self._by_s, s), (self._by_o, o))):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {ids}
                continue
            if owned is not None and key not in owned[slot]:
                owned[slot].add(key)
                bucket = index[key] = set(bucket)
            bucket.add(ids)
        self._size += 1
        return True

    def _splice(self, s, p, o, insert):
        """Replace the predicate's two runs with copies that have ``(s, p,
        o)`` inserted or removed.  A run is never edited in place: a
        superseded generation may still hold it, and the kernels' numpy
        views of its arrays forbid resizing them."""
        for order, key, value in ((RUN_BY_SUBJECT, s, o), (RUN_BY_OBJECT, o, s)):
            run = self._sorted_runs.get((p, order), _NO_RUN)
            keys, values = run.keys[:], run.values[:]
            lo = bisect_left(keys, key)
            at = bisect_left(values, value, lo, bisect_right(keys, key, lo))
            if insert:
                keys.insert(at, key)
                values.insert(at, value)
            else:
                del keys[at], values[at]
            if keys:
                self._sorted_runs[p, order] = SortedRun(p, order, keys, values)
            else:
                del self._sorted_runs[p, order]

    def _touch(self, predicate_ids):
        """Bump the version and stamp the predicates with it."""
        self.version += 1
        for predicate_id in predicate_ids:
            self._predicate_stamps[predicate_id] = self.version

    def begin_generation(self):
        """Start a copy-on-write draft of this store's next MVCC generation.

        The draft is an ``IndexedStore`` driven by the MVCC writer
        (:mod:`repro.store.mvcc`) through the ordinary ``add``/``remove``:

        * the term dictionary is *shared* (append-only; ids are stable forever),
        * the two hash indexes copy their **dict spines** but share every
          bucket set; from now on this store and the draft each copy a
          shared bucket the first time they write to it,
        * the sorted runs and change stamps are copied dicts, so untouched
          predicates keep their (immutable) runs, and the statistics read
          off them, across generations with zero rebuild cost.

        Readers holding this store keep a frozen view while the writer
        assembles the next generation in the draft.
        """
        draft = IndexedStore()
        draft._dictionary = self._dictionary
        draft._by_s = self._by_s.copy()
        draft._by_o = self._by_o.copy()
        draft._sorted_runs = self._sorted_runs.copy()
        draft._predicate_stamps = self._predicate_stamps.copy()
        draft._size = self._size
        draft.version = self.version
        self._owned = (set(), set())
        draft._owned = (set(), set())
        return draft

    def seal(self, version):
        """Finish this draft as generation ``version`` (one past its base's).

        Every predicate written since the draft began carries a stamp of at
        least ``version`` (each write bumped the draft's version) and is
        restamped ``version``; untouched predicates keep their stamps.  The
        copy-on-write bookkeeping starts over: a later write to the sealed
        store copies its bucket first, since the base may still share it.
        """
        self._predicate_stamps = {
            predicate_id: min(stamp, version)
            for predicate_id, stamp in self._predicate_stamps.items()
        }
        self._owned = (set(), set())
        return super().seal(version)

    def predicates_changed_since(self, predicates, version):
        """True when a triple of any of ``predicates`` (terms) was added or
        removed after this store was at ``version``.

        What lets the engine's statement cache keep a plan across updates
        that leave every statistic the plan was costed with untouched.
        """
        stamps = self._predicate_stamps
        lookup = self._dictionary.lookup
        return any(stamps.get(lookup(predicate), 0) > version
                   for predicate in predicates)

    # -- statistics for the cost model -----------------------------------------
    #
    # Term-level, like the patterns the planner costs.  Every number is an
    # index size or read off a predicate's runs, so it is exact at every
    # generation without a separate structure to maintain.

    def distinct_subjects(self, predicate):
        """Number of distinct subjects appearing with ``predicate``."""
        return self._distinct(self._dictionary.lookup(predicate), RUN_BY_SUBJECT)

    def distinct_objects(self, predicate):
        """Number of distinct objects appearing with ``predicate``."""
        return self._distinct(self._dictionary.lookup(predicate), RUN_BY_OBJECT)

    def _distinct(self, predicate_id, order):
        """Distinct keys of the predicate's run in ``order`` (0 without one),
        counted once per run: a run never changes."""
        run = self.sorted_run(predicate_id, order)
        if run is not None and "distinct" not in run.cache:
            run.cache["distinct"] = len(set(run.keys))
        return 0 if run is None else run.cache["distinct"]

    def distinct_subject_total(self):
        """Number of distinct subjects across all predicates."""
        return len(self._by_s)

    def distinct_object_total(self):
        """Number of distinct objects across all predicates."""
        return len(self._by_o)

    def distinct_predicates(self):
        """Number of distinct predicates with at least one triple (each
        has exactly two runs)."""
        return len(self._sorted_runs) // 2

    # -- id-level access ----------------------------------------------------

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Raw id 3-tuples matching an encoded pattern: one index probe, or
        one binary search of a predicate's run (all of it for ``(?, p, ?)``)."""
        if predicate is not None and (subject is None or object is None):
            run, lo, hi = self._run_range(subject, predicate, object)
            if subject is None and object is None:
                return zip(run.keys, repeat(predicate), run.values)
            if object is None:
                return zip(repeat(subject), repeat(predicate), run.values[lo:hi])
            return zip(run.values[lo:hi], repeat(predicate), repeat(object))
        if subject is None and object is None:
            return chain.from_iterable(self._by_s.values())
        return iter(self._candidates(subject, predicate, object))

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode);
        O(1) for ``(?, p, ?)`` and ``(?, ?, ?)``."""
        if predicate is not None and (subject is None or object is None):
            _run, lo, hi = self._run_range(subject, predicate, object)
            return hi - lo
        if subject is None and object is None:
            return self._size
        return len(self._candidates(subject, predicate, object))

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

    def _candidates(self, s, p, o):
        """The id-triple set of a shape no run answers: a bound subject or
        object, and the predicate unbound or all three bound."""
        if s is None:
            return self._by_o.get(o, _EMPTY)
        bucket = self._by_s.get(s, _EMPTY)
        if p is not None:
            return {(s, p, o)} if (s, p, o) in bucket else _EMPTY
        if o is not None:
            return {ids for ids in bucket if ids[2] == o}
        return bucket

    # -- sorted runs ---------------------------------------------------------

    def sorted_run(self, predicate_id, order=RUN_BY_SUBJECT):
        """The predicate's triples as a key-sorted :class:`SortedRun`.

        ``order`` selects the sort column: ``"s"`` sorts by subject (values
        are the objects), ``"o"`` sorts by object (values are the subjects).
        Runs are built when a snapshot or a bulk load arrives and replaced,
        never edited, by every write touching the predicate.
        Returns ``None`` for a predicate with no triples, so callers can
        fall back to the tuple path without special-casing empty columns.
        """
        if order not in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
            raise ValueError(f"unknown run order: {order!r}")
        return self._sorted_runs.get((predicate_id, order))

    # -- term-level lookup --------------------------------------------------

    def contains(self, triple):
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None:
            return False
        return encoded in self._by_s.get(encoded[0], _EMPTY)

    def count(self, subject=None, predicate=None, object=None):
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return 0
        return self.count_ids(*encoded)

    def __len__(self):
        return self._size

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"
