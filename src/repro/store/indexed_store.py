"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary ids*,
materializing RDF terms only for final results.  :class:`IndexedStore`
reproduces both halves of that design in pure Python:

* all terms are dictionary-encoded to integers (:mod:`.dictionary`),
* triples are stored once as id-triples, and three hash indexes (S, P, O)
  map one bound component to the set of matching triples,
* each predicate's two sorted runs (by subject, by object) are its only
  predicate-keyed structure: ``(s, p, ?)`` and ``(?, p, o)`` binary-search
  the run keyed on the bound side (``(s, ?p, o)``, bound by no query
  template, filters the S bucket),
* the cost model's statistics are exact counts (an index bucket's size or
  a run's key range) and a run's distinct keys (distinct subjects/objects
  per predicate).

``triples_ids()`` / ``count_ids()`` answer an encoded pattern from the
index or run matching its bound positions, with **no decoding at all** —
the SPARQL executor (:mod:`repro.sparql.idspace`) joins over the ids and
terms are only reconstructed at the result boundary.
``supports_sorted_runs`` marks the family for the planner: probes per row,
and batch kernels over the same runs.

``begin_generation()`` returns an MVCC draft that is itself an
``IndexedStore``: it shares the dictionary, every index bucket and every
run with its base; either side copies a shared bucket before its first
write to it, and a write to a predicate drops that side's runs of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import itemgetter

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

    ``cache`` is scratch space for views derived from the run (numpy
    mirrors, composite keys, the distinct-key count); it lives and dies with
    the run, so store mutation invalidating the run also drops every view.
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


def _nothing_owned():
    """Copy-on-write bookkeeping of a store sharing all its buckets: per
    index (in ``_index_entries`` order), the keys whose bucket it has copied."""
    return tuple(set() for _ in range(3))


class IndexedStore(TripleStore):
    """A hash-indexed triple store with dictionary encoding."""

    name = "indexed"

    #: Index probes and predicate-sorted id runs (``sorted_run``) are
    #: available: the planner's cue for PROBE steps and batch kernels, and
    #: for reading its statistics (``count`` and the distinct counts).
    supports_sorted_runs = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        self._spo = set()          # full triples as id 3-tuples
        self._by_s = {}
        self._by_p = {}
        self._by_o = {}
        self._sorted_runs = {}     # (predicate_id, order) -> SortedRun
        #: predicate_id -> ``version`` at which a triple of that predicate
        #: was last added or removed (absent: not since construction).
        self._predicate_stamps = {}
        #: None while this store owns every bucket; after ``begin_generation``
        #: the keys per index whose bucket it has copied since (the rest may
        #: be shared with another generation and are copied before a write).
        self._owned = None
        if triples is not None:
            self.load_graph(triples)

    @classmethod
    def _from_snapshot(cls, dictionary, triples, runs):
        """Assemble a store from deserialized snapshot sections."""
        store = cls()
        store._dictionary = dictionary
        store._spo = set(triples)
        # add()'s walk over _index_entries minus the encode, one index at a
        # time: each index's buckets are then allocated together, which
        # makes both this build and later queries faster than one pass
        # interleaving all three.
        for index, position in ((store._by_s, 0), (store._by_p, 1), (store._by_o, 2)):
            for ids, key in zip(triples, map(itemgetter(position), triples)):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {ids}
                else:
                    bucket.add(ids)
        store._sorted_runs = {(run.predicate, run.order): run for run in runs}
        return store

    def _index_entries(self, s, p, o):
        """``(index, key)`` of one id triple in each index: S, P, O."""
        return ((self._by_s, s), (self._by_p, p), (self._by_o, o))

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
        if ids in self._spo:
            return False
        self._spo.add(ids)
        s, p, o = ids
        owned = self._owned
        for slot, (index, key) in enumerate(self._index_entries(s, p, o)):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {ids}
                continue
            if owned is not None and key not in owned[slot]:
                owned[slot].add(key)
                bucket = index[key] = set(bucket)
            bucket.add(ids)
        self._touch(p)
        return True

    def remove(self, triple):
        """Remove a triple if present; returns True when removed.

        All three indexes are maintained and the predicate's runs dropped;
        empty index buckets are dropped so lookups of fully removed keys
        stay O(1).  Dictionary entries are intentionally kept — ids are
        stable for the lifetime of the store, which is what lets id-space
        evaluation cache decoded terms safely.
        """
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None or encoded not in self._spo:
            return False
        self._spo.discard(encoded)
        s, p, o = encoded
        owned = self._owned
        for slot, (index, key) in enumerate(self._index_entries(s, p, o)):
            bucket = index[key]
            if len(bucket) == 1:
                del index[key]
            elif owned is None or key in owned[slot]:
                bucket.discard(encoded)
            else:
                owned[slot].add(key)
                index[key] = bucket - {encoded}
        self._touch(p)
        return True

    def _touch(self, predicate_id):
        """Bump the version, stamp the predicate and drop its sorted runs."""
        self._sorted_runs.pop((predicate_id, RUN_BY_SUBJECT), None)
        self._sorted_runs.pop((predicate_id, RUN_BY_OBJECT), None)
        self.version += 1
        self._predicate_stamps[predicate_id] = self.version

    def begin_generation(self):
        """Start a copy-on-write draft of this store's next MVCC generation.

        The draft is an ``IndexedStore`` driven by the MVCC writer
        (:mod:`repro.store.mvcc`) through the ordinary ``add``/``remove``:

        * the term dictionary is *shared* (append-only; ids are stable forever),
        * the id-triple set is copied (O(n), the per-transaction floor),
        * the three hash indexes copy their **dict spines** but share every
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
        draft._spo = set(self._spo)
        draft._by_s = self._by_s.copy()
        draft._by_p = self._by_p.copy()
        draft._by_o = self._by_o.copy()
        # dict.copy() is a single C-level call, so it is atomic with respect
        # to readers lazily inserting sorted runs into this generation.
        draft._sorted_runs = self._sorted_runs.copy()
        draft._predicate_stamps = self._predicate_stamps.copy()
        draft.version = self.version
        self._owned = _nothing_owned()
        draft._owned = _nothing_owned()
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
        self._owned = _nothing_owned()
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
        """Number of distinct predicates with at least one triple."""
        return len(self._by_p)

    # -- id-level access ----------------------------------------------------

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Raw id 3-tuples matching an encoded pattern: one index probe, or
        one binary search for ``(s, p, ?)`` and ``(?, p, o)``."""
        values = self._run_values(subject, predicate, object)
        if values is None:
            return iter(self._candidates(subject, predicate, object))
        if object is None:
            return zip(repeat(subject), repeat(predicate), values)
        return zip(values, repeat(predicate), repeat(object))

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode)."""
        values = self._run_values(subject, predicate, object)
        if values is None:
            return len(self._candidates(subject, predicate, object))
        return len(values)

    def _run_values(self, s, p, o):
        """For ``(s, p, ?)`` and ``(?, p, o)``, the bound key's values in the
        predicate's run keyed on it; None for every other shape."""
        if p is None or (s is None) == (o is None):
            return None
        key, order = (s, RUN_BY_SUBJECT) if o is None else (o, RUN_BY_OBJECT)
        run = self.sorted_run(p, order)
        if run is None:
            return ()
        lo = bisect_left(run.keys, key)
        return run.values[lo:bisect_right(run.keys, key, lo)]

    def _candidates(self, s, p, o):
        """The candidate id-triple set of a shape no run answers."""
        if s is not None and p is not None and o is not None:
            return {(s, p, o)} if (s, p, o) in self._spo else _EMPTY
        if s is not None and o is not None:
            return {ids for ids in self._by_s.get(s, _EMPTY) if ids[2] == o}
        if s is not None:
            return self._by_s.get(s, _EMPTY)
        if p is not None:
            return self._by_p.get(p, _EMPTY)
        if o is not None:
            return self._by_o.get(o, _EMPTY)
        return self._spo

    # -- sorted runs ---------------------------------------------------------

    def sorted_run(self, predicate_id, order=RUN_BY_SUBJECT):
        """The predicate's triples as a key-sorted :class:`SortedRun`.

        ``order`` selects the sort column: ``"s"`` sorts by subject (values
        are the objects), ``"o"`` sorts by object (values are the subjects).
        Runs are built lazily on first request, cached per ``(predicate,
        order)``, and invalidated by any mutation touching the predicate.
        Returns ``None`` for a predicate with no triples, so callers can
        fall back to the tuple path without special-casing empty columns.
        """
        key = (predicate_id, order)
        run = self._sorted_runs.get(key)
        if run is not None:
            return run
        if order not in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
            raise ValueError(f"unknown run order: {order!r}")
        bucket = self._by_p.get(predicate_id)
        if not bucket:
            return None
        if order == RUN_BY_SUBJECT:
            pairs = sorted((s, o) for s, _p, o in bucket)
        else:
            pairs = sorted((o, s) for s, _p, o in bucket)
        keys = array("I", (pair[0] for pair in pairs))
        values = array("I", (pair[1] for pair in pairs))
        run = SortedRun(predicate_id, order, keys, values)
        self._sorted_runs[key] = run
        return run

    # -- term-level lookup --------------------------------------------------

    def contains(self, triple):
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None:
            return False
        return encoded in self._spo

    def count(self, subject=None, predicate=None, object=None):
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return 0
        return self.count_ids(*encoded)

    def __len__(self):
        return len(self._spo)

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"
