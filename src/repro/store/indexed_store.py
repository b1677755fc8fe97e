"""Dictionary-encoded, fully indexed triple store (the "native engine" model).

The paper's native engines (Sesame with the native SAIL, Virtuoso) answer
triple patterns from physical index structures and *join over dictionary ids*,
materializing RDF terms only for final results.  :class:`IndexedStore`
reproduces both halves of that design in pure Python:

* all terms are dictionary-encoded to integers (:mod:`.dictionary`),
* triples are stored once as id-triples,
* five hash indexes (S, P, O, SP, PO) map bound components to the set of
  matching triples; every binding combination of a triple pattern has a
  direct access path except ``(s, ?p, o)``, which filters the S bucket
  (no query template binds it),
* per-predicate and per-class statistics are maintained for the optimizer.

``triples_ids()`` / ``count_ids()`` answer an encoded pattern from the
index matching its bound positions, with **no decoding at all** — the SPARQL
executor (:mod:`repro.sparql.idspace`) joins over the ids and terms are only
reconstructed at the result boundary.  ``supports_sorted_runs`` marks the
family for the planner: index probes per row, and batch kernels over the
per-predicate sorted runs.
"""

from __future__ import annotations

from array import array
from itertools import islice

from ..rdf.triple import Triple
from .base import TripleStore
from .dictionary import TermDictionary
from .statistics import StoreStatistics

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

    ``cache`` is scratch space for kernel-computed views (numpy mirrors,
    composite keys); it lives and dies with the run, so store mutation
    invalidating the run also drops every derived view.
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


def _rebuild_index(triples, image):
    """Rebuild one hash index from a grouped snapshot image.

    ``image`` is ``(single_keys, single_members, multi_keys, multi_counts,
    multi_members)`` with members given as positions into ``triples``.  The
    multi buckets are materialized through C-level ``set``/``islice``
    construction and the (dominant) singleton buckets through a plain
    assignment loop — together roughly 3x cheaper than replaying per-triple
    ``setdefault(...).add(...)`` churn for every index entry.
    """
    single_keys, single_members, multi_keys, multi_counts, multi_members = image
    member = triples.__getitem__
    multi_iter = map(member, multi_members)
    index = {
        key: set(islice(multi_iter, count))
        for key, count in zip(multi_keys, multi_counts)
    }
    # Singleton buckets dominate (the sp/po keys are mostly unique); build
    # them without any per-bucket Python frame: zip() wraps each member triple
    # in a 1-tuple and map(set, ...) turns it into its singleton bucket, so
    # the whole stream runs inside the C iterator protocol.
    index.update(zip(single_keys, map(set, zip(map(member, single_members)))))
    return index


class IndexedStore(TripleStore):
    """A hash-indexed triple store with dictionary encoding."""

    name = "indexed"

    #: Index probes and predicate-sorted id runs (``sorted_run``) are
    #: available: the planner's cue for PROBE steps and batch kernels.
    supports_sorted_runs = True

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        self._spo = set()          # full triples as id 3-tuples
        self._by_s = {}
        self._by_p = {}
        self._by_o = {}
        self._by_sp = {}
        self._by_po = {}
        self._sorted_runs = {}     # (predicate_id, order) -> SortedRun
        #: predicate_id -> ``version`` at which a triple of that predicate
        #: was last added or removed (absent: not since construction).
        self._predicate_stamps = {}
        self.statistics = StoreStatistics()
        if triples is not None:
            self.load_graph(triples)

    # -- bulk construction --------------------------------------------------

    @classmethod
    def from_id_triples(cls, dictionary, id_triples, statistics=None):
        """Bulk-construct a store from a dictionary and raw id 3-tuples.

        This is the snapshot/bulk-load entry point: the caller supplies an
        already-populated :class:`TermDictionary` and the id-triple set, so
        construction skips per-triple term encoding.  When ``statistics`` is
        given (e.g. deserialized from a snapshot) the per-triple statistics
        observation is skipped as well; otherwise statistics are recomputed
        in one pass over the loaded triples.
        """
        store = cls()
        store._dictionary = dictionary
        store.bulk_add_ids(id_triples)
        if statistics is None:
            statistics = store._recompute_statistics()
        store.statistics = statistics
        return store

    @classmethod
    def _from_snapshot(cls, dictionary, triples, index_images, statistics):
        """Assemble a store from deserialized snapshot sections (trusted)."""
        store = cls()
        store._dictionary = dictionary
        store._spo = set(triples)
        (store._by_s, store._by_p, store._by_o,
         store._by_sp, store._by_po) = (
            _rebuild_index(triples, image) for image in index_images
        )
        store.statistics = statistics
        return store

    def bulk_add_ids(self, id_triples):
        """Insert raw id 3-tuples in bulk; returns the number actually added.

        The bulk path of :meth:`from_id_triples`: indexes are maintained with
        a tightened insert loop, but **statistics are deliberately not
        updated** — callers either install deserialized statistics or call
        :meth:`_recompute_statistics` once afterwards.  All ids must already
        be valid for this store's dictionary.
        """
        spo = self._spo
        added = 0
        for ids in id_triples:
            ids = tuple(ids)
            if ids in spo:
                continue
            spo.add(ids)
            for index, key in self._index_entries(*ids):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {ids}
                else:
                    bucket.add(ids)
            added += 1
        if added:
            self._sorted_runs.clear()
            self.version += 1
            self._predicate_stamps = dict.fromkeys(self._by_p, self.version)
        return added

    def _recompute_statistics(self):
        """Rebuild :class:`StoreStatistics` from the stored id-triples."""
        statistics = StoreStatistics()
        decode = self._dictionary.decode
        for s_id, p_id, o_id in self._spo:
            statistics.observe(Triple(decode(s_id), decode(p_id), decode(o_id)))
        return statistics

    def _index_table(self):
        """The five hash indexes with their key arity, in snapshot order."""
        return (
            (1, self._by_s), (1, self._by_p), (1, self._by_o),
            (2, self._by_sp), (2, self._by_po),
        )

    def _index_entries(self, s, p, o):
        """``(index, key)`` of one id triple in each index, in table order."""
        return (
            (self._by_s, s), (self._by_p, p), (self._by_o, o),
            (self._by_sp, (s, p)), (self._by_po, (p, o)),
        )

    # -- snapshots -----------------------------------------------------------

    def save(self, path, metadata=None):
        """Write a binary snapshot of this store (see :mod:`.snapshot`)."""
        from .snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path):
        """Rebuild a store from a snapshot written by :meth:`save`."""
        from .snapshot import load_snapshot

        return load_snapshot(path, expected_kind="indexed")

    # -- mutation -----------------------------------------------------------

    def add(self, triple):
        ids = self._dictionary.encode_triple(triple)
        if ids in self._spo:
            return False
        self._spo.add(ids)
        for index, key in self._index_entries(*ids):
            index.setdefault(key, set()).add(ids)
        p = ids[1]
        self._invalidate_sorted_runs(p)
        self.statistics.observe(triple)
        self.version += 1
        self._predicate_stamps[p] = self.version
        return True

    def remove(self, triple):
        """Remove a triple if present; returns True when removed.

        All five indexes and the store statistics are maintained; empty index
        buckets are dropped so lookups of fully removed keys stay O(1).
        Dictionary entries are intentionally kept — ids are stable for the
        lifetime of the store, which is what lets id-space evaluation cache
        decoded terms safely.
        """
        encoded = self.encode_pattern(triple.subject, triple.predicate, triple.object)
        if encoded is None or encoded not in self._spo:
            return False
        self._spo.discard(encoded)
        p = encoded[1]
        for index, key in self._index_entries(*encoded):
            bucket = index[key]
            bucket.discard(encoded)
            if not bucket:
                del index[key]
        self._invalidate_sorted_runs(p)
        self.statistics.forget(triple)
        self.version += 1
        self._predicate_stamps[p] = self.version
        return True

    def begin_generation(self):
        """Start a copy-on-write draft of this store's next MVCC generation.

        Returns a :class:`GenerationDraft` sharing this store's term
        dictionary (append-only, so ids stay valid across generations), its
        untouched index buckets, and its sorted runs; the draft copies a
        bucket only when a mutation first touches it.  This store is never
        modified through the draft — readers holding it keep an immutable
        view while the writer assembles the next generation.
        """
        return GenerationDraft(self)

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

    # -- id-level access ----------------------------------------------------

    def id_triples(self):
        """Iterate over every stored triple as a raw id 3-tuple (no decode).

        The bulk counterpart of :meth:`triples_ids` used by snapshot and
        copy/bulk-load paths: ``IndexedStore.from_id_triples(other.dictionary,
        other.id_triples())`` clones a store without touching terms.
        """
        return iter(self._spo)

    def triples_ids(self, subject=None, predicate=None, object=None):
        """Raw id 3-tuples matching an encoded pattern: one index probe."""
        return iter(self._candidates(subject, predicate, object))

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an already-encoded pattern (no decode)."""
        return len(self._candidates(subject, predicate, object))

    def _candidates(self, s, p, o):
        """Return the candidate id-triple set for an encoded pattern."""
        if s is not None and p is not None and o is not None:
            return {(s, p, o)} if (s, p, o) in self._spo else _EMPTY
        if s is not None and p is not None:
            return self._by_sp.get((s, p), _EMPTY)
        if p is not None and o is not None:
            return self._by_po.get((p, o), _EMPTY)
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
        if order not in (RUN_BY_SUBJECT, RUN_BY_OBJECT):
            raise ValueError(f"unknown run order: {order!r}")
        key = (predicate_id, order)
        run = self._sorted_runs.get(key)
        if run is not None:
            return run
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

    def _install_sorted_runs(self, runs):
        """Adopt prebuilt runs (snapshot load path, trusted input)."""
        for run in runs:
            self._sorted_runs[(run.predicate, run.order)] = run

    def _invalidate_sorted_runs(self, predicate_id):
        """Drop both cached runs of one predicate after a mutation."""
        if self._sorted_runs:
            self._sorted_runs.pop((predicate_id, RUN_BY_SUBJECT), None)
            self._sorted_runs.pop((predicate_id, RUN_BY_OBJECT), None)

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
        return len(self._candidates(*encoded))

    def estimate_count(self, subject=None, predicate=None, object=None):
        """Cheap cardinality estimate for the optimizer.

        Fully bound or singly/doubly bound patterns are answered exactly from
        the index sizes (constant time); everything else falls back to the
        statistics-based estimate.
        """
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return 0
        s, p, o = encoded
        if s is not None or o is not None or p is not None:
            return len(self._candidates(s, p, o))
        return self.statistics.triple_count

    def __len__(self):
        return len(self._spo)

    def __repr__(self):
        return f"IndexedStore(len={len(self)}, terms={len(self._dictionary)})"


class GenerationDraft:
    """A copy-on-write draft of an :class:`IndexedStore`'s next generation.

    Built by :meth:`IndexedStore.begin_generation` and driven by the MVCC
    writer (:mod:`repro.store.mvcc`).  The draft's store starts as a
    structural-sharing copy of the base generation:

    * the term dictionary is *shared* (append-only; ids are stable forever),
    * the id-triple set is copied (O(n), the per-transaction floor),
    * the five hash indexes copy their **dict spines** but share every bucket
      set with the base; a bucket is copied exactly once, the first time a
      mutation touches it (``_owned`` tracks copied keys per index),
    * sorted runs are shared and only the runs of *touched predicates* are
      dropped at :meth:`finish` — untouched predicates keep their (immutable)
      runs across generations with zero rebuild cost,
    * statistics share every per-predicate map with the base until the
      draft first touches that predicate (``StoreStatistics.copy``), and are
      maintained incrementally,
    * the per-predicate change stamps are carried over and the touched
      predicates restamped with the new version at :meth:`finish`.

    The base store is never mutated: concurrent readers pinned to it see a
    frozen, consistent state for as long as they hold the reference.
    """

    def __init__(self, base):
        store = IndexedStore()
        store._dictionary = base._dictionary
        store._spo = set(base._spo)
        store._by_s = base._by_s.copy()
        store._by_p = base._by_p.copy()
        store._by_o = base._by_o.copy()
        store._by_sp = base._by_sp.copy()
        store._by_po = base._by_po.copy()
        # dict.copy() is a single C-level call, so it is atomic with respect
        # to readers lazily inserting sorted runs into the base generation.
        store._sorted_runs = base._sorted_runs.copy()
        store._predicate_stamps = base._predicate_stamps.copy()
        store.statistics = base.statistics.copy()
        store.version = base.version
        self.store = store
        #: Keys whose bucket has been copied, aligned with _index_table order.
        self._owned = tuple(set() for _ in store._index_table())
        self._touched_predicates = set()
        self.inserted = 0
        self.deleted = 0

    def add(self, triple):
        """Insert one ground triple into the draft; True when it was new."""
        store = self.store
        ids = store._dictionary.encode_triple(triple)
        if ids in store._spo:
            return False
        store._spo.add(ids)
        for owned, (index, key) in zip(self._owned, store._index_entries(*ids)):
            bucket = index.get(key)
            if bucket is None:
                index[key] = {ids}
                owned.add(key)
            elif key in owned:
                bucket.add(ids)
            else:
                copied = set(bucket)
                copied.add(ids)
                index[key] = copied
                owned.add(key)
        store.statistics.observe(triple)
        self._touched_predicates.add(ids[1])
        self.inserted += 1
        return True

    def remove(self, triple):
        """Remove one ground triple from the draft; True when it was present."""
        store = self.store
        encoded = store.encode_pattern(triple.subject, triple.predicate,
                                       triple.object)
        if encoded is None or encoded not in store._spo:
            return False
        store._spo.discard(encoded)
        for owned, (index, key) in zip(self._owned, store._index_entries(*encoded)):
            bucket = index[key]
            if key not in owned:
                bucket = set(bucket)
                index[key] = bucket
                owned.add(key)
            bucket.discard(encoded)
            if not bucket:
                del index[key]
                owned.discard(key)
        store.statistics.forget(triple)
        self._touched_predicates.add(encoded[1])
        self.deleted += 1
        return True

    @property
    def mutated(self):
        """True when at least one triple was actually inserted or removed."""
        return bool(self.inserted or self.deleted)

    def finish(self, version):
        """Seal the draft as generation ``version`` and return its store.

        Sorted runs of every touched predicate are dropped (they rebuild
        lazily on first use in the new generation) and its change stamp
        becomes ``version``; untouched predicates keep the shared runs and
        the stamps of the previous generation.
        """
        store = self.store
        for predicate_id in self._touched_predicates:
            store._sorted_runs.pop((predicate_id, RUN_BY_SUBJECT), None)
            store._sorted_runs.pop((predicate_id, RUN_BY_OBJECT), None)
            store._predicate_stamps[predicate_id] = version
        store.version = version
        return store
