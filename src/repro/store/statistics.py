"""Store-level statistics used for selectivity estimation.

Section V of the paper discusses triple-pattern reordering based on
selectivity estimation (citing Stocker et al.) and notes that schema
statistics allow native engines to answer queries such as Q3c (no article has
``swrc:isbn``) or Q9 (schema extraction) in near-constant time.
:class:`StoreStatistics` collects the counts those techniques need:

* triples per predicate,
* distinct subjects/objects per predicate,
* instances per ``rdf:type`` class.
"""

from __future__ import annotations

from ..rdf.namespace import RDF

_RDF_TYPE = RDF.type


class StoreStatistics:
    """Incremental counts maintained while triples are added to a store.

    The distinct-subject/object structures are reference-counted (term ->
    occurrence count) rather than plain sets so that :meth:`forget` can
    maintain them exactly when triples are removed.

    The distinct totals across all predicates (what a variable-predicate
    estimate divides by, Q9/Q10) are two integers: derived by one union the
    first time they are asked for — bulk loads never ask — and from then on
    kept exact by :meth:`observe`/:meth:`forget`, so :meth:`estimate` never
    walks the maps.
    """

    def __init__(self):
        self.triple_count = 0
        self.predicate_counts = {}
        self._predicate_subjects = {}
        self._predicate_objects = {}
        self.class_counts = {}
        self._subject_total = None
        self._object_total = None
        #: Copy-on-write bookkeeping: None while every per-predicate map is
        #: private; after :meth:`copy`, the predicates whose maps this side
        #: has made private again.
        self._owned = None

    def observe(self, triple):
        """Record one added triple."""
        self.triple_count += 1
        predicate = triple.predicate
        self.predicate_counts[predicate] = self.predicate_counts.get(predicate, 0) + 1
        if self._owned is not None:
            self._own(predicate)
        self._subject_total = _enter(
            self._predicate_subjects, predicate, triple.subject, self._subject_total)
        self._object_total = _enter(
            self._predicate_objects, predicate, triple.object, self._object_total)
        if predicate == _RDF_TYPE:
            self.class_counts[triple.object] = self.class_counts.get(triple.object, 0) + 1

    def forget(self, triple):
        """Record one removed triple (exact inverse of :meth:`observe`)."""
        self.triple_count -= 1
        predicate = triple.predicate
        _decrement(self.predicate_counts, predicate)
        if self._owned is not None:
            self._own(predicate)
        self._subject_total = _leave(
            self._predicate_subjects, predicate, triple.subject, self._subject_total)
        self._object_total = _leave(
            self._predicate_objects, predicate, triple.object, self._object_total)
        if predicate == _RDF_TYPE:
            _decrement(self.class_counts, triple.object)

    def copy(self):
        """An independent copy in O(predicates) (MVCC drafts start from one).

        Both sides keep sharing every per-predicate distinct map until one
        of them first writes to that predicate and copies just those two
        maps, so a writer can :meth:`observe`/:meth:`forget` on the next
        generation's statistics while readers keep planning against the
        published generation's counts.
        """
        clone = StoreStatistics()
        clone.triple_count = self.triple_count
        clone.predicate_counts = dict(self.predicate_counts)
        clone._predicate_subjects = dict(self._predicate_subjects)
        clone._predicate_objects = dict(self._predicate_objects)
        clone.class_counts = dict(self.class_counts)
        # Derived here at the latest, so no generation re-derives them.
        clone._subject_total = self.distinct_subject_total()
        clone._object_total = self.distinct_object_total()
        self._owned = set()
        clone._owned = set()
        return clone

    def _own(self, predicate):
        """Make ``predicate``'s maps private before the first write after a copy."""
        if predicate not in self._owned:
            self._owned.add(predicate)
            for maps in (self._predicate_subjects, self._predicate_objects):
                if predicate in maps:
                    maps[predicate] = dict(maps[predicate])

    # -- accessors ---------------------------------------------------------

    def predicate_count(self, predicate):
        """Number of triples carrying ``predicate``."""
        return self.predicate_counts.get(predicate, 0)

    def distinct_subjects(self, predicate):
        """Number of distinct subjects appearing with ``predicate``."""
        return len(self._predicate_subjects.get(predicate, ()))

    def distinct_objects(self, predicate):
        """Number of distinct objects appearing with ``predicate``."""
        return len(self._predicate_objects.get(predicate, ()))

    def class_count(self, class_uri):
        """Number of ``rdf:type`` instances of ``class_uri``."""
        return self.class_counts.get(class_uri, 0)

    def distinct_predicates(self):
        """Number of distinct predicates observed."""
        return len(self.predicate_counts)

    def distinct_subject_total(self):
        """Number of distinct subjects across all predicates."""
        if self._subject_total is None:
            self._subject_total = len(set().union(*self._predicate_subjects.values()))
        return self._subject_total

    def distinct_object_total(self):
        """Number of distinct objects across all predicates."""
        if self._object_total is None:
            self._object_total = len(set().union(*self._predicate_objects.values()))
        return self._object_total

    # -- selectivity estimation ---------------------------------------------

    def estimate(self, subject, predicate, object):
        """Estimate the number of triples matching an (s, p, o) pattern.

        ``None`` marks a wildcard position.  The estimates follow the classic
        attribute-independence model: start from the predicate count (or the
        total triple count for a variable predicate) and divide by the number
        of distinct subjects/objects for each bound subject/object.
        """
        if predicate is not None:
            base = self.predicate_count(predicate)
            if base == 0:
                return 0
            estimate = float(base)
            if subject is not None:
                estimate /= max(self.distinct_subjects(predicate), 1)
            if object is not None:
                if predicate == _RDF_TYPE and subject is None:
                    return self.class_count(object)
                estimate /= max(self.distinct_objects(predicate), 1)
            return max(estimate, 0.0)
        # Variable predicate: fall back to the total count, scaled down when
        # subject and/or object are bound.
        estimate = float(self.triple_count)
        if subject is not None:
            estimate /= max(self.distinct_subject_total(), 1)
        if object is not None:
            estimate /= max(self.distinct_object_total(), 1)
        return estimate

    def __eq__(self, other):
        """Exact structural equality (snapshot round-trip tests rely on it)."""
        if not isinstance(other, StoreStatistics):
            return NotImplemented
        return (
            self.triple_count == other.triple_count
            and self.predicate_counts == other.predicate_counts
            and self._predicate_subjects == other._predicate_subjects
            and self._predicate_objects == other._predicate_objects
            and self.class_counts == other.class_counts
        )

    __hash__ = None  # mutable container; equality is structural

    def __repr__(self):
        return (
            f"StoreStatistics(triples={self.triple_count}, "
            f"predicates={len(self.predicate_counts)}, classes={len(self.class_counts)})"
        )


def _enter(maps, predicate, term, total):
    """Count ``term`` once more under ``predicate``; returns the distinct total.

    ``total`` (None = not derived yet) grows when no predicate had the term.
    """
    counts = maps.setdefault(predicate, {})
    if term in counts:
        counts[term] += 1
    else:
        if total is not None and not any(term in other for other in maps.values()):
            total += 1
        counts[term] = 1
    return total


def _leave(maps, predicate, term, total):
    """Exact inverse of :func:`_enter`."""
    counts = maps.get(predicate)
    if counts is not None and term in counts:
        _decrement(counts, term)
        if term not in counts:
            if not counts:
                del maps[predicate]
            if total is not None and not any(term in other for other in maps.values()):
                total -= 1
    return total


def _decrement(counter, key):
    """Decrease ``counter[key]`` by one, dropping the entry at zero."""
    remaining = counter.get(key, 0) - 1
    if remaining > 0:
        counter[key] = remaining
    else:
        counter.pop(key, None)
