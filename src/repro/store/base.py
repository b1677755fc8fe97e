"""Abstract triple-store interface shared by all storage backends.

The paper distinguishes *in-memory engines* (ARQ, Sesame-memory), which scan
the loaded document, from *native engines* (Sesame-native, Virtuoso), which
answer triple patterns from physical indexes.  Both families are modelled as
implementations of :class:`TripleStore`: every store dictionary-encodes its
terms and answers a pattern as raw id 3-tuples (``triples_ids``), and one
SPARQL executor joins over those ids for both.  Engine behaviour differences
therefore come purely from the access path behind ``triples_ids`` — a linear
scan or an index probe — exactly the axis SP2Bench probes.
"""

from __future__ import annotations

import abc

from ..rdf.triple import Triple


class TripleStore(abc.ABC):
    """Interface every storage backend implements.

    Subclasses keep their :class:`~repro.store.dictionary.TermDictionary` in
    ``_dictionary``; the term-level methods below encode patterns through it
    and decode what ``triples_ids`` yields.
    """

    #: Human-readable backend name used in benchmark reports.
    name = "abstract"

    #: Monotonic mutation counter.  Every successful ``add``/``remove`` (and
    #: every published MVCC generation) bumps it; the engine's prepared-
    #: statement cache compares it to detect stale plans and stale planner
    #: statistics.  Class attribute 0 until the first mutation, so unchanged
    #: stores pay nothing.
    version = 0

    @abc.abstractmethod
    def add_all(self, triples):
        """Add every ground triple of an iterable as one write (one version
        bump, however many are new).  Returns the count that was new."""

    @abc.abstractmethod
    def remove_all(self, triples):
        """Remove every ground triple of an iterable as one write.  Returns
        the count that was present."""

    def add(self, triple):
        """Add one ground triple.  Returns True if it was new."""
        return self.add_all((triple,)) == 1

    def remove(self, triple):
        """Remove one ground triple.  Returns True if it was present."""
        return self.remove_all((triple,)) == 1

    @abc.abstractmethod
    def triples_ids(self, subject=None, predicate=None, object=None):
        """Yield raw id 3-tuples matching an already-encoded pattern.

        Arguments are dictionary ids (or ``None`` wildcards); nothing is
        decoded.  This is the access path the SPARQL executor joins over.
        """

    @abc.abstractmethod
    def __len__(self):
        """Total number of stored triples."""

    # -- generic conveniences built on the abstract core -------------------

    @property
    def dictionary(self):
        """The term dictionary (id-space evaluation and white-box tests)."""
        return self._dictionary

    def encode_pattern(self, subject, predicate, object):
        """Encode bound pattern positions; returns None if a bound term is unknown.

        ``None`` positions stay ``None`` (wildcards).  A ``None`` return means
        the pattern cannot match anything in this store — callers short-circuit
        to an empty result without touching a triple.
        """
        encoded = []
        for term in (subject, predicate, object):
            if term is None:
                encoded.append(None)
                continue
            term_id = self._dictionary.lookup(term)
            if term_id is None:
                return None
            encoded.append(term_id)
        return tuple(encoded)

    def triples(self, subject=None, predicate=None, object=None):
        """Yield stored triples matching the wildcard pattern, decoded."""
        encoded = self.encode_pattern(subject, predicate, object)
        if encoded is None:
            return
        decode = self._dictionary.decode
        for s_id, p_id, o_id in self.triples_ids(*encoded):
            yield Triple(decode(s_id), decode(p_id), decode(o_id))

    def load_graph(self, graph):
        """Bulk-load every triple of an iterable/Graph.  Returns count added."""
        return self.add_all(graph)

    def bulk_load(self, triples):
        """Stream an iterable of triples into the store.  Returns count added.

        The sink end of the streaming pipelines (``ntriples.load_into``,
        ``DblpGenerator.generate_into``): the iterable is consumed lazily, so
        no intermediate list or Graph is ever materialized.  The default
        delegates to :meth:`load_graph`; backends with cheaper bulk insert
        paths may override.
        """
        return self.load_graph(triples)

    def contains(self, triple):
        """True if the exact ground triple is stored."""
        return self.count(*triple) > 0

    def count(self, subject=None, predicate=None, object=None):
        """Number of triples matching the pattern."""
        encoded = self.encode_pattern(subject, predicate, object)
        return 0 if encoded is None else self.count_ids(*encoded)

    def count_ids(self, subject=None, predicate=None, object=None):
        """Number of triples matching an encoded pattern.  Backends with
        indexes override this; the default counts by iteration."""
        return sum(1 for _ids in self.triples_ids(subject, predicate, object))

    def save(self, path, metadata=None):
        """Write a snapshot of this store (see :mod:`.snapshot`); either
        family loads it."""
        from .snapshot import save_snapshot

        return save_snapshot(self, path, metadata=metadata)

    @classmethod
    def load(cls, path):
        """Rebuild a store from a snapshot saved by either store family."""
        from .snapshot import load_snapshot

        return load_snapshot(path, cls)

    def seal(self, version):
        """Finish this MVCC draft (``begin_generation``) as generation
        ``version``; returns the store, now ready to publish."""
        self.version = version
        return self

    def __iter__(self):
        return self.triples()

    def __contains__(self, triple):
        return self.contains(triple)
