"""Unindexed in-memory triple store (the paper's "in-memory engine" model).

Every triple-pattern lookup is a linear scan over the full document, which is
what makes the in-memory engines of the paper (ARQ, Sesame-memory) scale with
document size even for highly selective queries like Q1 or Q12c.  Terms are
dictionary-encoded as in every store, and the triples live as id 3-tuples in
one insertion-ordered dict used simultaneously as scan sequence and
duplicate-detection set, so ``add``/``remove``/``contains`` are O(1) while the
only *pattern* access path remains the scan: ``triples_ids`` filters every
triple, whatever is bound — no index, no sorted permutations, no statistics.
"""

from __future__ import annotations

from operator import itemgetter

from .base import TripleStore
from .dictionary import TermDictionary


class MemoryStore(TripleStore):
    """A scan-based store answering patterns by iterating all triples."""

    name = "memory"

    def __init__(self, triples=None):
        self._dictionary = TermDictionary()
        # Insertion-ordered dict doubling as ordered sequence and membership set.
        self._triples = {}
        if triples is not None:
            self.load_graph(triples)

    def add_all(self, triples):
        before = len(self._triples)
        try:
            self._triples.update((ids, None) for ids in map(self._dictionary.encode_triple, triples))
        finally:  # on a failing input, the triples before it stay added
            added = len(self._triples) - before
            self.version += added > 0
        return added

    @classmethod
    def _from_snapshot(cls, dictionary, flat):
        """Assemble a store from a snapshot's dictionary and its id triples
        (``flat``: an ``array('I')`` of subject, predicate, object ids)."""
        store = cls()
        store._dictionary = dictionary
        ids = iter(flat)
        store._triples = dict.fromkeys(zip(ids, ids, ids))
        return store

    def remove_all(self, triples):
        """Remove the triples that are present; returns their count."""
        doomed = {ids for ids in (self.encode_pattern(*triple) for triple in triples)
                  if ids in self._triples}
        for ids in doomed:
            del self._triples[ids]
        self.version += bool(doomed)
        return len(doomed)

    def begin_generation(self):
        """Start a draft of this store's next MVCC generation.

        The draft is a ``MemoryStore`` sharing the term dictionary
        (append-only, so ids stay valid across generations) with a copy of
        the triple dict — one C-level ``dict.copy``, O(n) with a very small
        constant, matching the store's own cost model.
        """
        draft = MemoryStore()
        draft._dictionary = self._dictionary
        draft._triples = self._triples.copy()
        draft.version = self.version
        return draft

    def triples_ids(self, subject=None, predicate=None, object=None):
        """The stored id 3-tuples matching an encoded pattern: one linear
        pass over every triple of the document."""
        bound = [(position, term_id) for position, term_id
                 in enumerate((subject, predicate, object)) if term_id is not None]
        if not bound:
            return iter(self._triples)
        positions, wanted = zip(*bound)
        key = itemgetter(*positions)
        if len(wanted) == 1:
            wanted = wanted[0]
        return (ids for ids in self._triples if key(ids) == wanted)

    def contains(self, triple):
        return self.encode_pattern(*triple) in self._triples

    def __len__(self):
        return len(self._triples)

    def __repr__(self):
        return f"MemoryStore(len={len(self)})"
