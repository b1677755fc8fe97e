"""Dictionary encoding of RDF terms to dense integer identifiers.

Native RDF stores (the paper cites Sesame's native SAIL and Virtuoso)
dictionary-encode terms so that index entries are small fixed-size integers.
:class:`TermDictionary` provides the same service for every store, and its
ids are the join currency of the SPARQL executor
(:mod:`repro.sparql.idspace`): the mapping is injective, so id equality is
term equality inside join loops, and ``decode`` is deferred to the result
boundary (memoized per id by each evaluation).  Ids are stable for the
lifetime of the store — removals never recycle them — which is what makes
that memoization safe.  Identifiers are assigned in first-seen order, which
keeps encoding deterministic for a deterministic input stream — a property
the round-trip and determinism tests rely on.
"""

from __future__ import annotations


class TermDictionary:
    """A bidirectional term <-> integer id mapping."""

    def __init__(self):
        self._term_to_id = {}
        self._id_to_term = []

    @classmethod
    def from_terms(cls, terms):
        """Bulk-construct a dictionary whose ids are the positions of ``terms``.

        The snapshot loader uses this to rebuild a dictionary in two C-level
        passes instead of re-encoding term by term; ``terms`` must be free of
        duplicates (it is the serialized ``_id_to_term`` list).
        """
        dictionary = cls()
        dictionary._id_to_term = list(terms)
        dictionary._term_to_id = {
            term: term_id for term_id, term in enumerate(dictionary._id_to_term)
        }
        return dictionary

    def encode(self, term):
        """Return the id for ``term``, assigning a fresh one if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def encode_triple(self, triple):
        """The id 3-tuple of a ground triple, assigning ids to unseen terms."""
        encode = self.encode
        return (encode(triple.subject), encode(triple.predicate),
                encode(triple.object))

    def lookup(self, term):
        """Return the id for ``term`` or None if the term was never encoded."""
        return self._term_to_id.get(term)

    def decode(self, term_id):
        """Return the term for a previously assigned id."""
        return self._id_to_term[term_id]

    def __contains__(self, term):
        return term in self._term_to_id

    def __len__(self):
        return len(self._id_to_term)

    def __repr__(self):
        return f"TermDictionary(len={len(self)})"
