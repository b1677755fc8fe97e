"""The Triple value object shared by graphs, stores, and query patterns."""

from __future__ import annotations

from .errors import TermError
from .terms import BNode, Literal, Term, URIRef, Variable


def _check_position(position, value, allowed):
    if not isinstance(value, Term) or not isinstance(value, allowed):
        names = "/".join(cls.__name__ for cls in allowed)
        raise TermError(
            f"triple {position} must be one of {names}, got {type(value).__name__}: {value!r}"
        )


class Triple:
    """An RDF triple ``(subject, predicate, object)``.

    A triple is *ground* when none of its components is a :class:`Variable`;
    ground triples are what graphs and stores hold, while non-ground triples
    serve as the triple patterns of SPARQL basic graph patterns.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject, predicate, object):
        _check_position("subject", subject, (URIRef, BNode, Variable))
        _check_position("predicate", predicate, (URIRef, Variable))
        _check_position("object", object, (URIRef, BNode, Literal, Variable))
        assign = super().__setattr__
        assign("subject", subject)
        assign("predicate", predicate)
        assign("object", object)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Triple is immutable (tried to set {name})")

    def is_ground(self):
        """True when the triple contains no variables."""
        return (
            self.subject.is_ground()
            and self.predicate.is_ground()
            and self.object.is_ground()
        )

    def variables(self):
        """Return the set of variables appearing in this triple."""
        return {
            component
            for component in (self.subject, self.predicate, self.object)
            if isinstance(component, Variable)
        }

    def as_tuple(self):
        return (self.subject, self.predicate, self.object)

    def n3(self):
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __iter__(self):
        return iter(self.as_tuple())

    def __getitem__(self, index):
        return self.as_tuple()[index]

    def __len__(self):
        return 3

    def __eq__(self, other):
        return isinstance(other, Triple) and other.as_tuple() == self.as_tuple()

    def __hash__(self):
        return hash((Triple, self.subject, self.predicate, self.object))

    def __repr__(self):
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"
