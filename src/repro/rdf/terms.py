"""RDF term types: URIs, blank nodes, literals, and query variables.

The SP2Bench data model (Section IV of the paper) uses all three RDF node
types: URIs for documents, venues, and the fixed Paul Erdoes person; blank
nodes for persons and ``rdf:Bag`` reference lists; and literals (plain and
XSD-typed) for attribute values.  Query variables are included here because
triple patterns share the triple representation with ground triples.

Terms are immutable value objects.  They order and hash by their lexical
identity so they can be used as dictionary keys in stores and as sort keys in
``ORDER BY`` evaluation.
"""

from __future__ import annotations

import math

from .errors import TermError

#: XSD datatype URIs understood by the literal value machinery.
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_DOUBLE = "http://www.w3.org/2001/XMLSchema#double"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
XSD_GYEAR = "http://www.w3.org/2001/XMLSchema#gYear"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_GYEAR})


class Term:
    """Common base class for all RDF terms (and variables)."""

    __slots__ = ()

    #: Sort rank used for total ordering across term kinds (SPARQL ORDER BY
    #: orders blank nodes before URIs before literals).
    _order_rank = 0

    def n3(self):
        """Return the N-Triples / SPARQL surface form of this term."""
        raise NotImplementedError

    def sort_key(self):
        """Key establishing a deterministic total order over terms."""
        return (self._order_rank, str(self))

    def is_ground(self):
        """True for concrete RDF terms, False for query variables."""
        return True


class URIRef(Term):
    """A URI reference identifying a resource."""

    __slots__ = ("value",)
    _order_rank = 2

    def __init__(self, value):
        if not isinstance(value, str) or not value:
            raise TermError(f"URIRef requires a non-empty string, got {value!r}")
        if any(ch in value for ch in "<> \n\t"):
            raise TermError(f"URIRef contains forbidden characters: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"URIRef is immutable (tried to set {name})")

    def n3(self):
        return f"<{self.value}>"

    def __str__(self):
        return self.value

    def __repr__(self):
        return f"URIRef({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, URIRef) and other.value == self.value

    def __hash__(self):
        return hash((URIRef, self.value))


class BNode(Term):
    """A blank node, identified by a document-scoped label."""

    __slots__ = ("label",)
    _order_rank = 1

    def __init__(self, label):
        if not isinstance(label, str) or not label:
            raise TermError(f"BNode requires a non-empty label, got {label!r}")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, _value):
        raise AttributeError(f"BNode is immutable (tried to set {name})")

    def n3(self):
        return f"_:{self.label}"

    def __str__(self):
        return f"_:{self.label}"

    def __repr__(self):
        return f"BNode({self.label!r})"

    def __eq__(self, other):
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self):
        return hash((BNode, self.label))


class Literal(Term):
    """An RDF literal with an optional datatype and language tag.

    Numeric XSD datatypes expose a parsed Python value through
    :meth:`to_python`, which FILTER expression evaluation and ORDER BY use for
    value-based comparison (e.g. ``?yr2 < ?yr`` in Q6 compares years
    numerically).

    An absent datatype or language tag is ``None`` and nothing else: RDF has
    no empty language tag, so the constructor maps ``""`` to ``None`` and
    every encoder (``n3()`` here, the result serializers) tests
    ``is not None``.
    """

    __slots__ = ("lexical", "datatype", "language")
    _order_rank = 3

    def __init__(self, lexical, datatype=None, language=None):
        if isinstance(lexical, bool):
            datatype = datatype or XSD_BOOLEAN
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            datatype = datatype or XSD_INTEGER
            lexical = str(lexical)
        elif isinstance(lexical, float):
            datatype = datatype or XSD_DOUBLE
            lexical = repr(lexical)
        elif not isinstance(lexical, str):
            raise TermError(f"Literal lexical form must be a string, got {lexical!r}")
        if isinstance(datatype, URIRef):
            datatype = datatype.value
        datatype = datatype or None
        language = language or None
        if datatype is not None and language is not None:
            raise TermError("a literal cannot carry both a datatype and a language tag")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Literal is immutable (tried to set {name})")

    def to_python(self):
        """Return the typed Python value for this literal.

        Plain and ``xsd:string`` literals map to ``str``; numeric datatypes to
        ``int``/``float``; booleans to ``bool``.  Malformed numeric lexical
        forms fall back to the lexical string.
        """
        if self.datatype in (XSD_INTEGER, XSD_GYEAR):
            try:
                return int(self.lexical)
            except ValueError:
                return self.lexical
        if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
            try:
                return float(self.lexical)
            except ValueError:
                return self.lexical
        if self.datatype == XSD_BOOLEAN:
            return self.lexical.strip().lower() in ("true", "1")
        return self.lexical

    def is_numeric(self):
        """True if the literal carries a numeric XSD datatype."""
        return self.datatype in _NUMERIC_DATATYPES

    def n3(self):
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        if self.datatype is not None:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def sort_key(self):
        value = self.to_python()
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            # Numbers order before strings, among themselves by value, with
            # NaN (unordered as a float) first.
            number = as_float(value)
            if number != number:
                return (self._order_rank, 0, 0, 0.0, self.lexical)
            return (self._order_rank, 0, 1, number, self.lexical)
        return (self._order_rank, 1, str(value), self.lexical)

    def __str__(self):
        return self.lexical

    def __repr__(self):
        return f"Literal({self.lexical!r}, datatype={self.datatype!r}, language={self.language!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self):
        return hash((Literal, self.lexical, self.datatype, self.language))


class Variable(Term):
    """A SPARQL query variable (``?name``)."""

    __slots__ = ("name",)
    _order_rank = 4

    def __init__(self, name):
        if not isinstance(name, str) or not name:
            raise TermError(f"Variable requires a non-empty name, got {name!r}")
        name = name.lstrip("?$")
        if not name:
            raise TermError("Variable name must contain characters besides '?'/'$'")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Variable is immutable (tried to set {name})")

    def n3(self):
        return f"?{self.name}"

    def is_ground(self):
        return False

    def __str__(self):
        return f"?{self.name}"

    def __repr__(self):
        return f"Variable({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self):
        return hash((Variable, self.name))


def as_float(number):
    """An int or float as a float; an integer past float range is infinite,
    as ``"1e400"^^xsd:double`` parses, where ``float()`` would raise."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def term_sort_key(term):
    """Module-level helper: deterministic sort key for any term (or None)."""
    if term is None:
        return (-1, "")
    return term.sort_key()
