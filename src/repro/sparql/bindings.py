"""Solution mappings ("bindings") and their compatibility semantics.

A solution mapping binds query variables to RDF terms.  Two mappings are
*compatible* when they agree on every variable bound in both; joining
compatible mappings merges them.  This is the core of SPARQL's AND (join),
OPTIONAL (left outer join), and UNION semantics as formalised by
Perez/Arenas/Gutierrez, which the paper builds its query design on.
"""

from __future__ import annotations

from ..rdf.terms import Variable


class Binding:
    """An immutable solution mapping from variable names to terms."""

    __slots__ = ("_map", "_hash")

    #: Eager rows have no per-result shape; the lazy id rows of
    #: :mod:`.idspace` override this with the layout their result shares.
    _shape = None

    def __init__(self, mapping=None):
        normalized = {}
        if mapping:
            for key, value in mapping.items():
                normalized[_name(key)] = value
        object.__setattr__(self, "_map", normalized)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, _value):
        raise AttributeError(f"Binding is immutable (tried to set {name})")

    # -- access -------------------------------------------------------------

    def get(self, variable, default=None):
        """Return the term bound to ``variable`` (Variable or name), if any."""
        return self._map.get(_name(variable), default)

    def is_bound(self, variable):
        """True if ``variable`` has a binding in this mapping."""
        return _name(variable) in self._map

    def variables(self):
        """The set of bound variable names."""
        return set(self._map)

    def items(self):
        return self._map.items()

    def as_dict(self):
        """A plain dict copy of the mapping (variable name -> term)."""
        return dict(self._map)

    def row(self, names):
        """The terms bound to ``names`` (bare names, already normalized), in
        order, ``None`` where unbound — the per-row half of a projection
        whose names were normalized once per result."""
        return tuple(map(self._map.get, names))

    def project(self, variables):
        """Return a new Binding restricted to the given variables."""
        names = [_name(v) for v in variables]
        return Binding({name: self._map[name] for name in names if name in self._map})

    # -- algebra ------------------------------------------------------------

    def compatible(self, other):
        """True when the two mappings agree on all shared variables."""
        mine, theirs = self._map, other._map
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        for name, value in mine.items():
            if name in theirs and theirs[name] != value:
                return False
        return True

    def merge(self, other):
        """Return the union of two compatible mappings."""
        merged = dict(self._map)
        merged.update(other._map)
        return Binding(merged)

    def extend(self, variable, term):
        """Return a new Binding with one additional variable bound."""
        merged = dict(self._map)
        merged[_name(variable)] = term
        return Binding(merged)

    # -- dunder ---------------------------------------------------------------

    def __getitem__(self, variable):
        return self._map[_name(variable)]

    def __contains__(self, variable):
        return self.is_bound(variable)

    def __len__(self):
        return len(self._map)

    def __eq__(self, other):
        return isinstance(other, Binding) and other._map == self._map

    def __hash__(self):
        # Bindings are immutable, so the (fairly expensive) frozenset hash is
        # computed once on first use — DISTINCT and hash joins hash the same
        # binding many times.
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._map.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        inner = ", ".join(f"?{k}={v}" for k, v in sorted(self._map.items()))
        return f"Binding({inner})"


#: The empty solution mapping (identity element of the join).
EMPTY_BINDING = Binding()


def variable_name(variable):
    """Normalize a Variable (or "?name"/"name" string) to its bare name.

    The single normalization rule shared by results, cursors, and the
    serializers, so projection headers, row extraction, and solution lookup
    can never disagree about what a variable is called.
    """
    if isinstance(variable, Variable):
        return variable.name
    return str(variable).lstrip("?$")


#: Historical private alias (pre-dates the public helper).
_name = variable_name
