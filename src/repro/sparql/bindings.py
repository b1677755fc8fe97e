"""Solution mappings ("bindings"): variable names bound to RDF terms.

:class:`Binding` is the result-row container: rows of eager results and
hand-built results, and the base of the executor's lazy id rows
(:class:`~repro.sparql.idspace.IdBinding`), so every consumer reads one
interface (``get`` / ``items`` / ``row`` / equality and hashing by mapping).
Joins happen on id rows inside the executor, never on Bindings.
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
        # computed once on first use — consumers that set or key result rows
        # hash the same binding many times.
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._map.items()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        inner = ", ".join(f"?{k}={v}" for k, v in sorted(self._map.items()))
        return f"Binding({inner})"


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
