"""Eager query-result containers: the materialized view of a cursor.

Since the prepared/streaming redesign the primary result surface is the
cursor protocol (:mod:`.cursor`): ``engine.prepare(text).run()`` hands back
a lazy, iterate-once :class:`~repro.sparql.cursor.SelectCursor` or
:class:`~repro.sparql.cursor.AskCursor`.  The classes below are what
``cursor.all()`` (and the compatible eager shorthand ``engine.query()``)
materialize into: random access, ``len()``, and the order-insensitive
multiset ``__eq__`` that the cross-engine agreement tests and benchmarks
compare with.  They share the cursor's serialization surface, so eager and
streaming results emit byte-identical W3C SPARQL-results documents.
"""

from __future__ import annotations

from .bindings import variable_name
from . import serializers


class SelectResult:
    """The result of a SELECT query: an ordered sequence of solution mappings."""

    form = "SELECT"

    def __init__(self, variables, bindings):
        self.variables = list(variables)
        self.bindings = list(bindings)

    def __len__(self):
        return len(self.bindings)

    def __iter__(self):
        return iter(self.bindings)

    def __getitem__(self, index):
        return self.bindings[index]

    def __bool__(self):
        return bool(self.bindings)

    def first(self):
        """The first solution mapping, or None when the result is empty."""
        return self.bindings[0] if self.bindings else None

    def rows(self):
        """Result rows as tuples following the projection variable order."""
        names = [variable_name(v) for v in self.variables]
        return [binding.row(names) for binding in self.bindings]

    def column(self, variable):
        """All values of one projection variable, in row order."""
        names = (variable_name(variable),)
        return [binding.row(names)[0] for binding in self.bindings]

    def as_multiset(self):
        """The result as a multiset of frozen mappings (order-insensitive compare)."""
        counts = {}
        for binding in self.bindings:
            key = frozenset(binding.items())
            counts[key] = counts.get(key, 0) + 1
        return counts

    def serialize(self, format="json"):
        """The result as one W3C SPARQL-results document (json/xml/csv/tsv)."""
        return serializers.serialize(self.variables, self.bindings, format)

    def write(self, fp, format="json"):
        """Serialize the result to a file object; returns rows written."""
        return serializers.write(fp, self.variables, self.bindings, format)

    def __eq__(self, other):
        if not isinstance(other, SelectResult):
            return NotImplemented
        return self.as_multiset() == other.as_multiset()

    def __repr__(self):
        return f"SelectResult(rows={len(self.bindings)}, vars={[str(v) for v in self.variables]})"


class AskResult:
    """The result of an ASK query: a boolean."""

    form = "ASK"

    def __init__(self, value):
        self.value = bool(value)

    def __bool__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, AskResult):
            return self.value == other.value
        if isinstance(other, bool):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((AskResult, self.value))

    def __len__(self):
        # Mirrors the paper's result-size tables where ASK answers count as one row.
        return 1

    def serialize(self, format="json"):
        """The answer as one W3C SPARQL-results document (json/xml/csv/tsv)."""
        return serializers.serialize((), self, format)

    def write(self, fp, format="json"):
        return serializers.write(fp, (), self, format)

    def __repr__(self):
        return f"AskResult({self.value})"
