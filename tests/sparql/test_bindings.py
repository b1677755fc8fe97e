"""Unit tests for solution mappings (Binding)."""

import pytest

from repro.rdf import Literal, URIRef, Variable
from repro.sparql import Binding

A = URIRef("http://example.org/a")
B = URIRef("http://example.org/b")


class TestAccess:
    def test_get_by_name_and_variable(self):
        binding = Binding({"x": A})
        assert binding.get("x") == A
        assert binding.get(Variable("x")) == A
        assert binding.get("?x") == A

    def test_get_missing_returns_default(self):
        assert Binding().get("x") is None
        assert Binding().get("x", B) == B

    def test_is_bound_and_contains(self):
        binding = Binding({"x": A})
        assert binding.is_bound("x")
        assert Variable("x") in binding
        assert "y" not in binding

    def test_variables_and_items(self):
        binding = Binding({"x": A, "y": B})
        assert binding.variables() == {"x", "y"}
        assert dict(binding.items()) == {"x": A, "y": B}

    def test_getitem_raises_for_missing(self):
        with pytest.raises(KeyError):
            Binding()["x"]

    def test_immutable(self):
        binding = Binding({"x": A})
        with pytest.raises(AttributeError):
            binding.extra = 1

    def test_variable_keys_normalised(self):
        binding = Binding({Variable("x"): A})
        assert binding.get("x") == A


class TestEqualityAndHashing:
    def test_equality(self):
        assert Binding({"x": A}) == Binding({"x": A})
        assert Binding({"x": A}) != Binding({"x": B})

    def test_hash_consistency(self):
        assert hash(Binding({"x": A})) == hash(Binding({"x": A}))

    def test_usable_in_sets(self):
        solutions = {Binding({"x": A}), Binding({"x": A}), Binding({"x": B})}
        assert len(solutions) == 2

    def test_hash_is_computed_once_and_cached(self):
        binding = Binding({"x": A})
        first = hash(binding)
        # The cached value is stored on the instance and reused afterwards.
        assert object.__getattribute__(binding, "_hash") == first
        assert hash(binding) == first

    def test_cached_hash_matches_fresh_equal_binding(self):
        binding = Binding({"x": A, "y": B})
        hash(binding)
        assert hash(binding) == hash(Binding({"y": B, "x": A}))

    def test_len(self):
        assert len(Binding({"x": A, "y": Literal("v")})) == 2
        assert len(Binding()) == 0
