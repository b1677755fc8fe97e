"""Property-based tests (hypothesis) for the RDF substrate."""

import string
from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.rdf import (
    XSD_DOUBLE,
    BNode,
    Graph,
    Literal,
    Triple,
    URIRef,
    parse_graph,
    serialize,
    term_sort_key,
)

# -- strategies -------------------------------------------------------------------

_uri_local = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=12)
uris = _uri_local.map(lambda local: URIRef("http://example.org/" + local))
bnodes = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=10).map(BNode)

_literal_text = st.text(
    alphabet=string.ascii_letters + string.digits + ' .,:;!?"\'\\\n\t-_()[]',
    max_size=40,
)
plain_literals = _literal_text.map(Literal)
typed_literals = st.integers(min_value=-10_000, max_value=10_000).map(Literal)
language_literals = st.tuples(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    st.sampled_from(["en", "de", "fr"]),
).map(lambda pair: Literal(pair[0], language=pair[1]))
literals = st.one_of(plain_literals, typed_literals, language_literals)
numeric_literals = st.one_of(
    typed_literals,
    st.floats().map(Literal),
    st.just(Literal("NaN", datatype=XSD_DOUBLE)),
)

subjects = st.one_of(uris, bnodes)
objects = st.one_of(uris, bnodes, literals)
triples = st.builds(Triple, subjects, uris, objects)
triple_lists = st.lists(triples, max_size=30)


class TestNTriplesRoundTrip:
    @given(triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_roundtrip(self, items):
        graph = Graph(items)
        assert parse_graph(serialize(graph)) == graph

    @given(triples)
    @settings(max_examples=100, deadline=None)
    def test_single_triple_roundtrip_preserves_terms(self, triple):
        parsed = list(parse_graph(serialize([triple])))
        assert parsed == [triple]


class TestGraphProperties:
    @given(triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_length_equals_number_of_distinct_triples(self, items):
        assert len(Graph(items)) == len(set(items))

    @given(triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_every_added_triple_is_found_by_exact_match(self, items):
        graph = Graph(items)
        for triple in items:
            matches = list(graph.triples(triple.subject, triple.predicate, triple.object))
            assert triple in matches

    @given(triple_lists, triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_union_is_commutative(self, left, right):
        assert Graph(left).union(Graph(right)) == Graph(right).union(Graph(left))

    @given(triple_lists, triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_difference_and_intersection_partition_the_graph(self, left, right):
        graph_left, graph_right = Graph(left), Graph(right)
        inter = graph_left.intersection(graph_right)
        diff = graph_left.difference(graph_right)
        assert len(inter) + len(diff) == len(graph_left)
        assert inter.union(diff) == graph_left


class TestTermOrdering:
    @given(st.lists(objects, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sort_key_defines_total_order(self, terms):
        keys = [term.sort_key() for term in terms]
        assert sorted(keys) == sorted(sorted(keys))

    @given(st.lists(st.one_of(plain_literals, numeric_literals), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_every_permutation_sorts_to_one_sequence(self, terms):
        # NaN included: a float NaN inside a key is unordered, so the sorted
        # result would depend on the input order.
        expected = sorted(terms, key=term_sort_key)
        for permutation in permutations(terms):
            assert sorted(permutation, key=term_sort_key) == expected

    @given(objects, objects)
    @settings(max_examples=100, deadline=None)
    def test_equal_terms_have_equal_sort_keys(self, left, right):
        if left == right:
            assert left.sort_key() == right.sort_key()
