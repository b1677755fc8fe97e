"""Property-based tests: the indexed store behaves exactly like a linear scan."""

import string

from hypothesis import given, settings, strategies as st

from repro.rdf import Literal, Triple, URIRef
from repro.store import IndexedStore, MemoryStore, StoreStatistics

# A deliberately small term universe so patterns frequently match.
_locals = st.sampled_from(list(string.ascii_lowercase[:6]))
uris = _locals.map(lambda local: URIRef("http://t/" + local))
literals = st.integers(min_value=0, max_value=5).map(Literal)
triples = st.builds(Triple, uris, uris, st.one_of(uris, literals))
triple_lists = st.lists(triples, max_size=60)

maybe_uri = st.one_of(st.none(), uris)
maybe_object = st.one_of(st.none(), uris, literals)


class TestIndexEquivalence:
    @given(triple_lists, maybe_uri, maybe_uri, maybe_object)
    @settings(max_examples=120, deadline=None)
    def test_indexed_matches_scan_for_any_pattern(self, items, s, p, o):
        scan = MemoryStore(items)
        indexed = IndexedStore(items)
        assert set(indexed.triples(s, p, o)) == set(scan.triples(s, p, o))

    @given(triple_lists, maybe_uri, maybe_uri, maybe_object)
    @settings(max_examples=120, deadline=None)
    def test_count_matches_scan(self, items, s, p, o):
        scan = MemoryStore(items)
        indexed = IndexedStore(items)
        assert indexed.count(s, p, o) == scan.count(s, p, o)

    @given(triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_length_equals_distinct_triples(self, items):
        assert len(IndexedStore(items)) == len(set(items))

    @given(triple_lists, triples)
    @settings(max_examples=80, deadline=None)
    def test_contains_agrees_with_membership(self, items, probe):
        indexed = IndexedStore(items)
        assert indexed.contains(probe) == (probe in set(items))

    @given(triple_lists)
    @settings(max_examples=50, deadline=None)
    def test_double_load_is_idempotent(self, items):
        indexed = IndexedStore(items)
        added_again = indexed.load_graph(items)
        assert added_again == 0
        assert len(indexed) == len(set(items))

    @given(triple_lists, maybe_uri, maybe_uri, maybe_object)
    @settings(max_examples=80, deadline=None)
    def test_estimate_is_exact_for_indexed_patterns(self, items, s, p, o):
        indexed = IndexedStore(items)
        if s is None and p is None and o is None:
            assert indexed.estimate_count(s, p, o) == len(indexed)
        else:
            assert indexed.estimate_count(s, p, o) == indexed.count(s, p, o)


# One step of a statistics history: (operation, index of the statistics
# object it applies to, a second index — which held triple to forget — and
# the triple to observe).
_indexes = st.integers(min_value=0, max_value=7)
statistics_steps = st.lists(
    st.tuples(st.sampled_from(["observe", "observe", "forget", "copy",
                               "ask"]), _indexes, _indexes, triples),
    max_size=80,
)


def _recomputed(held):
    fresh = StoreStatistics()
    for triple in held:
        fresh.observe(triple)
    return fresh


class TestStatisticsTotals:
    """The O(1) distinct totals and the copy-on-write maps stay exact."""

    @given(statistics_steps)
    @settings(max_examples=200, deadline=None)
    def test_totals_equal_a_from_scratch_recomputation(self, steps):
        # Every live statistics object next to the triple set it describes.
        live = [(StoreStatistics(), set())]
        for operation, first, second, triple in steps:
            statistics, held = live[first % len(live)]
            if operation == "observe" and triple not in held:
                held.add(triple)
                statistics.observe(triple)
            elif operation == "forget" and held:
                triple = sorted(held, key=str)[second % len(held)]
                held.discard(triple)
                statistics.forget(triple)
            elif operation == "copy":
                live.append((statistics.copy(), set(held)))
            elif operation == "ask":
                # Derives the totals now, so later steps maintain them.
                statistics.distinct_subject_total()
                statistics.distinct_object_total()
        for statistics, held in live:
            assert statistics == _recomputed(held)
            assert statistics.distinct_subject_total() == len(
                {triple.subject for triple in held})
            assert statistics.distinct_object_total() == len(
                {triple.object for triple in held})
