"""Property-based tests: the indexed store behaves exactly like a linear scan."""

import itertools
import string

import pytest
from hypothesis import given, settings, strategies as st

import recount
from repro.rdf import Literal, Triple, URIRef
from repro.store import IndexedStore, MemoryStore

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
    def test_count_equals_the_recount(self, items, s, p, o):
        indexed = IndexedStore(items)
        assert indexed.count(s, p, o) == recount.count(set(items), s, p, o)


# One step of a generation history: (operation, pick, batch of 1-5 triples).
# Writes go to the open draft, or in place to the newest generation when
# none is open; "add" and "remove" write the batch's first triple, "bulk"
# loads the whole batch with ``load_graph``, "add_all" adds it in one write
# and "remove_all" removes it and every third held triple in one write.
history_steps = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "begin", "publish",
                               "bulk", "add_all", "remove_all"]),
              st.integers(min_value=0, max_value=7),
              st.lists(triples, min_size=1, max_size=5)),
    max_size=60,
)


def _fingerprint(store):
    """The containers a superseded generation must keep, and their contents."""
    if isinstance(store, MemoryStore):
        return [store._triples], [list(store._triples)]
    permutations = store._permutations
    objects = [permutations, *(permutations[order] for order in recount.ORDERS),
               *(column for order in recount.ORDERS for column in permutations[order]),
               store._predicate_stamps]
    contents = [recount.permutations(store), recount.statistics_of(store),
                dict(store._predicate_stamps), store.version]
    return objects, contents


def _assert_permutations_and_counts(store):
    """SPO, OSP, PSO and POS equal a fresh sort of the store's triples, and
    ``count_ids`` of ``(?, p, ?)`` and ``(?, ?, ?)`` (read off PSO's offsets
    and SPO's length) equals the recount."""
    assert recount.permutations(store) == recount.resorted(store)
    ids = list(store.triples_ids())
    assert store.count_ids() == recount.count(ids, None, None, None)
    for predicate in {triple[1] for triple in ids}:
        assert store.count_ids(None, predicate, None) == recount.count(
            ids, None, predicate, None)
    assert store.distinct_predicates() == len({triple[1] for triple in ids})


def _assert_every_shape(store):
    """``triples_ids``/``count_ids`` on all eight binding shapes equal a
    filter over the store's own triples.

    The constants are each triple's own components, the same triple with
    one component swapped for an id no term has, and that id alone.
    """
    ids = list(store.triples_ids())
    unknown = len(store.dictionary)
    probes = {(unknown,) * 3}
    for index, triple in enumerate(ids):
        probes.add(triple)
        probes.add(tuple(unknown if position == index % 3 else component
                         for position, component in enumerate(triple)))
    for probe in probes:
        for mask in itertools.product((False, True), repeat=3):
            pattern = tuple(c if bound else None for c, bound in zip(probe, mask))
            expected = sorted(triple for triple in ids if all(
                c is None or c == component
                for c, component in zip(pattern, triple)))
            assert sorted(store.triples_ids(*pattern)) == expected, pattern
            assert store.count_ids(*pattern) == len(expected), pattern


def _assert_exact(store, expected):
    """``store`` holds ``expected``; an indexed one answers every pattern
    shape from its own triples, and every statistic and permutation
    recounts."""
    assert set(store.triples()) == expected
    assert len(store) == len(expected)
    if isinstance(store, IndexedStore):
        _assert_every_shape(store)
        assert recount.statistics_of(store) == recount.recount(store)
        _assert_permutations_and_counts(store)


class TestGenerationHistories:
    """Drafts are stores: every generation stays exact on every pattern
    shape and its permutations stay fresh sorts after every step, and a
    superseded one keeps its very columns, permutations and counts
    (identity, not equality)."""

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    @given(steps=history_steps)
    @settings(max_examples=150, deadline=None)
    def test_generations_recount_and_stay_frozen(self, family, steps):
        current, held = family(), set()
        draft = draft_held = base_print = None
        superseded = []
        for operation, pick, batch in steps:
            target, expected = ((current, held) if draft is None
                                else (draft, draft_held))
            triple = batch[0]
            if operation == "add":
                assert target.add(triple) is (triple not in expected)
                expected.add(triple)
            elif operation == "remove":
                if expected and pick % 2:
                    triple = sorted(expected, key=str)[pick % len(expected)]
                assert target.remove(triple) is (triple in expected)
                expected.discard(triple)
            elif operation == "bulk":
                assert target.load_graph(batch) == len(set(batch) - expected)
                expected.update(batch)
            elif operation == "add_all":
                assert target.add_all(batch) == len(set(batch) - expected)
                expected.update(batch)
            elif operation == "remove_all":
                doomed = batch + sorted(expected, key=str)[pick % 3::3]
                assert target.remove_all(doomed) == len(set(doomed) & expected)
                expected.difference_update(doomed)
            elif operation == "begin" and draft is None:
                base_print = _fingerprint(current)
                draft, draft_held = current.begin_generation(), set(held)
                assert type(draft) is family
            elif operation == "publish" and draft is not None:
                superseded.append((current, held, base_print))
                current = draft.seal(current.version + 1)
                held, draft = draft_held, None
            if family is IndexedStore:
                _assert_permutations_and_counts(current)
                if draft is not None:
                    _assert_permutations_and_counts(draft)
        for store, expected, (objects, contents) in superseded:
            _assert_exact(store, expected)
            # Every permutation and column present at supersession is still
            # there, unchanged, and so are its counts.
            now_objects, now_contents = _fingerprint(store)
            assert len(now_objects) == len(objects)
            assert all(now is then for now, then in zip(now_objects, objects))
            assert now_contents == contents
        _assert_exact(current, held)
        if draft is not None:
            _assert_exact(draft, draft_held)
