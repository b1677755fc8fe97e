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


# One step of a generation history: (operation, pick, triple).  Writes go to
# the open draft, or in place to the newest generation when none is open;
# "runs" builds a sorted run there, so later drafts inherit it.
history_steps = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "begin", "publish",
                               "runs"]),
              st.integers(min_value=0, max_value=7), triples),
    max_size=60,
)


def _fingerprint(store, run_keys=None):
    """The containers a superseded generation must keep, and their contents.

    Statistics build runs lazily, so a generation may gain runs after it is
    superseded; only the runs named by ``run_keys`` (default: every run it
    has now) are fingerprinted.  The third item is the keys of those runs.
    """
    if isinstance(store, MemoryStore):
        return [store._triples], [list(store._triples)], None
    objects, contents = [], []
    for index in (store._by_s, store._by_p, store._by_o):
        objects += [index, *index.values()]
        contents.append({key: frozenset(bucket) for key, bucket in index.items()})
    runs = store._sorted_runs
    if run_keys is None:
        run_keys = sorted(runs)
    held = [runs[key] for key in run_keys]
    objects += [runs, *held, store._predicate_stamps]
    contents += [
        [(run.keys.tolist(), run.values.tolist()) for run in held],
        dict(store._predicate_stamps), store.version,
    ]
    return objects, contents, run_keys


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
    shape from its own triples, and every statistic and run recounts."""
    assert set(store.triples()) == expected
    assert len(store) == len(expected)
    if isinstance(store, IndexedStore):
        _assert_every_shape(store)
        assert recount.statistics_of(store) == recount.recount(store)
        for (predicate_id, order), run in store._sorted_runs.items():
            pairs = sorted((s, o) if order == "s" else (o, s)
                           for s, p, o in store.triples_ids() if p == predicate_id)
            assert list(zip(run.keys, run.values)) == pairs


class TestGenerationHistories:
    """Drafts are stores: every generation stays exact on every pattern
    shape, and a superseded one keeps its very buckets and runs (identity,
    not equality)."""

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    @given(steps=history_steps)
    @settings(max_examples=150, deadline=None)
    def test_generations_recount_and_stay_frozen(self, family, steps):
        current, held = family(), set()
        draft = draft_held = base_print = None
        superseded = []
        for operation, pick, triple in steps:
            target, expected = ((current, held) if draft is None
                                else (draft, draft_held))
            if operation == "add":
                assert target.add(triple) is (triple not in expected)
                expected.add(triple)
            elif operation == "remove":
                if expected and pick % 2:
                    triple = sorted(expected, key=str)[pick % len(expected)]
                assert target.remove(triple) is (triple in expected)
                expected.discard(triple)
            elif operation == "runs" and family is IndexedStore:
                predicate_id = target.dictionary.lookup(triple.predicate)
                if predicate_id is not None:
                    target.sorted_run(predicate_id, "so"[pick % 2])
            elif operation == "begin" and draft is None:
                base_print = _fingerprint(current)
                draft, draft_held = current.begin_generation(), set(held)
                assert type(draft) is family
            elif operation == "publish" and draft is not None:
                superseded.append((current, held, base_print))
                current = draft.seal(current.version + 1)
                held, draft = draft_held, None
        for store, expected, (objects, contents, run_keys) in superseded:
            _assert_exact(store, expected)
            # Every run present at supersession is still there, unchanged;
            # a run built since (by the statistics above) must equal a
            # fresh sort of this generation's triples, which
            # _assert_exact checks.
            now_objects, now_contents, _keys = _fingerprint(store, run_keys)
            assert len(now_objects) == len(objects)
            assert all(now is then for now, then in zip(now_objects, objects))
            assert now_contents == contents
        _assert_exact(current, held)
        if draft is not None:
            _assert_exact(draft, draft_held)
