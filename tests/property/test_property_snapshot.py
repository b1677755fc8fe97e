"""Property-based tests: snapshots are lossless for any store content."""

import string

from hypothesis import given, settings, strategies as st

import recount
from repro.rdf import BNode, Literal, Triple, URIRef
from repro.store import IndexedStore, MemoryStore, load_snapshot, save_snapshot

# A small universe with every term kind the snapshot format serializes:
# URIs, blank nodes, and plain / typed / language-tagged literals with
# characters that exercise the UTF-8 blob encoding.
_locals = st.sampled_from(list(string.ascii_lowercase[:6]))
uris = _locals.map(lambda local: URIRef("http://t/" + local))
bnodes = _locals.map(lambda local: BNode("b" + local))
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
plain_literals = _texts.map(Literal)
typed_literals = st.integers(min_value=0, max_value=9).map(Literal)
lang_literals = st.tuples(_texts, st.sampled_from(["en", "de"])).map(
    lambda pair: Literal(pair[0], language=pair[1])
)
subjects = st.one_of(uris, bnodes)
objects = st.one_of(uris, bnodes, plain_literals, typed_literals, lang_literals)
triples = st.builds(Triple, subjects, uris, objects)
triple_lists = st.lists(triples, max_size=50)

maybe_uri = st.one_of(st.none(), uris)
maybe_object = st.one_of(st.none(), uris, typed_literals)


class TestIndexedSnapshotRoundTrip:
    @given(items=triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_triple_multiset_identical(self, items, tmp_path_factory):
        store = IndexedStore(items)
        path = tmp_path_factory.mktemp("snap") / "store.sp2b"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert set(loaded.triples()) == set(items)
        assert len(loaded) == len(set(items))

    @given(items=triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_dictionary_ids_stable_and_statistics_equal(self, items, tmp_path_factory):
        store = IndexedStore(items)
        path = tmp_path_factory.mktemp("snap") / "store.sp2b"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        for triple in set(items):
            for term in triple:
                assert loaded.dictionary.lookup(term) == store.dictionary.lookup(term)
        assert recount.statistics_of(loaded) == recount.statistics_of(store)

    @given(items=triple_lists, s=maybe_uri, p=maybe_uri, o=maybe_object)
    @settings(max_examples=40, deadline=None)
    def test_loaded_store_answers_patterns_like_original(
        self, items, s, p, o, tmp_path_factory
    ):
        store = IndexedStore(items)
        path = tmp_path_factory.mktemp("snap") / "store.sp2b"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert set(loaded.triples(s, p, o)) == set(store.triples(s, p, o))
        assert loaded.count(s, p, o) == store.count(s, p, o)

    @given(items=triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_save_load_save_is_stable(self, items, tmp_path_factory):
        # A loaded store must serialize back to an equivalent snapshot
        # (ids, statistics, and indexes all intact after one full cycle).
        root = tmp_path_factory.mktemp("snap")
        store = IndexedStore(items)
        save_snapshot(store, root / "one.sp2b")
        first = load_snapshot(root / "one.sp2b")
        save_snapshot(first, root / "two.sp2b")
        second = load_snapshot(root / "two.sp2b")
        assert set(second.triples()) == set(store.triples())
        assert recount.statistics_of(second) == recount.statistics_of(store)
        # The triples are written sorted: the bytes do not depend on set order.
        assert (root / "one.sp2b").read_bytes() == (root / "two.sp2b").read_bytes()


class TestMemorySnapshotRoundTrip:
    # Both families write the one payload, so the scan store gets the same
    # full-unicode term universe.
    @given(items=triple_lists)
    @settings(max_examples=40, deadline=None)
    def test_triple_set_identical(self, items, tmp_path_factory):
        store = MemoryStore(items)
        path = tmp_path_factory.mktemp("snap") / "store.sp2b"
        save_snapshot(store, path)
        loaded = MemoryStore.load(path)
        assert set(loaded.triples()) == set(items)
        assert list(loaded.triples()) == list(store.triples())

    @given(items=triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_either_family_loads_the_other_familys_file(self, items,
                                                        tmp_path_factory):
        root = tmp_path_factory.mktemp("snap")
        memory, indexed = MemoryStore(items), IndexedStore(items)
        memory.save(root / "memory.sp2b")
        indexed.save(root / "indexed.sp2b")
        as_indexed = IndexedStore.load(root / "memory.sp2b")
        as_memory = MemoryStore.load(root / "indexed.sp2b")
        assert as_indexed.dictionary._id_to_term == memory.dictionary._id_to_term
        assert set(as_indexed.triples_ids()) == set(memory.triples_ids())
        assert recount.statistics_of(as_indexed) == recount.statistics_of(indexed)
        assert as_memory.dictionary._id_to_term == indexed.dictionary._id_to_term
        assert set(as_memory.triples_ids()) == set(indexed.triples_ids())

    @given(items=triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_loaded_permutations_are_fresh_sorts_whoever_saved(self, items,
                                                               tmp_path_factory):
        # The file holds no permutation: a load sorts them from the id triples.
        root = tmp_path_factory.mktemp("snap")
        for family in (MemoryStore, IndexedStore):
            path = root / f"{family.name}.sp2b"
            family(items).save(path)
            loaded = IndexedStore.load(path)
            assert recount.permutations(loaded) == recount.resorted(loaded)
            assert recount.statistics_of(loaded) == recount.recount(loaded)
