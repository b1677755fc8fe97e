"""Unit tests for the unindexed MemoryStore."""

import recount
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.store import MemoryStore

EX = "http://example.org/"


def uri(local):
    return URIRef(EX + local)


def sample_triples():
    return [
        Triple(uri("a"), uri("p"), uri("b")),
        Triple(uri("a"), uri("p"), uri("c")),
        Triple(uri("b"), uri("q"), Literal("v")),
    ]


class TestMemoryStore:
    def test_add_and_len(self):
        store = MemoryStore()
        for triple in sample_triples():
            assert store.add(triple) is True
        assert len(store) == 3

    def test_add_duplicate_is_noop(self):
        store = MemoryStore(sample_triples())
        assert store.add(sample_triples()[0]) is False
        assert len(store) == 3

    def test_constructor_loads_iterable(self):
        assert len(MemoryStore(sample_triples())) == 3

    def test_load_graph_returns_added_count(self):
        store = MemoryStore()
        assert store.load_graph(Graph(sample_triples())) == 3

    def test_triples_full_scan(self):
        store = MemoryStore(sample_triples())
        assert len(list(store.triples())) == 3

    def test_triples_by_subject(self):
        store = MemoryStore(sample_triples())
        assert len(list(store.triples(subject=uri("a")))) == 2

    def test_triples_by_predicate_object(self):
        store = MemoryStore(sample_triples())
        matches = list(store.triples(predicate=uri("q"), object=Literal("v")))
        assert matches == [sample_triples()[2]]

    def test_contains(self):
        store = MemoryStore(sample_triples())
        assert store.contains(sample_triples()[0])
        assert sample_triples()[0] in store
        assert Triple(uri("x"), uri("p"), uri("b")) not in store

    def test_count_matches_pattern(self):
        store = MemoryStore(sample_triples())
        assert store.count(subject=uri("a")) == 2
        assert store.count() == 3

    def test_count_equals_the_recount(self):
        store = MemoryStore(sample_triples())
        triples = recount.decoded_triples(store)
        for pattern in ((uri("a"), None, None), (None, uri("p"), uri("c")),
                        (None, uri("q"), None), (uri("z"), None, None)):
            assert store.count(*pattern) == recount.count(triples, *pattern)

    def test_remove(self):
        store = MemoryStore(sample_triples())
        assert store.remove(sample_triples()[0]) is True
        assert store.remove(sample_triples()[0]) is False
        assert len(store) == 2

    def test_remove_preserves_scan_order(self):
        store = MemoryStore(sample_triples())
        store.remove(sample_triples()[1])
        assert list(store) == [sample_triples()[0], sample_triples()[2]]

    def test_remove_absent_triple_is_noop(self):
        store = MemoryStore(sample_triples())
        assert store.remove(Triple(uri("z"), uri("p"), uri("b"))) is False
        assert len(store) == 3

    def test_iteration(self):
        store = MemoryStore(sample_triples())
        assert list(store) == sample_triples()

    def test_triples_ids_is_a_filter_over_every_triple(self):
        store = MemoryStore(sample_triples())
        encoded = store.encode_pattern(uri("a"), None, None)
        decode = store.dictionary.decode
        found = [tuple(map(decode, ids)) for ids in store.triples_ids(*encoded)]
        assert found == [triple.as_tuple() for triple in sample_triples()[:2]]
        assert list(store.triples_ids(*store.encode_pattern(None, uri("q"), uri("b")))) == []
        assert len(list(store.triples_ids())) == 3
        assert store.encode_pattern(uri("nowhere"), None, None) is None

    def test_the_scan_store_has_no_permutations_or_statistics(self):
        store = MemoryStore(sample_triples())
        for attribute in ("supports_permutations", "permutation", "statistics"):
            assert not hasattr(store, attribute)

    def test_generation_draft_is_a_store_sharing_the_dictionary(self):
        store = MemoryStore(sample_triples())
        draft = store.begin_generation()
        assert isinstance(draft, MemoryStore)
        assert draft.add(Triple(uri("n"), uri("p"), uri("b"))) is True
        assert draft.remove(sample_triples()[0]) is True
        assert draft.add(sample_triples()[1]) is False
        published = draft.seal(store.version + 1)
        assert published is draft
        assert published.version == store.version + 1
        assert published.dictionary is store.dictionary
        assert list(store) == sample_triples()
        assert list(published) == sample_triples()[1:] + [Triple(uri("n"), uri("p"), uri("b"))]
