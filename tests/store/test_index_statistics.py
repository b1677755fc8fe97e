"""The cost model's statistics are read off the indexed store's sorted
columns (SPO, OSP and the per-predicate runs).

Every value the planner reads — ``count`` on all eight bound/unbound
pattern shapes, distinct subjects/objects per predicate, the two distinct
totals and the distinct-predicate count — is checked against a brute-force
recount over ``triples_ids()`` (``tests/recount.py``).  The check runs on
the three ways an indexed store comes about: built by ``add``, published by
``MvccStore`` after interleaved inserts and deletes, and loaded from a
snapshot.
"""

import itertools

import pytest

import recount
from repro.rdf import BENCH, RDF, Literal, Triple, URIRef
from repro.store import IndexedStore, MvccStore, load_snapshot, read_snapshot

EX = "http://example.org/"
UNKNOWN = URIRef(EX + "unknown")


def uri(local):
    return URIRef(EX + local)


def sample_triples():
    return [
        Triple(uri("a1"), RDF.type, BENCH.Article),
        Triple(uri("a2"), RDF.type, BENCH.Article),
        Triple(uri("p1"), RDF.type, BENCH.Proceedings),
        Triple(uri("a1"), uri("pages"), Literal("1--10")),
        Triple(uri("a2"), uri("pages"), Literal("11--20")),
        Triple(uri("a1"), uri("creator"), uri("alice")),
        Triple(uri("a2"), uri("creator"), uri("alice")),
        Triple(uri("a2"), uri("creator"), uri("bob")),
    ]


def published_generation():
    """A generation ``MvccStore`` published after interleaved writes."""
    store = MvccStore(IndexedStore(sample_triples()))
    with store.write_transaction() as txn:
        txn.remove(Triple(uri("a2"), uri("creator"), uri("bob")))
        txn.insert(Triple(uri("a3"), RDF.type, BENCH.Article))
        txn.insert(Triple(uri("a3"), uri("creator"), uri("carol")))
        txn.remove(Triple(uri("p1"), RDF.type, BENCH.Proceedings))
    with store.write_transaction() as txn:
        txn.remove(Triple(uri("a1"), uri("pages"), Literal("1--10")))
        txn.remove(Triple(uri("a2"), uri("pages"), Literal("11--20")))
        txn.insert(Triple(uri("a3"), uri("pages"), Literal("21--30")))
        txn.insert(Triple(uri("p1"), uri("editor"), uri("alice")))
    store.remove(Triple(uri("a1"), RDF.type, BENCH.Article))
    return read_snapshot(store)


@pytest.fixture(params=["plain", "mvcc", "snapshot"])
def store(request, tmp_path):
    if request.param == "plain":
        return IndexedStore(sample_triples())
    if request.param == "mvcc":
        return published_generation()
    path = tmp_path / "statistics.sp2b"
    published_generation().save(path)
    return load_snapshot(path)


class TestAgainstBruteForce:
    def test_every_statistic_equals_the_recount(self, store):
        assert recount.statistics_of(store) == recount.recount(store)

    def test_count_on_all_eight_shapes(self, store):
        triples = recount.decoded_triples(store)
        subjects = {s for s, _p, _o in triples} | {UNKNOWN, None}
        predicates = {p for _s, p, _o in triples} | {RDF.type, UNKNOWN, None}
        objects = {o for _s, _p, o in triples} | {BENCH.Journal, UNKNOWN, None}
        shapes = set()
        for s, p, o in itertools.product(subjects, predicates, objects):
            expected = recount.count(triples, s, p, o)
            assert store.count(s, p, o) == expected, (s, p, o)
            shapes.add((s is None, p is None, o is None))
        assert len(shapes) == 8

    def test_rdf_type_with_a_class_is_the_class_count(self, store):
        triples = recount.decoded_triples(store)
        for cls in (BENCH.Article, BENCH.Proceedings, BENCH.Journal):
            instances = sum(1 for triple in triples if triple[1:] == (RDF.type, cls))
            assert store.count(None, RDF.type, cls) == instances

    def test_distinct_counts_per_predicate(self, store):
        triples = recount.decoded_triples(store)
        for predicate in {p for _s, p, _o in triples} | {UNKNOWN}:
            matching = [t for t in triples if t[1] == predicate]
            assert store.distinct_subjects(predicate) == len({t[0] for t in matching})
            assert store.distinct_objects(predicate) == len({t[2] for t in matching})

    def test_totals_and_distinct_predicates(self, store):
        triples = recount.decoded_triples(store)
        assert store.distinct_subject_total() == len({t[0] for t in triples})
        assert store.distinct_object_total() == len({t[2] for t in triples})
        assert store.distinct_predicates() == len({t[1] for t in triples})

    def test_distinct_counts_are_the_distinct_keys_of_a_predicates_range(self, store):
        triples = list(store.triples_ids())
        for predicate_id in {p for _s, p, _o in triples}:
            predicate = store.dictionary.decode(predicate_id)
            ranges = {}
            for order in ("pso", "pos"):
                starts, keys, values = store.permutation(order)
                lo, hi = starts[predicate_id], starts[predicate_id + 1]
                ranges[order] = list(zip(keys[lo:hi].tolist(), values[lo:hi].tolist()))
            assert ranges["pso"] == sorted((s, o) for s, p, o in triples if p == predicate_id)
            assert ranges["pos"] == sorted((o, s) for s, p, o in triples if p == predicate_id)
            assert store.distinct_subjects(predicate) == len({s for s, _o in ranges["pso"]})
            assert store.distinct_objects(predicate) == len({o for o, _s in ranges["pos"]})


class TestCounts:
    """Exact counts on the plain store of ``sample_triples``, by hand."""

    @pytest.fixture
    def store(self):
        return IndexedStore(sample_triples())

    def test_bound_predicate_count_is_predicate_count(self, store):
        assert store.count(None, uri("creator"), None) == 3

    def test_unknown_terms_count_zero(self, store):
        assert store.count(None, UNKNOWN, None) == 0
        assert store.count(uri("a1"), UNKNOWN, uri("alice")) == 0
        assert store.count(UNKNOWN, uri("creator"), None) == 0
        assert store.count(None, uri("creator"), UNKNOWN) == 0

    def test_bound_subject_or_object_counts_its_own_triples(self, store):
        # Each constant's own triples, whatever the predicate's average.
        assert store.count(uri("a1"), uri("creator"), None) == 1
        assert store.count(uri("a2"), uri("creator"), None) == 2
        assert store.count(None, uri("creator"), uri("alice")) == 2

    def test_variable_predicate_counts_every_predicate(self, store):
        assert store.count(None, None, None) == 8
        assert store.count(uri("a1"), None, None) == 3
        assert store.count(None, None, uri("alice")) == 2
        assert store.count(uri("a1"), None, uri("alice")) == 1


class TestMaintenance:
    """``add``/``remove`` keep the statistics exact: totals follow the
    indexes, per-predicate counts the runs rebuilt after a write."""

    @pytest.fixture
    def store(self):
        return IndexedStore(sample_triples())

    def test_a_shared_object_survives_one_removal(self, store):
        store.remove(Triple(uri("a1"), uri("creator"), uri("alice")))
        assert store.count(None, uri("creator"), None) == 2
        assert store.distinct_objects(uri("creator")) == 2
        assert store.distinct_subjects(uri("creator")) == 1

    def test_the_last_occurrence_drops_the_distinct_count(self, store):
        store.remove(Triple(uri("a2"), uri("creator"), uri("bob")))
        assert store.distinct_objects(uri("creator")) == 1
        assert store.distinct_object_total() == 5

    def test_class_counts_follow_removal(self, store):
        store.remove(Triple(uri("a1"), RDF.type, BENCH.Article))
        assert store.count(None, RDF.type, BENCH.Article) == 1
        store.remove(Triple(uri("a2"), RDF.type, BENCH.Article))
        assert store.count(None, RDF.type, BENCH.Article) == 0

    def test_removing_a_whole_predicate_forgets_it(self, store):
        store.remove(Triple(uri("a1"), uri("pages"), Literal("1--10")))
        store.remove(Triple(uri("a2"), uri("pages"), Literal("11--20")))
        assert store.count(None, uri("pages"), None) == 0
        assert store.distinct_predicates() == 2
        assert store.distinct_subjects(uri("pages")) == 0
        assert store.distinct_objects(uri("pages")) == 0
        pages = store.dictionary.lookup(uri("pages"))
        starts, _subjects, _objects = store.permutation("pso")
        assert starts[pages] == starts[pages + 1]
        assert store.count_ids(store.dictionary.lookup(uri("a1")), pages) == 0

    def test_totals_track_add_and_remove(self, store):
        store.add(Triple(uri("a3"), uri("pages"), Literal("21--30")))
        store.add(Triple(uri("a3"), uri("creator"), uri("alice")))
        assert (store.distinct_subject_total(), store.distinct_object_total()) == (4, 7)
        store.remove(Triple(uri("a3"), uri("pages"), Literal("21--30")))
        assert (store.distinct_subject_total(), store.distinct_object_total()) == (4, 6)
        store.remove(Triple(uri("a3"), uri("creator"), uri("alice")))
        assert (store.distinct_subject_total(), store.distinct_object_total()) == (3, 6)
        assert recount.statistics_of(store) == recount.recount(store)

    def test_a_snapshot_load_sorts_the_permutations(self, store, tmp_path):
        store.save(tmp_path / "permutations.sp2b")
        loaded = load_snapshot(tmp_path / "permutations.sp2b")
        assert loaded._permutations == store._permutations
        assert recount.permutations(loaded) == recount.resorted(loaded)
        for predicate in (uri("pages"), uri("creator"), RDF.type):
            assert loaded.distinct_subjects(predicate) == store.distinct_subjects(predicate)
            assert loaded.distinct_objects(predicate) == store.distinct_objects(predicate)
