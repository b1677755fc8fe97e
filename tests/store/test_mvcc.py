"""MVCC store semantics: generations, snapshots, copy-on-write drafts.

What multi-version concurrency control must guarantee here:

* a snapshot pinned before a write never changes — readers see the
  generation they started on,
* a write transaction publishes atomically (all changes or none visible),
* a no-op transaction publishes nothing (no version bump),
* a draft's copy-on-write structures stay consistent with a from-scratch
  store holding the same triples (statistics, indexes, sorted runs).
"""

import sys
import threading

import pytest

import recount
from repro.rdf import Literal, Triple, URIRef
from repro.store import IndexedStore, MemoryStore, MvccStore, read_snapshot

P = URIRef("http://example.org/p")
Q = URIRef("http://example.org/q")


def triple(n, predicate=P):
    return Triple(URIRef(f"http://example.org/s{n}"), predicate, Literal(n))


@pytest.fixture(params=["memory", "indexed"])
def store(request):
    base = {"memory": MemoryStore, "indexed": IndexedStore}[request.param]()
    return MvccStore(base)


class TestSnapshots:
    def test_read_snapshot_pins_generation(self, store):
        store.add(triple(1))
        pinned = read_snapshot(store)
        store.add(triple(2))
        assert len(pinned) == 1
        assert len(read_snapshot(store)) == 2

    def test_read_snapshot_passthrough_for_plain_store(self):
        plain = IndexedStore()
        assert read_snapshot(plain) is plain

    def test_snapshot_is_immutable_during_transaction(self, store):
        store.bulk_load([triple(n) for n in range(5)])
        before = store.snapshot()
        with store.write_transaction() as txn:
            txn.insert(triple(99))
            txn.remove(triple(0))
            # Mid-transaction: the published generation is untouched.
            assert len(store) == 5
            assert store.snapshot() is before
        assert len(store) == 5  # -1 +1
        assert store.snapshot() is not before
        assert store.contains(triple(99))
        assert not store.contains(triple(0))

    def test_version_bumps_once_per_commit(self, store):
        v0 = store.version
        with store.write_transaction() as txn:
            txn.insert(triple(1))
            txn.insert(triple(2))
        assert store.version == v0 + 1

    def test_noop_transaction_does_not_publish(self, store):
        store.add(triple(1))
        generation = store.snapshot()
        version = store.version
        with store.write_transaction() as txn:
            txn.remove(triple(42))     # absent: nothing changes
        assert store.snapshot() is generation
        assert store.version == version

    def test_facade_delegates_reads(self, store):
        store.bulk_load([triple(n) for n in range(3)])
        assert store.count(None, P, None) == 3
        assert store.contains(triple(1))
        assert len(list(store.triples(None, P, None))) == 3
        assert "mvcc(" in store.name


class TestNestedTransactions:
    """A transaction opened inside another on the same thread joins it."""

    def test_a_point_write_inside_a_transaction_is_kept(self, store):
        with store.write_transaction() as txn:
            txn.insert(triple(1))
            store.add(triple(2))
        assert len(store) == 2
        assert store.contains(triple(1)) and store.contains(triple(2))

    def test_one_publish_bumps_the_version_once(self, store):
        v0 = store.version
        with store.write_transaction() as outer:
            outer.insert(triple(1))
            with store.write_transaction() as inner:
                inner.insert(triple(2))
            store.remove(triple(1))
            assert store.version == v0
        assert store.version == v0 + 1
        assert list(store.triples()) == [triple(2)]

    def test_a_nested_transaction_shares_base_and_draft(self, store):
        store.add(triple(1))
        with store.write_transaction() as outer:
            outer.insert(triple(2))
            with store.write_transaction() as inner:
                assert inner.base is outer.base is store.snapshot()
                assert inner.base.contains(triple(1))
                assert not inner.base.contains(triple(2))
                assert inner.insert(triple(2)) is False
                assert inner.remove(triple(2)) is True
            assert (outer.inserted, inner.deleted) == (1, 1)

    def test_an_exception_in_a_nested_transaction_publishes_nothing(self, store):
        store.add(triple(1))
        generation, version = store.snapshot(), store.version
        with store.write_transaction() as outer:
            outer.insert(triple(2))
            with pytest.raises(RuntimeError):
                with store.write_transaction() as inner:
                    inner.insert(triple(3))
                    raise RuntimeError("abort")
            outer.insert(triple(4))
        assert store.snapshot() is generation
        assert store.version == version
        assert list(store.triples()) == [triple(1)]

    def test_an_exception_in_the_outer_transaction_publishes_nothing(self, store):
        with pytest.raises(RuntimeError):
            with store.write_transaction() as txn:
                store.add(triple(1))
                txn.insert(triple(2))
                raise RuntimeError("abort")
        assert len(store) == 0 and store.version == 0
        # The next transaction starts from a fresh draft.
        store.add(triple(3))
        assert list(store.triples()) == [triple(3)]
        assert store.version == 1

    def test_nested_writers_on_many_threads_publish_once_each(self, store):
        threads, rounds = 8, 20
        def writer(offset):
            for n in range(offset, offset + 2 * rounds, 2):
                with store.write_transaction() as txn:
                    txn.insert(triple(n))
                    store.add(triple(n + 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=writer, args=(k * 2 * rounds,))
                       for k in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(store) == 2 * threads * rounds
        assert store.version == threads * rounds


class TestDraftConsistency:
    def scratch(self, triples, family):
        fresh = family()
        fresh.bulk_load(triples)
        return fresh

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    def test_generation_matches_scratch_store(self, family):
        store = MvccStore(family())
        store.bulk_load([triple(n) for n in range(20)])
        with store.write_transaction() as txn:
            for n in range(5):
                txn.remove(triple(n))
            for n in range(20, 30):
                txn.insert(triple(n, predicate=Q))
        expected = [triple(n) for n in range(5, 20)] + \
                   [triple(n, predicate=Q) for n in range(20, 30)]
        scratch = self.scratch(expected, family)
        current = store.snapshot()
        assert set(current.triples()) == set(scratch.triples())
        for pattern in ((None, P, None), (None, Q, None),
                        (triple(7).subject, None, None)):
            assert current.count(*pattern) == scratch.count(*pattern)

    def test_indexed_draft_statistics_match_recount(self):
        store = MvccStore(IndexedStore())
        store.bulk_load([triple(n) for n in range(10)])
        with store.write_transaction() as txn:
            txn.remove(triple(0))
            txn.insert(triple(50, predicate=Q))
        current = store.snapshot()
        scratch = IndexedStore()
        scratch.bulk_load(list(current.triples()))
        assert recount.statistics_of(current) == recount.statistics_of(scratch)
        assert recount.statistics_of(current) == recount.recount(current)
        assert current.count(None, P, None) == scratch.count(None, P, None)
        assert current.count(None, Q, None) == scratch.count(None, Q, None)

    def test_base_generation_unchanged_by_draft_mutations(self):
        base = IndexedStore()
        base.bulk_load([triple(n) for n in range(10)])
        store = MvccStore(base)
        pinned = store.snapshot()
        triples_before = set(pinned.triples_ids())
        permutations_before = pinned._permutations
        rows_before = recount.permutations(pinned)
        statistics_before = recount.statistics_of(pinned)
        with store.write_transaction() as txn:
            for n in range(10):
                txn.remove(triple(n))
            txn.insert(triple(100))
        assert set(pinned.triples_ids()) == triples_before
        assert pinned.count(None, P, None) == 10
        # The superseded generation keeps its very permutations, unchanged,
        # and its counts.
        assert pinned._permutations is permutations_before
        assert recount.permutations(pinned) == rows_before == recount.resorted(pinned)
        assert recount.statistics_of(pinned) == statistics_before

    def test_bulk_load_publishes_one_generation_with_fresh_permutations(self):
        store = MvccStore(IndexedStore([triple(n) for n in range(5)]))
        version = store.version
        added = store.bulk_load([triple(n) for n in range(3, 12)] +
                                [triple(1, predicate=Q)])
        assert added == 8 and store.version == version + 1
        current = store.snapshot()
        assert recount.permutations(current) == recount.resorted(current)
        assert recount.statistics_of(current) == recount.recount(current)

    def test_a_pinned_generation_keeps_its_permutations_and_counts(self):
        base = IndexedStore()
        base.bulk_load([triple(n) for n in range(10)] +
                       [triple(n, predicate=Q) for n in range(10)])
        store = MvccStore(base)
        pinned = store.snapshot()
        rows_before = recount.permutations(pinned)
        # Read every statistic first, so the pinned generation's cache is
        # filled before the draft shares it.
        statistics_before = recount.statistics_of(pinned)
        with store.write_transaction() as txn:
            txn.insert(triple(99, predicate=Q))
            txn.remove(triple(0))
        current = store.snapshot()
        assert current._permutations is not pinned._permutations
        assert current._statistics is not pinned._statistics
        assert recount.permutations(pinned) == rows_before
        assert recount.statistics_of(pinned) == statistics_before
        assert (pinned.count(None, Q, None), current.count(None, Q, None)) == (10, 11)
        assert (pinned.distinct_subjects(P), current.distinct_subjects(P)) == (10, 9)
        assert recount.statistics_of(current) == recount.recount(current)

    @pytest.mark.parametrize("text", [
        "SELECT * WHERE { <http://example.org/new> ?p ?o }",
        "SELECT * WHERE { ?s ?p <http://example.org/new> }",
        "SELECT * WHERE { ?s <http://example.org/p> ?o . ?s ?q <http://example.org/new> }",
    ])
    def test_a_pinned_generation_finds_no_rows_for_a_later_term(self, text):
        # The dictionary is shared and append-only: a term a later write
        # encoded has an id past the pinned generation's row offsets.
        from repro.sparql import NATIVE_COST, SparqlEngine, algebra
        from repro.sparql.idspace import IdSpaceEvaluation
        from repro.sparql.planner import KERNEL

        new = URIRef("http://example.org/new")
        store = MvccStore(IndexedStore([triple(n) for n in range(30)]))
        pinned = store.snapshot()
        subjects = [URIRef(f"http://example.org/s{n}") for n in range(30)]
        store.add_all([Triple(new, Q, s) for s in subjects] +
                      [Triple(s, Q, new) for s in subjects])
        assert pinned.dictionary.lookup(new) is not None
        # Planned on the newest generation, where the term has rows, the
        # BGP runs on the batch kernels.
        tree = SparqlEngine(NATIVE_COST, store=store).prepare(text).tree
        assert all(bgp.plan.access == KERNEL for bgp in algebra.collect_bgps(tree))
        assert list(IdSpaceEvaluation(pinned).bindings(tree)) == []
        assert len(list(IdSpaceEvaluation(store.snapshot()).bindings(tree))) == 30


class TestConcurrency:
    def test_writers_serialize(self):
        store = MvccStore(IndexedStore())
        rounds = 50
        def writer(offset):
            for n in range(rounds):
                with store.write_transaction() as txn:
                    txn.insert(triple(offset + n))
        threads = [threading.Thread(target=writer, args=(k * rounds,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == 4 * rounds
        assert store.version == 4 * rounds

    def test_no_lost_updates_under_read_modify_write(self):
        # Each transaction reads the current counter value through its own
        # base generation *inside* the writer lock, so increments never
        # race.
        store = MvccStore(IndexedStore())
        counter = URIRef("http://example.org/counter")
        value = URIRef("http://example.org/value")
        store.add(Triple(counter, value, Literal(0)))
        def bump():
            for _ in range(25):
                with store.write_transaction() as txn:
                    current = next(txn.base.triples(counter, value, None))
                    held = int(current.object.lexical)
                    txn.remove(current)
                    txn.insert(Triple(counter, value, Literal(held + 1)))
        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = next(store.triples(counter, value, None))
        assert int(final.object.lexical) == 100
