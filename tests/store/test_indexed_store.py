"""Unit tests for the dictionary-encoded IndexedStore."""

import itertools
import sys
import threading

import numpy as np
import pytest

import recount
from repro.rdf import RDF, BNode, Literal, Triple, URIRef
from repro.sparql import kernels
from repro.store import IndexedStore, MemoryStore

EX = "http://example.org/"


def uri(local):
    return URIRef(EX + local)


def sample_triples():
    return [
        Triple(uri("a"), uri("p"), uri("b")),
        Triple(uri("a"), uri("p"), uri("c")),
        Triple(uri("a"), uri("q"), Literal("v")),
        Triple(uri("b"), uri("p"), uri("c")),
        Triple(BNode("n"), uri("q"), Literal("w")),
    ]


@pytest.fixture
def store():
    return IndexedStore(sample_triples())


class TestBasics:
    def test_len(self, store):
        assert len(store) == 5

    def test_duplicate_add_ignored(self, store):
        assert store.add(sample_triples()[0]) is False
        assert len(store) == 5

    def test_contains(self, store):
        assert store.contains(sample_triples()[0])
        assert not store.contains(Triple(uri("z"), uri("p"), uri("b")))

    def test_contains_with_unknown_term(self, store):
        assert not store.contains(Triple(uri("unknown"), uri("p"), uri("b")))

    def test_dictionary_grows_with_distinct_terms(self, store):
        distinct_terms = set()
        for triple in sample_triples():
            distinct_terms.update(triple)
        assert len(store.dictionary) == len(distinct_terms)


class TestPatternAccess:
    def test_every_bound_combination_matches_linear_scan(self, store):
        """The index answers all 8 binding combinations identically to a scan."""
        reference = MemoryStore(sample_triples())
        terms = {
            "s": [uri("a"), uri("b"), BNode("n"), None],
            "p": [uri("p"), uri("q"), None],
            "o": [uri("b"), uri("c"), Literal("v"), Literal("w"), None],
        }
        for s, p, o in itertools.product(terms["s"], terms["p"], terms["o"]):
            expected = set(reference.triples(s, p, o))
            actual = set(store.triples(s, p, o))
            assert actual == expected, (s, p, o)

    def test_unknown_term_yields_nothing(self, store):
        assert list(store.triples(subject=uri("nope"))) == []

    def test_count_by_predicate(self, store):
        assert store.count(predicate=uri("p")) == 3
        assert store.count(predicate=uri("q")) == 2

    def test_count_fully_bound(self, store):
        assert store.count(uri("a"), uri("p"), uri("b")) == 1
        assert store.count(uri("a"), uri("p"), Literal("v")) == 0

    def test_count_unconstrained(self, store):
        assert store.count() == 5


class TestCountsAgainstRecount:
    """``count`` is the planner's standalone estimate: it must be exact."""

    @staticmethod
    def _agree(store, *patterns):
        triples = recount.decoded_triples(store)
        for pattern in patterns:
            assert store.count(*pattern) == recount.count(triples, *pattern), pattern

    def test_bound_patterns(self, store):
        self._agree(store, (None, uri("p"), None), (uri("a"), uri("p"), None),
                    (None, uri("p"), uri("c")), (uri("a"), None, uri("c")))

    def test_unbound_pattern_is_the_store_size(self, store):
        self._agree(store, (None, None, None))
        assert store.count() == len(store) == 5

    def test_unknown_terms_count_zero(self, store):
        self._agree(store, (uri("nope"), None, None), (None, uri("nope"), None),
                    (uri("a"), uri("p"), uri("nope")))
        assert store.count(subject=uri("nope")) == 0

    def test_class_counts_only_for_rdf_type(self, store):
        # No rdf:type triple: a class pattern on rdf:type counts zero.
        assert store.count(None, RDF.type, uri("b")) == 0


class TestIdLevelAccess:
    def test_permutations_are_the_one_capability(self, store):
        assert store.supports_permutations is True
        assert not hasattr(MemoryStore(), "supports_permutations")
        assert not hasattr(store, "supports_id_access")

    def test_encode_pattern_round_trips_known_terms(self, store):
        encoded = store.encode_pattern(uri("a"), uri("p"), None)
        assert encoded is not None
        s_id, p_id, o_id = encoded
        assert store.dictionary.decode(s_id) == uri("a")
        assert store.dictionary.decode(p_id) == uri("p")
        assert o_id is None

    def test_encode_pattern_unknown_term_is_none(self, store):
        assert store.encode_pattern(uri("nope"), None, None) is None

    def test_triples_ids_matches_term_level_view(self, store):
        decode = store.dictionary.decode
        for pattern in ((None, uri("p"), None), (uri("a"), None, None),
                        (None, None, None)):
            encoded = store.encode_pattern(*pattern)
            decoded = {
                Triple(decode(s), decode(p), decode(o))
                for s, p, o in store.triples_ids(*encoded)
            }
            assert decoded == set(store.triples(*pattern)), pattern

    def test_triples_ids_yields_raw_int_tuples(self, store):
        encoded = store.encode_pattern(None, uri("q"), None)
        rows = list(store.triples_ids(*encoded))
        assert len(rows) == 2
        assert all(
            isinstance(component, int) for row in rows for component in row
        )

    def test_count_ids_matches_count(self, store):
        encoded = store.encode_pattern(None, uri("p"), None)
        assert store.count_ids(*encoded) == store.count(predicate=uri("p")) == 3
        assert store.count_ids() == len(store)

    @pytest.mark.parametrize("stand_in", [-1, -2, -3])
    def test_a_negative_stand_in_id_matches_nothing(self, store, stand_in):
        # The executor gives a term the dictionary lacks a negative id of
        # its own; no shape may read another term's rows for it.
        known = store.encode_pattern(uri("a"), uri("p"), uri("b"))
        for shape in itertools.product((False, True), repeat=3):
            for filled in itertools.product(*(
                    (stand_in, known[i]) if bound else (None,)
                    for i, bound in enumerate(shape))):
                if stand_in in filled:
                    assert store.count_ids(*filled) == 0
                    assert list(store.triples_ids(*filled)) == []

    def test_permutations_spell_out_every_triple(self, store):
        # Each leading id's offsets range holds its rows, each order sorted
        # by its own positions; the views give them in the order's sequence.
        for order, positions in recount.ORDERS.items():
            starts, second, third = store.permutation(order)
            spelled = [
                (key, *pair) for key in range(len(starts) - 1)
                for pair in zip(second[starts[key]:starts[key + 1]].tolist(),
                                third[starts[key]:starts[key + 1]].tolist())]
            assert spelled == sorted(tuple(ids[position] for position in positions)
                                     for ids in store.triples_ids()), order
            if order not in ("pso", "pos"):
                continue
            # One predicate's rows alone, as offsets per second id over its
            # third column; none for an id without any.
            for key in (*range(len(starts) - 1), len(starts), -1):
                rows = [pair[1:] for pair in spelled if pair[0] == key]
                offsets, thirds = store.permutation(order, key)
                assert offsets.dtype == np.uintc
                assert [(second_id, third) for second_id in range(len(offsets) - 1)
                        for third in thirds[offsets[second_id]:offsets[second_id + 1]].tolist()
                        ] == rows
        with pytest.raises(ValueError, match="unknown permutation order"):
            store.permutation("s")
        with pytest.raises(ValueError, match="ranges PSO or POS"):
            store.permutation("spo", 0)

    def test_range_columns_are_the_unbound_positions_of_triples_ids(self, store):
        triples = list(store.triples_ids())
        values = [sorted({ids[position] for ids in triples})[:3] + [None]
                  for position in range(3)]
        for pattern in itertools.product(*values):
            expected = sorted(store.triples_ids(*pattern))
            count, columns = store.range_columns(*pattern)
            assert count == len(expected), pattern
            assert sorted(columns) == [i for i in range(3) if pattern[i] is None]
            # A column is the range's rows in its permutation's order: each
            # row of ``expected`` filled from it, in some order.
            rows = zip(*(columns[i].tolist() for i in sorted(columns))) if columns else [()]
            filled = [tuple(next(values) if term is None else term for term in pattern)
                      for values in map(iter, rows)] if count else []
            assert sorted(filled) == expected, pattern


class TestRemove:
    def test_remove_present_triple(self, store):
        target = sample_triples()[0]
        assert store.remove(target) is True
        assert len(store) == 4
        assert not store.contains(target)
        assert store.remove(target) is False

    def test_remove_unknown_term_is_noop(self, store):
        assert store.remove(Triple(uri("zz"), uri("p"), uri("b"))) is False
        assert len(store) == 5

    def test_remove_maintains_indexes(self, store):
        for triple in sample_triples():
            if triple.predicate == uri("p"):
                assert store.remove(triple) is True
        assert store.count(predicate=uri("p")) == 0
        assert list(store.triples(predicate=uri("p"))) == []
        assert store.count(predicate=uri("q")) == 2
        # Fully removed keys count zero through the run path too.
        assert store.count(subject=uri("a"), predicate=uri("p")) == 0

    def test_remove_maintains_statistics(self, store):
        removed = sample_triples()[0]
        store.remove(removed)
        assert store.count() == 4
        assert store.count(None, uri("p"), None) == 2
        # uri("a") still appears as subject of another p-triple.
        assert store.distinct_subjects(uri("p")) == 2

    def test_remove_then_re_add(self, store):
        target = sample_triples()[0]
        store.remove(target)
        assert store.add(target) is True
        assert len(store) == 5
        assert set(store.triples()) == set(sample_triples())

    def test_remove_matches_memory_store_behaviour(self):
        triples = sample_triples()
        indexed, memory = IndexedStore(triples), MemoryStore(triples)
        for target in (triples[1], triples[3]):
            assert indexed.remove(target) == memory.remove(target) is True
        assert set(indexed.triples()) == set(memory.triples())
        assert len(indexed) == len(memory)


class TestBatchWrites:
    """``add_all``/``remove_all`` write a batch in one splice per column."""

    def test_a_batch_counts_what_changed_and_bumps_the_version_once(self, store):
        version = store.version
        batch = [Triple(uri("z"), uri("p"), uri("a")), Triple(uri("z"), uri("p"), uri("a")),
                 Triple(uri("y"), uri("s"), uri("z")), sample_triples()[0]]
        assert store.add_all(batch) == 2 and store.version == version + 1
        assert store.remove_all(batch + [Triple(uri("x"), uri("p"), uri("a"))]) == 3
        assert store.version == version + 2
        assert set(store.triples()) == set(sample_triples()[1:])
        assert recount.permutations(store) == recount.resorted(store)
        assert recount.statistics_of(store) == recount.recount(store)

    def test_an_update_writes_each_of_its_halves_once(self, store, monkeypatch):
        from repro.sparql.update import execute_update
        from repro.store import indexed_store

        splices = []
        original = indexed_store._spliced_permutation
        monkeypatch.setattr(indexed_store, "_spliced_permutation", lambda *args: (
            splices.append((len(args[1]), args[3])), original(*args))[1])
        body = " ".join(f"<http://example.org/n{i}> <http://example.org/p> <http://example.org/m{i}> ."
                        for i in range(1000))
        assert execute_update(store, f"INSERT DATA {{ {body} }}").inserted == 1000
        result = execute_update(store, "DELETE { ?s <http://example.org/p> ?o } "
                                       "INSERT { ?o <http://example.org/r> ?s } "
                                       "WHERE { ?s <http://example.org/p> ?o }")
        assert (result.deleted, result.inserted) == (1003, 1003)
        # Four permutations per write: SPO, OSP, PSO and POS.
        assert splices == [(1000, True)] * 4 + [(1003, False)] * 4 + [(1003, True)] * 4
        assert recount.permutations(store) == recount.resorted(store)


class TestPermutations:
    """The four permutations are the index: sorted at a bulk load, spliced
    into new arrays on every write, never built by a read."""

    def test_every_permutation_is_sorted_before_any_read(self, store):
        assert sorted(store._permutations) == sorted(recount.ORDERS)
        assert recount.permutations(store) == recount.resorted(store)
        # PSO and POS lead with the same predicates: one offsets array.
        assert store._permutations["pso"][0] is store._permutations["pos"][0]

    def test_a_bulk_load_bumps_the_version_once_and_stamps_its_predicates(self, store):
        version = store.version
        added = store.load_graph([Triple(uri("z"), uri("p"), uri("a")),
                                  Triple(uri("z"), uri("r"), uri("a")),
                                  sample_triples()[0]])
        assert added == 2 and store.version == version + 1
        assert store.predicates_changed_since([uri("p")], version)
        assert store.predicates_changed_since([uri("r")], version)
        assert not store.predicates_changed_since([uri("q")], version)
        assert store.load_graph(sample_triples()) == 0 and store.version == version + 1
        assert recount.permutations(store) == recount.resorted(store)

    def test_a_failing_bulk_input_keeps_what_came_before_it(self, store):
        def failing():
            yield Triple(uri("z"), uri("p"), uri("a"))
            yield Triple(uri("z"), uri("r"), uri("b"))
            raise ValueError("bad line")

        with pytest.raises(ValueError):
            store.load_graph(failing())
        assert len(store) == 7 and store.contains(Triple(uri("z"), uri("r"), uri("b")))
        assert recount.permutations(store) == recount.resorted(store)
        assert recount.statistics_of(store) == recount.recount(store)

    def test_a_write_replaces_permutations_and_never_edits_one(self, store):
        before = store._permutations
        columns = {order: [column.tolist() for column in before[order]] for order in before}
        store.add(Triple(uri("0"), uri("p"), uri("a")))
        store.remove(sample_triples()[1])
        assert store._permutations is not before
        assert all(now is not then for order in before for now, then in
                   zip(store._permutations[order], before[order]))
        assert {order: [column.tolist() for column in before[order]]
                for order in before} == columns
        assert recount.permutations(store) == recount.resorted(store)

    def test_removing_a_predicates_last_triple_empties_its_range(self, store):
        q_id = store.dictionary.lookup(uri("q"))
        for triple in (sample_triples()[2], sample_triples()[4]):
            store.remove(triple)
        for order in ("pso", "pos"):
            starts, _second, _third = store.permutation(order)
            assert starts[q_id] == starts[q_id + 1]
        assert store.distinct_subjects(uri("q")) == store.distinct_objects(uri("q")) == 0
        assert store.count(None, uri("q"), None) == 0
        assert not list(store.triples(None, uri("q")))


def spelled_offsets(store, order, predicate):
    """A predicate's PSO or POS rows as (second id, third id) pairs, read
    through its offsets, with the offsets themselves."""
    offsets, thirds = store.permutation(order, store.dictionary.lookup(predicate))
    return offsets, [(second, third) for second in range(len(offsets) - 1)
                     for third in thirds[offsets[second]:offsets[second + 1]].tolist()]


def recounted_pairs(store, order, predicate):
    """The same pairs from ``triples_ids``: (subject, object) for PSO,
    (object, subject) for POS."""
    predicate_id = store.dictionary.lookup(predicate)
    pairs = [(s, o) for s, p, o in store.triples_ids() if p == predicate_id]
    return sorted(pairs if order == "pso" else [(o, s) for s, o in pairs])


class TestPredicateOffsets:
    """A predicate's PSO and POS rows as u32 offsets per second id: built
    once per generation, kept across writes that leave the predicate alone,
    rebuilt after writes that touch it."""

    @pytest.mark.parametrize("order", ("pso", "pos"))
    def test_an_id_past_the_end_has_no_rows(self, store, order):
        offsets, pairs = spelled_offsets(store, order, uri("p"))
        assert len(offsets) == max(second for second, _third in pairs) + 2
        # Ids the offsets do not cover (a term a later generation added,
        # the top of the u32 range) range nothing.
        beyond = np.array([len(offsets) - 1, len(offsets), 2**32 - 1], dtype=np.uintc)
        lo, hi = kernels.key_ranges(offsets, beyond)
        assert (lo == hi).all()

    @pytest.mark.parametrize("order", ("pso", "pos"))
    def test_offsets_are_built_once_per_generation(self, store, order):
        first, pairs = spelled_offsets(store, order, uri("p"))
        again, _pairs = spelled_offsets(store, order, uri("p"))
        assert again is first and pairs == recounted_pairs(store, order, uri("p"))

    @pytest.mark.parametrize("order", ("pso", "pos"))
    def test_after_a_write_the_touched_predicates_ranges_are_current(self, store, order):
        before, _pairs = spelled_offsets(store, order, uri("p"))
        store.add_all([Triple(uri("z"), uri("p"), uri("a")),
                       Triple(uri("b"), uri("p"), uri("new"))])
        store.remove(Triple(uri("a"), uri("p"), uri("c")))
        after, pairs = spelled_offsets(store, order, uri("p"))
        assert after is not before
        assert pairs == recounted_pairs(store, order, uri("p"))

    def test_an_untouched_predicates_offsets_are_shared_with_the_base(self, store):
        base_q, _pairs = spelled_offsets(store, "pso", uri("q"))
        base_p, _pairs = spelled_offsets(store, "pos", uri("p"))
        draft = store.begin_generation()
        draft.add_all([Triple(uri("a"), uri("p"), uri("fresh"))])
        draft_q, pairs = spelled_offsets(draft, "pso", uri("q"))
        assert draft_q is base_q and pairs == recounted_pairs(draft, "pso", uri("q"))
        draft_p, pairs = spelled_offsets(draft, "pos", uri("p"))
        assert draft_p is not base_p and pairs == recounted_pairs(draft, "pos", uri("p"))
        # The base still reads its own generation.
        assert spelled_offsets(store, "pos", uri("p"))[0] is base_p
        assert (uri("a"), uri("p"), uri("fresh")) not in set(store.triples())


def test_a_pinned_reader_keeps_its_own_offsets_while_drafts_write():
    # Readers of a base fill (and clear, and refill) the offsets it shares
    # with its drafts while the drafts write: no write may trip over the
    # dict changing under it ("dictionary changed size during iteration"),
    # and the arrays a reader gets spell exactly the base's rows.
    predicates = [uri(f"p{n}") for n in range(1500)]
    base = IndexedStore(Triple(uri(f"s{n % 7}"), predicate, Literal(n % 10))
                        for n, predicate in enumerate(predicates))
    ids = [base.dictionary.lookup(predicate) for predicate in predicates]
    checked = {(order, predicates[n]): recounted_pairs(base, order, predicates[n])
               for order in ("pso", "pos") for n in range(0, len(predicates), 100)}
    errors, stop = [], threading.Event()

    def read():
        try:
            while not stop.is_set():
                for order in ("pso", "pos"):
                    for predicate_id in ids:
                        base.permutation(order, predicate_id)
                for (order, predicate), pairs in checked.items():
                    if spelled_offsets(base, order, predicate)[1] != pairs:
                        errors.append(f"{order} {predicate}: rows changed")
                base._predicate_offsets.clear()  # and fill it again
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for n in range(200):
            draft = base.begin_generation()
            draft.add_all([Triple(uri("new"), predicates[n], Literal(-n))])
            assert spelled_offsets(draft, "pso", predicates[n])[1] == \
                recounted_pairs(draft, "pso", predicates[n])
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []


def test_a_draft_writes_while_readers_fill_the_statistics_it_shares():
    # A draft shares its base's statistics dict until it writes, and the
    # base's readers keep filling it meanwhile: the write must not iterate
    # the dict as it changes ("dictionary changed size during iteration").
    predicates = [uri(f"p{n}") for n in range(3000)]
    base = IndexedStore(Triple(uri(f"s{n % 7}"), predicate, Literal(n))
                        for n, predicate in enumerate(predicates))
    errors, stop = [], threading.Event()

    def read():
        try:
            while not stop.is_set():
                for predicate in predicates:
                    base.distinct_subjects(predicate)
                base._statistics.clear()  # and fill it again
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for n in range(300):
            base.begin_generation().add_all([Triple(uri("new"), predicates[n], Literal(-n))])
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []


def _subject_object_stores(tmp_path):
    """The three ways an IndexedStore comes about: built, MVCC-published
    after inserts and deletes, and loaded from a snapshot."""
    from repro.store import MvccStore, load_snapshot, read_snapshot

    plain = IndexedStore(sample_triples())
    mvcc = MvccStore(IndexedStore(sample_triples()))
    with mvcc.write_transaction() as txn:
        txn.insert(Triple(uri("a"), uri("r"), uri("b")))
        txn.insert(Triple(uri("b"), uri("q"), uri("c")))
        txn.remove(Triple(uri("a"), uri("p"), uri("c")))
    path = tmp_path / "round-trip.sp2b"
    plain.save(path)
    return {"plain": plain, "mvcc": read_snapshot(mvcc),
            "snapshot": load_snapshot(path)}


@pytest.mark.parametrize("kind", ["plain", "mvcc", "snapshot"])
def test_subject_object_patterns_match_brute_force(tmp_path, kind):
    """``(s, ?p, o)`` is a bisect range of OSP: the object's rows, then
    the subject's among them."""
    store = _subject_object_stores(tmp_path)[kind]
    everything = list(store.triples_ids())
    subjects = {s for s, _p, _o in everything}
    objects = {o for _s, _p, o in everything}
    decode = store.dictionary.decode
    checked = 0
    for s, o in itertools.product(subjects, objects):
        expected = {ids for ids in everything if ids[0] == s and ids[2] == o}
        assert set(store.triples_ids(s, None, o)) == expected
        assert store.count_ids(s, None, o) == len(expected)
        assert store.count(decode(s), None, decode(o)) == len(expected)
        checked += bool(expected)
    assert checked >= 3
