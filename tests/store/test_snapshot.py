"""Unit tests for the binary store snapshot format."""

import io
import struct
import zlib

import pytest

import recount
from repro.queries import get_query
from repro.rdf import BNode, Graph, Literal, Triple, URIRef
from repro.sparql import NATIVE_COST, SparqlEngine
from repro.store import (
    SNAPSHOT_FORMAT_VERSION,
    IndexedStore,
    MemoryStore,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot_metadata,
    save_snapshot,
)
from repro.store import snapshot as snapshot_module

EX = "http://example.org/"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"


def sample_triples():
    return [
        Triple(URIRef(EX + "a"), URIRef(EX + "p"), URIRef(EX + "b")),
        Triple(BNode("node1"), URIRef(EX + "p"), Literal("plain")),
        Triple(URIRef(EX + "a"), URIRef(EX + "q"), Literal("5", datatype=XSD_INT)),
        Triple(URIRef(EX + "a"), URIRef(EX + "q"), Literal("hi", language="en")),
        Triple(URIRef(EX + "b"), URIRef(EX + "p"), Literal("escaped \"quotes\"\n")),
    ]


def reseal(path, damage):
    """Apply ``damage`` to the metadata + payload bytes of a snapshot and
    re-seal the container, so the CRC passes and the body is what is broken."""
    data = path.read_bytes()
    magic, version, kind, flags, meta_len, _len, _crc = struct.unpack_from(
        "<8sHBBIQI", data)
    body = damage(data[28:])
    header = struct.pack("<8sHBBIQI", magic, version, kind, flags, meta_len,
                         len(body) - meta_len, zlib.crc32(body))
    path.write_bytes(header + body)


class TestIndexedRoundTrip:
    @pytest.fixture()
    def saved(self, tmp_path):
        store = IndexedStore(sample_triples())
        path = tmp_path / "store.sp2b"
        save_snapshot(store, path, metadata={"note": "unit"})
        return store, path

    def test_triples_and_length_survive(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        assert isinstance(loaded, IndexedStore)
        assert len(loaded) == len(store)
        assert set(loaded.triples()) == set(store.triples())

    def test_dictionary_ids_are_stable(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        assert len(loaded.dictionary) == len(store.dictionary)
        for triple in store.triples():
            for term in triple:
                assert loaded.dictionary.lookup(term) == store.dictionary.lookup(term)

    def test_statistics_are_equal(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        assert recount.statistics_of(loaded) == recount.statistics_of(store)
        assert loaded.count() == len(store)

    def test_indexes_answer_every_pattern_shape(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        a, p = URIRef(EX + "a"), URIRef(EX + "p")
        for pattern in ((a, None, None), (None, p, None), (None, None, URIRef(EX + "b")),
                        (a, p, None), (None, p, URIRef(EX + "b")),
                        (a, None, URIRef(EX + "b")), (None, None, None)):
            assert set(loaded.triples(*pattern)) == set(store.triples(*pattern))
            assert loaded.count(*pattern) == store.count(*pattern)

    def test_loaded_store_stays_mutable(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        victim = sample_triples()[0]
        assert loaded.remove(victim)
        assert not loaded.contains(victim)
        assert len(loaded) == len(store) - 1
        new = Triple(URIRef(EX + "new"), URIRef(EX + "p"), Literal("x"))
        assert loaded.add(new)
        assert loaded.contains(new)

    def test_metadata_round_trip(self, saved):
        _store, path = saved
        # Nothing in the file names the family that saved it.
        assert read_snapshot_metadata(path) == {
            "note": "unit", "triples": len(sample_triples())}

    def test_permutations_are_equal(self, saved):
        store, path = saved
        loaded = load_snapshot(path)
        assert recount.permutations(loaded) == recount.permutations(store)
        assert recount.permutations(loaded) == recount.resorted(loaded)

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "empty.sp2b"
        save_snapshot(IndexedStore(), path)
        loaded = load_snapshot(path)
        assert len(loaded) == 0
        assert loaded.count() == 0
        assert loaded.distinct_predicates() == 0

    def test_save_and_load_methods_mirror_module_functions(self, tmp_path):
        store = IndexedStore(sample_triples())
        path = tmp_path / "method.sp2b"
        store.save(path)
        loaded = IndexedStore.load(path)
        assert set(loaded.triples()) == set(store.triples())


class TestMemoryRoundTrip:
    def test_round_trip(self, tmp_path):
        store = MemoryStore(sample_triples())
        path = tmp_path / "memory.sp2b"
        store.save(path)
        loaded = MemoryStore.load(path)
        assert isinstance(loaded, MemoryStore)
        assert set(loaded.triples()) == set(store.triples())

    @pytest.mark.parametrize("saver", [MemoryStore, IndexedStore])
    @pytest.mark.parametrize("loader", [MemoryStore, IndexedStore])
    def test_either_family_loads_either_file(self, tmp_path, saver, loader):
        store = saver(sample_triples())
        path = tmp_path / "store.sp2b"
        store.save(path)
        assert path.read_bytes()[10:12] == b"\0\0"  # no family in the header
        loaded = loader.load(path)
        assert type(loaded) is loader
        assert loaded.dictionary._id_to_term == store.dictionary._id_to_term
        assert set(loaded.triples_ids()) == set(store.triples_ids())
        assert type(load_snapshot(path)) is IndexedStore


class TestRejection:
    @pytest.fixture()
    def snapshot_path(self, tmp_path):
        path = tmp_path / "store.sp2b"
        save_snapshot(IndexedStore(sample_triples()), path)
        return path

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.sp2b"
        path.write_bytes(b"certainly not a snapshot file")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.sp2b"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_wrong_version_is_rejected(self, snapshot_path):
        data = bytearray(snapshot_path.read_bytes())
        # Version lives at bytes 8..10 of the header (little-endian u16).
        data[8:10] = struct.pack("<H", SNAPSHOT_FORMAT_VERSION + 1)
        snapshot_path.write_bytes(bytes(data))
        with pytest.raises(SnapshotVersionError):
            load_snapshot(snapshot_path)
        with pytest.raises(SnapshotVersionError):
            read_snapshot_metadata(snapshot_path)

    def test_truncated_file_is_rejected(self, snapshot_path):
        data = snapshot_path.read_bytes()
        snapshot_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(snapshot_path)

    def test_corrupted_payload_fails_integrity_check(self, snapshot_path):
        data = bytearray(snapshot_path.read_bytes())
        data[-3] ^= 0xFF  # flip bits deep inside the payload
        snapshot_path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(snapshot_path)

    def test_all_rejections_are_snapshot_errors(self, tmp_path):
        # Cache resolution catches SnapshotError to rebuild — the subclasses
        # must stay inside that umbrella.
        assert issubclass(SnapshotFormatError, SnapshotError)
        assert issubclass(SnapshotVersionError, SnapshotError)
        assert issubclass(SnapshotCorruptError, SnapshotError)


#: Terms a text payload cannot carry verbatim, one triple per case; both
#: store families must round-trip each of them exactly.
EDGE_CASES = {
    "bnode with a space": Triple(BNode("a b"), URIRef(EX + "p"), Literal("x")),
    "bnode with a dot": Triple(BNode("a.b"), URIRef(EX + "p"), BNode("c.")),
    "bnode with a dash": Triple(BNode("-a-b"), URIRef(EX + "p"), Literal("x")),
    "literal with a newline": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("a\nb\r")),
    "literal with a tab": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("a\tb")),
    "literal with a quote": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal('say "hi"')),
    "literal with a backslash": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("a\\n")),
    "language tag": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("colour", language="en-GB")),
    "datatype": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("5", datatype=XSD_INT)),
    "non-ASCII IRI": Triple(URIRef("http://例え.jp/ü/ß"), URIRef(EX + "p"), Literal("日本語 ✓")),
    "empty literal": Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("")),
}


class TestEdgeCaseTerms:
    @pytest.mark.parametrize("loader", [MemoryStore, IndexedStore])
    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_round_trip(self, tmp_path, family, loader, case):
        triples = [EDGE_CASES[case], sample_triples()[0]]
        path = tmp_path / "edge.sp2b"
        family(triples).save(path)
        loaded = loader.load(path)
        if loader is family:
            assert list(loaded.triples()) == list(family(triples).triples())
        assert set(loaded.triples()) == set(triples)
        assert loaded.contains(EDGE_CASES[case])
        if loader is IndexedStore:
            assert recount.statistics_of(loaded) == recount.statistics_of(
                IndexedStore(triples))


class TestMemoryPayload:
    """A memory snapshot has the indexed payload's two sections."""

    def test_dictionary_ids_and_scan_order_survive(self, tmp_path):
        store = MemoryStore(sample_triples())
        store.remove(sample_triples()[1])
        store.add(sample_triples()[1])
        path = tmp_path / "memory.sp2b"
        store.save(path)
        loaded = MemoryStore.load(path)
        assert list(loaded._triples) == list(store._triples)
        assert loaded.dictionary._id_to_term == store.dictionary._id_to_term

    def test_loaded_store_stays_writable(self, tmp_path):
        path = tmp_path / "memory.sp2b"
        MemoryStore(sample_triples()).save(path)
        loaded = MemoryStore.load(path)
        new = Triple(URIRef(EX + "new"), URIRef(EX + "p"), URIRef(EX + "a"))
        assert loaded.add(new) and loaded.remove(sample_triples()[0])
        assert list(loaded.triples())[-1] == new
        assert len(loaded) == len(sample_triples())

    @pytest.mark.parametrize("damage, message", [
        # The last triple's bytes are gone.
        (lambda body: body[:-4], "ends prematurely"),
        # A term's text is no longer UTF-8.
        (lambda body: body.replace(b"plain", b"pl\xffin"), "unreadable term text"),
        # The datatype table loses its one entry; a literal still names it.
        (lambda body: body.replace(
            struct.pack("<II", 1, len(XSD_INT)) + XSD_INT.encode(),
            struct.pack("<I", 0)), "names a datatype or language"),
        # Bytes follow the last (triples) section.
        (lambda body: body + b"\0", "1 byte\\(s\\) after its last section"),
    ])
    def test_corrupt_payload_raises_snapshot_corrupt_error(self, tmp_path, damage,
                                                           message):
        path = tmp_path / "memory.sp2b"
        MemoryStore(sample_triples()).save(path)
        reseal(path, damage)
        with pytest.raises(SnapshotCorruptError, match=message):
            MemoryStore.load(path)


class TestQueriesOnLoadedStores:
    def test_catalog_queries_identical_on_loaded_store(
        self, tmp_path, generated_graph_small
    ):
        fresh = IndexedStore(generated_graph_small)
        path = tmp_path / "generated.sp2b"
        save_snapshot(fresh, path)
        loaded = load_snapshot(path)
        fresh_engine = SparqlEngine(NATIVE_COST, store=fresh)
        loaded_engine = SparqlEngine(NATIVE_COST, store=loaded)
        for query_id in ("Q1", "Q2", "Q3a", "Q4", "Q5a", "Q6", "Q8", "Q11", "Q12c"):
            text = get_query(query_id).text
            fresh_result = fresh_engine.query(text)
            loaded_result = loaded_engine.query(text)
            if fresh_result.form == "SELECT":
                assert fresh_result.as_multiset() == loaded_result.as_multiset()
            else:
                assert bool(fresh_result) == bool(loaded_result)

    def test_loaded_memory_store_queries_like_graph(self, tmp_path, sample_graph):
        path = tmp_path / "sample.sp2b"
        MemoryStore(sample_graph).save(path)
        loaded = MemoryStore.load(path)
        assert set(loaded.triples()) == set(Graph(sample_graph))


def run_section(store, dangling=None):
    """The sorted-run section a version 5 file carried after its triples:
    run count, then per run the predicate id, the order tag, the length and
    the key and value columns.  ``dangling`` ("keys" or "values") puts an id
    outside the dictionary at the end of that column of the first run."""
    runs = {}
    for order, tag in (("pso", "s"), ("pos", "o")):
        for predicate, key, value in recount.resorted(store)[order]:
            runs.setdefault((predicate, tag), []).append((key, value))
    out = [struct.pack("<I", len(runs))]
    for index, ((predicate, order), pairs) in enumerate(sorted(runs.items())):
        keys, values = ([list(column) for column in zip(*pairs)])
        if index == 0 and dangling:
            (keys if dangling == "keys" else values)[-1] = len(store.dictionary)
        out.append(struct.pack(f"<IBI{2 * len(pairs)}I", predicate, "so".index(order),
                               len(pairs), *keys, *values))
    return b"".join(out)


def as_version_5(path, store):
    """Rewrite a version 6 file as the version 5 file of ``store``: the
    same dictionary and triples, then the run section v5 carried."""
    data = bytearray(path.read_bytes())
    data[8:10] = struct.pack("<H", 5)
    path.write_bytes(bytes(data))
    reseal(path, lambda body: body + run_section(store))


class TestFormatVersion6:
    """Version 6 holds the dictionary and the triples; the permutations are
    sorted at load.  Files of an older version are rejected, and rebuilt by
    the dataset cache."""

    def test_loaded_permutations_equal_a_fresh_sort(self, tmp_path):
        for family in (IndexedStore, MemoryStore):
            store = family(sample_triples())
            path = tmp_path / f"{family.name}.sp2b"
            save_snapshot(store, path)
            loaded = IndexedStore.load(path)
            assert recount.permutations(loaded) == recount.resorted(loaded)
            assert recount.resorted(loaded) == recount.resorted(store)
            assert loaded.version == 0

    def test_the_file_ends_with_the_triples(self, tmp_path):
        store = IndexedStore(sample_triples())
        path = tmp_path / "v6.sp2b"
        save_snapshot(store, path)
        triples = sorted(store.triples_ids())
        # No run section follows the triple count and the id columns.
        assert path.read_bytes().endswith(struct.pack(
            f"<I{3 * len(triples)}I", len(triples),
            *(component for triple in triples for component in triple)))

    def test_version_5_is_rejected(self, tmp_path):
        assert SNAPSHOT_FORMAT_VERSION == 6
        store = IndexedStore(sample_triples())
        path = tmp_path / "old.sp2b"
        save_snapshot(store, path)
        as_version_5(path, store)
        with pytest.raises(SnapshotVersionError, match="version 5, this build reads version 6"):
            load_snapshot(path)
        with pytest.raises(SnapshotVersionError):
            MemoryStore.load(path)

    def test_dataset_cache_rebuilds_a_version_5_entry(self, tmp_path):
        from repro.cache import DatasetCache
        from repro.generator import GeneratorConfig

        cache = DatasetCache(tmp_path / "cache")
        config = GeneratorConfig(triple_limit=300, seed=3)
        built = cache.resolve(config)
        as_version_5(built.path, built.store)
        rebuilt = cache.resolve(config)
        assert not rebuilt.hit
        assert set(rebuilt.store.triples_ids()) == set(built.store.triples_ids())
        assert struct.unpack_from("<H", built.path.read_bytes(), 8)[0] == 6
        assert cache.resolve(config).hit

    def test_vectorized_queries_on_loaded_runs(self, tmp_path, generated_graph_small):
        fresh = IndexedStore(generated_graph_small)
        path = tmp_path / "vec.sp2b"
        save_snapshot(fresh, path)
        loaded = load_snapshot(path)
        loaded_engine = SparqlEngine(NATIVE_COST, store=loaded)
        fresh_engine = SparqlEngine(NATIVE_COST, store=fresh)
        for query_id in ("Q2", "Q4", "Q6", "Q9"):
            text = get_query(query_id).text
            fresh_result = fresh_engine.query(text)
            loaded_result = loaded_engine.query(text)
            if fresh_result.form == "SELECT":
                assert fresh_result.as_multiset() == loaded_result.as_multiset()
            else:
                assert bool(fresh_result) == bool(loaded_result)


class TestHardening:
    """Every damaged file raises a SnapshotError subclass; none loads."""

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    def test_every_bit_flip_and_truncation_is_rejected(self, tmp_path, family,
                                                       monkeypatch):
        path = tmp_path / "small.sp2b"
        family(sample_triples()[:3]).save(path)
        original = path.read_bytes()
        damaged = [original[:length] for length in range(len(original))]
        for position in range(len(original)):
            for bit in range(8):
                flipped = bytearray(original)
                flipped[position] ^= 1 << bit
                damaged.append(bytes(flipped))
        # The loader reads the variant from memory: thousands of file
        # writes would be most of the sweep's time.
        variant = {}
        monkeypatch.setattr(snapshot_module, "open",
                            lambda *_args: io.BytesIO(variant["data"]),
                            raising=False)
        loaded = []
        for data in damaged:
            variant["data"] = data
            try:
                family.load(path)
            except SnapshotError:
                continue
            loaded.append(data)
        # The CRC covers metadata and payload, and the header has no byte
        # that nothing reads, so not even the original store comes back.
        assert loaded == []

    @pytest.mark.parametrize("family", [MemoryStore, IndexedStore])
    def test_triple_id_outside_the_dictionary(self, tmp_path, family):
        store = family(sample_triples())
        store.dictionary._id_to_term.pop()  # the last triple's object
        path = tmp_path / "dangling.sp2b"
        save_snapshot(store, path)
        with pytest.raises(SnapshotCorruptError, match="not in the 8-term dictionary"):
            family.load(path)

    @pytest.mark.parametrize("column", ["keys", "values"])
    def test_a_run_section_is_trailing_data(self, tmp_path, column):
        # A version 5 run section, here with an id outside the dictionary,
        # behind a CRC-valid version 6 payload: nothing reads it as runs.
        store = IndexedStore(sample_triples())
        path = tmp_path / "dangling.sp2b"
        save_snapshot(store, path)
        section = run_section(store, dangling=column)
        reseal(path, lambda body: body + section)
        with pytest.raises(SnapshotCorruptError,
                           match=f"{len(section)} byte\\(s\\) after its last section"):
            load_snapshot(path)

    def test_duplicate_terms_and_triples(self, tmp_path):
        store = MemoryStore(sample_triples())
        store.dictionary._id_to_term.append(store.dictionary.decode(0))
        path = tmp_path / "terms.sp2b"
        save_snapshot(store, path)
        with pytest.raises(SnapshotCorruptError, match="duplicate terms"):
            load_snapshot(path)
        store = MemoryStore(sample_triples())
        store.triples_ids = lambda: [*store._triples, next(iter(store._triples))]
        save_snapshot(store, path)
        with pytest.raises(SnapshotCorruptError, match="duplicate triples"):
            MemoryStore.load(path)

    def test_longer_file_is_trailing_data_not_truncation(self, tmp_path):
        path = tmp_path / "long.sp2b"
        save_snapshot(IndexedStore(sample_triples()), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotCorruptError, match="trailing data"):
            load_snapshot(path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(SnapshotCorruptError, match="truncated snapshot"):
            load_snapshot(path)

    @pytest.mark.parametrize("offset", [10, 11])
    def test_reserved_header_bytes_must_be_zero(self, tmp_path, offset):
        path = tmp_path / "reserved.sp2b"
        save_snapshot(IndexedStore(sample_triples()), path)
        data = bytearray(path.read_bytes())
        data[offset] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="reserved header bytes"):
            load_snapshot(path)
        with pytest.raises(SnapshotFormatError, match="reserved header bytes"):
            read_snapshot_metadata(path)
