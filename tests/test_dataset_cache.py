"""Unit tests for the content-addressed dataset cache."""

from dataclasses import replace

import pytest

import recount
from repro.bench import BenchmarkHarness, ExperimentConfig
from repro.cache import (
    DatasetCache,
    combined_cache_key,
    dataset_key,
    default_cache_dir,
    resolve_dataset,
)
from repro.generator import GeneratorConfig
from repro.queries import get_query
from repro.sparql import NATIVE_OPTIMIZED
from repro.store import IndexedStore, MemoryStore


@pytest.fixture()
def cache(tmp_path):
    return DatasetCache(tmp_path / "cache")


SMALL = GeneratorConfig(triple_limit=500, seed=7)


class TestKeys:
    def test_key_is_deterministic(self):
        assert dataset_key(SMALL) == dataset_key(GeneratorConfig(triple_limit=500, seed=7))

    def test_key_covers_every_generator_knob(self):
        base = dataset_key(SMALL)
        assert dataset_key(replace(SMALL, seed=8)) != base
        assert dataset_key(replace(SMALL, triple_limit=501)) != base
        assert dataset_key(replace(SMALL, abstract_fraction=0.02)) != base

    def test_key_covers_generator_code(self, monkeypatch):
        # Editing the generator sources must invalidate every cached
        # dataset — a config-identical entry built by older code is stale.
        import repro.cache as cache_module

        base = dataset_key(SMALL)
        assert cache_module._generator_code_digest()  # real digest computed
        monkeypatch.setattr(
            cache_module, "_generator_digest_cache", "different-code"
        )
        assert dataset_key(SMALL) != base

    def test_key_is_human_readable(self):
        assert dataset_key(SMALL).startswith("500t-")
        assert dataset_key(GeneratorConfig(end_year=1950)).startswith("y1950-")

    def test_combined_key_order_independent(self):
        a = GeneratorConfig(triple_limit=100)
        b = GeneratorConfig(triple_limit=200)
        assert combined_cache_key([a, b]) == combined_cache_key([b, a])
        assert combined_cache_key([a]) != combined_cache_key([b])


class TestResolve:
    def test_miss_builds_and_saves(self, cache):
        resolved = cache.resolve(SMALL)
        assert not resolved.hit
        assert resolved.path.exists()
        assert isinstance(resolved.store, IndexedStore)
        assert len(resolved.store) >= 500
        assert resolved.statistics["triples"] >= 500

    def test_hit_loads_identical_store_and_statistics(self, cache):
        built = cache.resolve(SMALL)
        loaded = cache.resolve(SMALL)
        assert loaded.hit
        assert set(loaded.store.triples()) == set(built.store.triples())
        assert recount.statistics_of(loaded.store) == \
            recount.statistics_of(built.store)
        assert loaded.statistics == built.statistics
        assert len(list(cache.root.glob("*.sp2b"))) == 1

    def test_one_entry_loads_as_either_family(self, cache):
        resolved = cache.resolve(SMALL)
        memory = MemoryStore.load(resolved.path)
        assert memory.dictionary._id_to_term == resolved.store.dictionary._id_to_term
        assert set(memory._triples) == set(resolved.store.triples_ids())
        assert cache.resolve(SMALL).hit
        assert len(cache.entries()) == 1

    def test_corrupt_entry_is_rebuilt(self, cache):
        resolved = cache.resolve(SMALL)
        resolved.path.write_bytes(b"garbage" * 100)
        rebuilt = cache.resolve(SMALL)
        assert not rebuilt.hit
        assert set(rebuilt.store.triples()) == set(resolved.store.triples())

    def test_remove_and_clear(self, cache):
        cache.resolve(SMALL)
        cache.resolve(replace(SMALL, seed=8))
        assert cache.remove(SMALL)
        assert not cache.remove(SMALL)
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_entries_expose_metadata(self, cache):
        cache.resolve(SMALL)
        (entry,) = cache.entries()
        assert entry.key == dataset_key(SMALL)
        assert entry.metadata["triples"] >= 500
        assert entry.size_bytes > 0

    def test_unwritable_cache_dir_still_returns_store(self, tmp_path):
        # Best-effort cache: an uncreatable cache directory must not fail
        # the bench run — the store is built and returned, not persisted.
        # (A regular file where the directory should go defeats mkdir even
        # for root, unlike permission bits.)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        resolved = DatasetCache(blocker / "cache").resolve(SMALL)
        assert not resolved.hit
        assert len(resolved.store) >= 500
        assert not resolved.path.exists()

    def test_warm_hit_recalls_generation_time_not_load_time(self, cache):
        built = cache.resolve(SMALL)
        assert built.generation_time > 0
        hit = cache.resolve(SMALL)
        # The hit's own elapsed is the (fast) snapshot load; its
        # generation_time is the recorded build-time measurement.
        assert hit.generation_time == pytest.approx(built.generation_time)

    def test_prune_keeps_only_named_keys(self, cache):
        kept = cache.resolve(SMALL)
        cache.resolve(replace(SMALL, seed=8))
        orphan = cache.root / "stale.sp2b.tmp.42"
        orphan.write_bytes(b"half-written")
        assert cache.prune([kept.key]) == 1
        assert not orphan.exists()
        (entry,) = cache.entries()
        assert entry.key == kept.key

    def test_clear_sweeps_orphaned_temp_files(self, cache):
        cache.resolve(SMALL)
        orphan = cache.root / "indexed-500t-deadbeef.sp2b.tmp.999"
        orphan.write_bytes(b"half-written")
        assert cache.clear() == 1
        assert not orphan.exists()

    def test_resolve_dataset_convenience(self, tmp_path):
        resolved = resolve_dataset(
            cache_dir=tmp_path / "c", triple_limit=300, seed=7
        )
        assert resolved.path.parent == tmp_path / "c"
        assert len(resolved.store) >= 300


class TestDefaultDirectory:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SP2B_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("SP2B_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "sp2bench"


class TestHarnessIntegration:
    def test_harness_resolves_documents_through_cache(self, tmp_path):
        config = ExperimentConfig(
            document_sizes=(400,),
            engines=(NATIVE_OPTIMIZED,),
            queries=(get_query("Q1"),),
            trace_memory=False,
            cache_dir=str(tmp_path / "cache"),
        )
        harness = BenchmarkHarness(config)
        first_documents = harness.generate_documents()
        assert len(list((tmp_path / "cache").glob("*.sp2b"))) == 1
        # The cached document is a store, still a valid triple source.
        document, _elapsed, stats = first_documents[400]
        assert isinstance(document, IndexedStore)
        assert stats["triples"] >= 400

        first = harness.run(first_documents)
        second = harness.run()  # re-resolves: must hit the cache
        assert len(list((tmp_path / "cache").glob("*.sp2b"))) == 1
        assert first.result_sizes(400) == second.result_sizes(400)

    def test_uncached_harness_behaviour_unchanged(self):
        config = ExperimentConfig(
            document_sizes=(400,),
            engines=(NATIVE_OPTIMIZED,),
            queries=(get_query("Q1"),),
            trace_memory=False,
        )
        documents = BenchmarkHarness(config).generate_documents()
        document, _elapsed, stats = documents[400]
        from repro.rdf import Graph

        assert isinstance(document, Graph)
        assert stats["triples"] >= 400

    def test_cached_and_fresh_runs_agree(self, tmp_path):
        queries = (get_query("Q1"), get_query("Q5a"), get_query("Q11"))
        base = dict(
            document_sizes=(600,),
            engines=(NATIVE_OPTIMIZED,),
            queries=queries,
            trace_memory=False,
        )
        fresh = BenchmarkHarness(ExperimentConfig(**base)).run()
        cached = BenchmarkHarness(
            ExperimentConfig(cache_dir=str(tmp_path / "cache"), **base)
        ).run()
        assert fresh.result_sizes(600) == cached.result_sizes(600)
