"""The two-level statement cache behind ``SparqlEngine.prepare_cached``.

Level one (parsed query + translated, filter-pushed algebra) depends on the
text alone; level two (the plan) is kept across a store update exactly when
no predicate whose statistics it read was touched.  These tests count calls
of the front-end entry points instead of timing anything.
"""

import pytest

from repro.generator import DblpGenerator, GeneratorConfig
from repro.obs import disable_metrics, enable_metrics
from repro.queries import AGGREGATE_QUERIES, ALL_QUERIES
from repro.sparql import (
    IN_MEMORY_OPTIMIZED,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    SparqlEngine,
    algebra,
    planner,
)
from repro.sparql import engine as engine_module
from repro.store import IndexedStore, MemoryStore, MvccStore

#: Touches a predicate no catalog query (and no text below) mentions.
UNRELATED_INSERT = 'INSERT DATA {{ <http://x/s{0}> <http://x/unrelated> "{0}" }}'

TITLES = "SELECT ?d ?t WHERE { ?d dc:title ?t . ?d dcterms:issued ?yr }"
ANY_PREDICATE = "SELECT ?p ?o WHERE { <http://x/s0> ?p ?o }"


@pytest.fixture(scope="module")
def graph():
    return DblpGenerator(GeneratorConfig(triple_limit=3_000)).graph()


def build_engine(graph, config, mvcc=True):
    store = MemoryStore(graph) if config.store_type == "memory" else IndexedStore(graph)
    return SparqlEngine(config, store=MvccStore(store) if mvcc else store)


@pytest.fixture()
def calls(monkeypatch):
    """Counts of ``parse_query`` / ``plan_tree`` calls."""
    counts = {"parse": 0, "plan": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(engine_module, "parse_query", "parse")
    counting(planner, "plan_tree", "plan")
    return counts


def plan_shape(tree):
    """Pattern order, access paths, filter placement and join choices of a
    planned tree."""
    shape = []
    for node in algebra.walk(tree):
        if isinstance(node, algebra.BGP):
            plan = node.plan
            steps = [(step.pattern, step.join_vars) for step in plan.steps]
            shape.append((list(node.patterns), plan.access, list(plan.filters), steps))
        elif isinstance(node, algebra.Join):
            shape.append(None if node.plan is None else node.plan.strategy)
    return shape


class TestPlanReuseAcrossPublishes:
    def test_unrelated_publish_costs_neither_parse_nor_plan(self, graph, calls):
        engine = build_engine(graph, NATIVE_COST)
        first = engine.prepare_cached(TITLES)
        assert (calls["parse"], calls["plan"]) == (1, 1)
        engine.update(UNRELATED_INSERT.format(0))
        assert engine.prepare_cached(TITLES) is first
        assert (calls["parse"], calls["plan"]) == (1, 1)
        # Restamped: the next hit is one integer compare again.
        assert engine._prepared_cache[TITLES].version == engine.store.version

    def test_publish_touching_a_mentioned_predicate_replans_without_parsing(
            self, graph, calls):
        engine = build_engine(graph, NATIVE_COST)
        first = engine.prepare_cached(TITLES)
        before = len(first.run().all())
        engine.update('INSERT DATA { <http://x/d> dc:title "t" ; dcterms:issued 1999 }')
        second = engine.prepare_cached(TITLES)
        assert second is not first
        assert (calls["parse"], calls["plan"]) == (1, 2)
        assert engine.prepare_cached(TITLES) is second
        assert len(second.run().all()) == before + 1
        assert plan_shape(second.tree) == plan_shape(engine.prepare(TITLES).tree)

    def test_variable_predicate_text_replans_on_every_publish(self, graph, calls):
        engine = build_engine(graph, NATIVE_COST)
        first = engine.prepare_cached(ANY_PREDICATE)
        engine.update(UNRELATED_INSERT.format(0))
        second = engine.prepare_cached(ANY_PREDICATE)
        assert second is not first
        assert (calls["parse"], calls["plan"]) == (1, 2)
        assert len(second.run().all()) == 1

    def test_greedy_reorder_belongs_to_the_plan_level(self, graph, calls):
        engine = build_engine(graph, NATIVE_OPTIMIZED)
        first = engine.prepare_cached(TITLES)
        assert (calls["parse"], calls["plan"]) == (1, 1)
        engine.update(UNRELATED_INSERT.format(0))
        assert engine.prepare_cached(TITLES) is first
        assert calls["plan"] == 1
        engine.update("DELETE WHERE { ?d dcterms:issued ?yr }")
        second = engine.prepare_cached(TITLES)
        assert second is not first
        assert (calls["parse"], calls["plan"]) == (1, 2)
        # With no dcterms:issued triple left, that pattern now goes first.
        assert plan_shape(second.tree) == plan_shape(engine.prepare(TITLES).tree)
        assert plan_shape(second.tree) != plan_shape(first.tree)

    def test_plain_indexed_store_follows_the_same_rule(self, graph, calls):
        engine = build_engine(graph, NATIVE_COST, mvcc=False)
        first = engine.prepare_cached(TITLES)
        engine.update(UNRELATED_INSERT.format(0))
        assert engine.prepare_cached(TITLES) is first
        engine.update('INSERT DATA { <http://x/d> dc:title "t" }')
        assert engine.prepare_cached(TITLES) is not first
        assert (calls["parse"], calls["plan"]) == (1, 2)

    def test_store_without_stamps_replans_per_version_but_never_reparses(
            self, graph, calls):
        engine = build_engine(graph, IN_MEMORY_OPTIMIZED)
        first = engine.prepare_cached(TITLES)
        assert engine.prepare_cached(TITLES) is first
        engine.update(UNRELATED_INSERT.format(0))
        second = engine.prepare_cached(TITLES)
        assert second is not first
        assert engine.prepare_cached(TITLES) is second
        assert calls["parse"] == 1

    def test_plan_is_stamped_with_the_generation_it_was_costed_on(
            self, graph, monkeypatch):
        engine = build_engine(graph, NATIVE_COST)
        parse_query = engine_module.parse_query
        started_at = engine.store.version

        def parse_while_a_writer_publishes(text):
            engine.update('INSERT DATA { <http://x/d> dc:title "t" }')
            return parse_query(text)

        monkeypatch.setattr(engine_module, "parse_query", parse_while_a_writer_publishes)
        first = engine.prepare_cached(TITLES)
        monkeypatch.setattr(engine_module, "parse_query", parse_query)
        # Costed on the generation pinned when the lookup began, and
        # stamped so: the dc:title insert is still ahead of it.
        assert engine._prepared_cache[TITLES].version == started_at
        assert engine.prepare_cached(TITLES) is not first


class TestCacheAccounting:
    @pytest.fixture()
    def metrics(self):
        enable_metrics()
        yield
        disable_metrics()

    def test_every_lookup_is_a_hit_a_replan_or_a_miss(self, graph, metrics,
                                                        monkeypatch):
        monkeypatch.setattr(SparqlEngine, "PREPARED_CACHE_SIZE", 2)
        engine = build_engine(graph, NATIVE_COST)
        counters = (engine._cache_hits, engine._cache_replans,
                    engine._cache_misses, engine._cache_evictions)
        start = [counter.value for counter in counters]
        lookups = 0
        for round_number in range(3):
            for text in (TITLES, ANY_PREDICATE, TITLES, "ASK { ?s dc:title ?t }"):
                engine.prepare_cached(text)
                lookups += 1
            engine.update(UNRELATED_INSERT.format(round_number))
        hits, replans, misses, evictions = (
            counter.value - begin for counter, begin in zip(counters, start))
        assert hits + replans + misses == lookups
        # Three texts through two slots: TITLES stays (a hit every time but
        # the first, across the version bumps too), the other two keep
        # evicting each other — only the LRU bound evicts.
        assert (hits, replans, misses, evictions) == (5, 0, 7, 5)

    def test_version_bumps_show_as_hits_and_replans_not_evictions(
            self, graph, metrics):
        engine = build_engine(graph, NATIVE_COST)
        counters = (engine._cache_hits, engine._cache_replans,
                    engine._cache_misses, engine._cache_evictions)
        start = [counter.value for counter in counters]
        for round_number in range(4):
            engine.prepare_cached(TITLES)
            engine.prepare_cached(ANY_PREDICATE)
            engine.update(UNRELATED_INSERT.format(round_number))
        assert [counter.value - begin for counter, begin in zip(counters, start)] \
            == [3, 3, 2, 0]


CATALOG = list(ALL_QUERIES) + list(AGGREGATE_QUERIES)


@pytest.mark.parametrize("config", (NATIVE_COST, NATIVE_OPTIMIZED, IN_MEMORY_OPTIMIZED),
                         ids=lambda config: config.name)
def test_catalog_plans_survive_twenty_unrelated_publishes(graph, config):
    engine = build_engine(graph, config)
    cached = {query.identifier: engine.prepare_cached(query.text) for query in CATALOG}
    for number in range(20):
        engine.update(UNRELATED_INSERT.format(number))
    stamped = hasattr(engine.store.snapshot(), "predicates_changed_since")
    for query in CATALOG:
        reused = engine.prepare_cached(query.text)
        fresh = engine.prepare(query.text)
        assert plan_shape(reused.tree) == plan_shape(fresh.tree), query.identifier
        depends = engine._prepared_cache[query.text].depends
        if stamped and depends is not None:
            assert reused is cached[query.identifier], query.identifier
    assert len(CATALOG) == 21
