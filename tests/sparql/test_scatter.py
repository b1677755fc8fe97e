"""Scatter-gather evaluation over partitioned stores.

Equality tests pin ``parallel=False`` so they exercise the sequential
per-segment path deterministically; the pool tests are gated on fork
availability and verify the persistent :class:`SegmentPool` lifecycle
(reuse, retirement on mutation, fallback on failure).
"""

from collections import Counter

import pytest

from repro.queries import get_query
from repro.rdf import DC, RDF, Triple, Variable
from repro.sparql import (
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    IdSpaceEvaluation,
    SlotLayout,
    SparqlEngine,
    algebra,
)
from repro.sparql.results import AskResult
from repro.sparql.planner import (
    SCATTER_BROADCAST,
    SCATTER_UNION,
    scatter_strategy,
)
from repro.sparql.scatter import (
    ScatterError,
    SegmentPool,
    close_pool,
    pool_available,
    pool_for,
)
from repro.store import IndexedStore, PartitionedStore

needs_fork = pytest.mark.skipif(
    not pool_available(), reason="the segment pool requires fork"
)

#: Queries spanning the interesting shapes: star (union), multi-subject
#: join (broadcast), OPTIONAL, UNION, ASK, aggregation.
QUERY_IDS = ("Q1", "Q2", "Q3a", "Q4", "Q5b", "Q6", "Q8", "Q9", "Q11", "Q12a")


@pytest.fixture(scope="module")
def whole_store(generated_graph_small):
    store = IndexedStore()
    store.bulk_load(generated_graph_small)
    return store


@pytest.fixture(scope="module")
def whole_engine(whole_store):
    return SparqlEngine.from_store(whole_store, NATIVE_COST)


def _multiset(engine, query_id):
    result = engine.query(get_query(query_id).text)
    if isinstance(result, AskResult):
        return bool(result)
    return Counter(frozenset(binding.items()) for binding in result.bindings)


def test_scatter_strategy_union_for_stars():
    doc = Variable("doc")
    patterns = [
        Triple(doc, RDF.type, Variable("t")),
        Triple(doc, DC.title, Variable("title")),
    ]
    assert scatter_strategy(patterns) == SCATTER_UNION


def test_scatter_strategy_broadcast_across_subjects():
    patterns = [
        Triple(Variable("a"), DC.creator, Variable("p")),
        Triple(Variable("b"), DC.creator, Variable("p")),
    ]
    assert scatter_strategy(patterns) == SCATTER_BROADCAST


@pytest.mark.parametrize("shards", (2, 4))
@pytest.mark.parametrize("query_id", QUERY_IDS)
def test_sequential_scatter_equals_single_store(
    whole_store, whole_engine, shards, query_id
):
    part = PartitionedStore.from_store(whole_store, shards, parallel=False)
    engine = SparqlEngine.from_store(part, NATIVE_COST)
    assert _multiset(engine, query_id) == _multiset(whole_engine, query_id)


def test_explain_renders_scatter_strategy(whole_store):
    part = PartitionedStore.from_store(whole_store, 4, parallel=False)
    engine = SparqlEngine.from_store(part, NATIVE_COST)
    rendered = engine.explain(get_query("Q2").text).render()
    assert "scatter=union" in rendered
    # A join across two subject variables must show the broadcast strategy.
    rendered = engine.explain(
        "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
        "SELECT ?a ?b WHERE { ?a dc:creator ?p . ?b dc:creator ?p }"
    ).render()
    assert "scatter=broadcast" in rendered


def test_explain_actuals_accumulate_across_segments(whole_store, whole_engine):
    """Observe mode sums per-segment rows into the shared plan steps."""
    part = PartitionedStore.from_store(whole_store, 4, parallel=False)
    engine = SparqlEngine.from_store(part, NATIVE_COST)
    text = get_query("Q2").text
    sharded = [
        (step.estimate, step.actual)
        for step in engine.explain(text).plan_steps()
    ]
    whole = [
        (step.estimate, step.actual)
        for step in whole_engine.explain(text).plan_steps()
    ]
    assert sharded == whole  # merged statistics + summed per-segment actuals


def test_single_segment_store_never_scatters(whole_store, whole_engine):
    part = PartitionedStore.from_store(whole_store, 1)
    engine = SparqlEngine.from_store(part, NATIVE_COST)
    rendered = engine.explain(get_query("Q2").text).render()
    assert "scatter=" not in rendered
    assert _multiset(engine, "Q2") == _multiset(whole_engine, "Q2")


# -- the persistent pool ----------------------------------------------------


@pytest.fixture
def pooled(whole_store):
    part = PartitionedStore.from_store(whole_store, 2)
    yield part
    close_pool(part)


@needs_fork
def test_pool_is_persistent_and_correct(pooled, whole_engine):
    pool = pool_for(pooled)
    assert isinstance(pool, SegmentPool)
    assert pool.workers == 2
    assert pool_for(pooled) is pool  # reused across queries
    engine = SparqlEngine.from_store(pooled, NATIVE_COST)
    for query_id in ("Q1", "Q2", "Q9"):
        assert _multiset(engine, query_id) == _multiset(whole_engine, query_id)
    assert pool_for(pooled) is pool


@needs_fork
@pytest.mark.parametrize("preset", (NATIVE_BASELINE, NATIVE_OPTIMIZED, NATIVE_COST),
                         ids=lambda config: config.name)
def test_workers_run_the_shipped_plan_and_nothing_else(pooled, whole_store,
                                                       preset):
    """A task is ``(names, planned BGP)``: what a worker returns for it is
    what the segments return in-process, whichever preset planned it."""
    engine = SparqlEngine.from_store(pooled, preset)
    whole = SparqlEngine.from_store(whole_store, preset)
    for query_id in ("Q2", "Q3a", "Q11"):
        assert _multiset(engine, query_id) == _multiset(whole, query_id)
    _parsed, tree = engine.plan(get_query("Q2").text)
    bgp = algebra.collect_bgps(tree)[0]
    assert len(bgp.patterns) > 1 and bgp.plan.scatter == SCATTER_UNION
    names = SlotLayout.for_tree(tree).names
    pooled_rows = Counter(pool_for(pooled).scatter(bgp, names))
    in_process = Counter(
        row for segment in pooled.segments
        for row in IdSpaceEvaluation(segment).solve_bgp(bgp, names)
    )
    assert pooled_rows == in_process and sum(in_process.values()) > 0


@needs_fork
def test_pool_retires_when_the_store_mutates(pooled):
    pool = pool_for(pooled)
    triple = next(iter(pooled.triples(None, RDF.type, None)))
    assert pooled.remove(triple)
    fresh = pool_for(pooled)
    assert fresh is not pool
    assert fresh.version == pooled.version
    assert pooled.add(triple)


@needs_fork
def test_pool_failure_falls_back_in_process(pooled, whole_engine, monkeypatch):
    """A broken pool never breaks the query: fallback, then stay in-process."""
    monkeypatch.setattr(
        SegmentPool, "scatter",
        lambda self, *args, **kwargs: (_ for _ in ()).throw(
            ScatterError("injected failure")
        ),
    )
    engine = SparqlEngine.from_store(pooled, NATIVE_COST)
    assert _multiset(engine, "Q2") == _multiset(whole_engine, "Q2")
    assert pooled.parallel is False  # pinned to in-process evaluation
    assert pool_for(pooled) is None


def test_parallel_false_never_builds_a_pool(whole_store):
    part = PartitionedStore.from_store(whole_store, 2, parallel=False)
    assert pool_for(part) is None


def test_close_pool_is_idempotent(whole_store):
    part = PartitionedStore.from_store(whole_store, 2)
    close_pool(part)
    close_pool(part)
