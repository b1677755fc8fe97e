"""Property: batch-kernel evaluation equals the tuple path on the catalog.

The vectorized executor (sparql/kernels.py + the block pipeline in
``IdSpaceEvaluation``) is a pure physical-layer change: for every catalog
query and document size it must produce exactly the multiset the
tuple-at-a-time path produces.  Row *order* is explicitly not part of the
contract — block execution emits in block order, and DISTINCT without
ORDER BY leaves order unspecified — so the properties compare multisets,
and under LIMIT they check window size plus membership in the full result.
Deadline plumbing is exercised at block granularity: an already-expired
deadline must abort both paths, and a generous one must not change results.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracle
from repro.generator import DblpGenerator, GeneratorConfig
from repro.queries import ALL_QUERIES, get_query
from repro.rdf import BENCH, DC, FOAF, RDF, Graph, Triple, URIRef
from repro.sparql import NATIVE_COST, QueryTimeout, SparqlEngine, algebra
from repro.sparql.cursor import Deadline
from repro.sparql.planner import KERNEL
from repro.sparql.results import AskResult

#: Document sizes the issue pins down: small enough for property-test
#: budgets, large enough that every kernel (merge-join, batch probe,
#: columnar filters, block DISTINCT) sees multi-block inputs at 5k.
SIZES = (1000, 5000)

QUERY_IDS = tuple(query.identifier for query in ALL_QUERIES)


@pytest.fixture(scope="module")
def engines(reference):
    """size -> (vectorized engine, tuple-path reference) sharing one store,
    built once per size — hypothesis draws must not rebuild 5k-triple stores."""
    pairs = {}

    def build(size):
        pair = pairs.get(size)
        if pair is None:
            graph = DblpGenerator(
                GeneratorConfig(triple_limit=size, seed=823645187)
            ).graph()
            batch = SparqlEngine.from_graph(graph, NATIVE_COST)
            pair = pairs[size] = (batch, reference.tuple_path(batch))
        return pair

    return build


def _multiset(result):
    if isinstance(result, AskResult):
        return bool(result)
    return Counter(
        frozenset(binding.items()) for binding in result.bindings
    )


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query_id=st.sampled_from(QUERY_IDS), size=st.sampled_from(SIZES))
def test_batch_equals_tuple_path(engines, query_id, size):
    """Full results are multiset-equal across the two physical paths."""
    batch, tuple_path = engines(size)
    text = get_query(query_id).text
    assert _multiset(batch.query(text)) == _multiset(tuple_path.query(text))


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    query_id=st.sampled_from(
        tuple(q.identifier for q in ALL_QUERIES if q.form == "SELECT")
    ),
    size=st.sampled_from(SIZES),
    limit=st.integers(min_value=0, max_value=25),
)
def test_batch_limit_window_is_subset(engines, query_id, size, limit):
    """LIMIT pushdown through block iterators stays within the full result.

    The two paths may order rows differently, so the checkable contract is:
    the window has ``min(limit, total)`` rows and every row is drawn from
    the full multiset (with multiplicity).
    """
    batch, tuple_path = engines(size)
    prepared = batch.prepare(get_query(query_id).text)
    full = _multiset(tuple_path.query(get_query(query_id).text))
    window = Counter(
        frozenset(binding.items()) for binding in prepared.run(limit=limit)
    )
    assert sum(window.values()) == min(limit, sum(full.values()))
    assert all(window[row] <= full[row] for row in window)


@pytest.mark.parametrize("query_id", ("Q2", "Q4", "Q6", "Q9"))
def test_expired_deadline_aborts_block_pipeline(engines, query_id):
    """An already-expired deadline stops both paths mid-stream."""
    batch, tuple_path = engines(SIZES[0])
    for engine in (batch, tuple_path):
        prepared = engine.prepare(get_query(query_id).text)
        with pytest.raises(QueryTimeout):
            list(prepared.run(deadline=Deadline(0.0)))


@pytest.mark.parametrize("query_id", ("Q2", "Q6"))
def test_generous_deadline_is_invisible(engines, query_id):
    """A deadline that never fires must not perturb batch results."""
    batch, tuple_path = engines(SIZES[0])
    text = get_query(query_id).text
    bounded = Counter(
        frozenset(binding.items())
        for binding in batch.prepare(text).run(timeout=600.0)
    )
    assert bounded == _multiset(tuple_path.query(text))


class KernelsEverywhere(SparqlEngine):
    """Plans as native-cost does, then marks every standalone BGP for the
    batch kernels, however cheap: each pattern shape runs on them."""

    def _plan_algebra(self, tree, store):
        planned = super()._plan_algebra(tree, store)
        for node in algebra.collect_bgps(planned):
            if not node.plan.outer_bound:
                node.plan.access = KERNEL
        return planned


LOOP = URIRef("http://example.org/loop")
#: Few variables, so that patterns share and repeat them often.
VARIABLES = ("?a", "?b", "?c")


@pytest.fixture(scope="module")
def shapes(sample_graph):
    """(engine, triples, per-position term pools) over the sample graph plus
    a triple whose subject is its object and one whose object is its
    predicate."""
    articles = sorted((triple.subject for triple in sample_graph
                       if triple.object == BENCH.Article), key=str)
    names = sorted((triple.object for triple in sample_graph
                    if triple.predicate == FOAF.name), key=str)
    triples = list(sample_graph) + [Triple(articles[0], LOOP, articles[0]),
                                    Triple(articles[1], LOOP, LOOP)]
    unknown = URIRef("http://example.org/nosuch")
    pools = [(*articles[:2], unknown), (RDF.type, DC.creator, LOOP),
             (articles[0], LOOP, BENCH.Article, names[0], unknown)]
    pools = [VARIABLES + tuple(term.n3() for term in pool) for pool in pools]
    return KernelsEverywhere.from_graph(Graph(triples), NATIVE_COST), triples, pools


@settings(deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_pattern_shape_on_the_kernels_equals_the_oracle(shapes, data):
    """One to three patterns of constants, shared, repeated and bound
    variables in any position, all on the kernels, against the naive
    reference evaluator."""
    engine, triples, pools = shapes
    patterns = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                                  min_size=1, max_size=3))
    text = "SELECT * WHERE { " + " . ".join(map(" ".join, patterns)) + " }"
    report = engine.explain(text)
    assert all(bgp.plan.access == KERNEL for bgp in algebra.collect_bgps(report.tree))
    rows = [dict(binding.items()) for binding in engine.query(text).bindings]
    assert oracle.multiset(rows) == oracle.multiset(oracle.evaluate(text, triples)), text
