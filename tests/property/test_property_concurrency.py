"""Property: concurrent execution over a shared engine equals serial.

The serving subsystem's core assumption: N worker threads sharing one
engine, one store, and one :class:`PreparedQuery` each produce exactly the
multiset a serial execution produces — across both store families and all
three planner families.  Also hammers the lock-protected prepared-statement
cache: concurrent misses, hits, and evictions must keep the cache bounded
and the returned plans correct.
"""

import threading

from hypothesis import given, settings, strategies as st

from repro.rdf import BENCH, DC, FOAF, RDF, Literal, Triple, URIRef
from repro.sparql import EngineConfig, SelectResult, SparqlEngine

#: One configuration per (store family, planner family) pair a server could
#: be deployed with.
_CONFIGS = tuple(
    EngineConfig(
        name=f"{store}-{family}", store_type=store,
        planner=family,
    )
    for store in ("indexed", "memory")
    for family in ("none", "greedy", "cost")
)

#: Worker threads per check and prepared-plan runs per thread.
THREADS = 4
RUNS_PER_THREAD = 3

#: A join + OPTIONAL query touching every shape the mini graphs generate.
QUERY = """
SELECT ?doc ?title ?name WHERE {
  ?doc rdf:type bench:Article .
  ?doc dc:title ?title
  OPTIONAL { ?doc dc:creator ?person . ?person foaf:name ?name }
}
"""


@st.composite
def small_graphs(draw):
    """Random but well-formed mini DBLP graphs (as in the cursor properties)."""
    triples = []
    persons = draw(st.lists(st.integers(min_value=0, max_value=4),
                            min_size=1, max_size=4, unique=True))
    for person_id in persons:
        person = URIRef(f"http://p/{person_id}")
        triples.append(Triple(person, RDF.type, FOAF.Person))
        triples.append(Triple(person, FOAF.name, Literal(f"Person {person_id}")))
    documents = draw(st.lists(st.integers(min_value=0, max_value=6),
                              min_size=1, max_size=6, unique=True))
    for doc_id in documents:
        doc = URIRef(f"http://d/{doc_id}")
        triples.append(Triple(doc, RDF.type, BENCH.Article))
        triples.append(Triple(doc, DC.title, Literal(f"Title {doc_id}")))
        author_count = draw(st.integers(min_value=0, max_value=3))
        for index in range(author_count):
            author = URIRef(f"http://p/{persons[index % len(persons)]}")
            triples.append(Triple(doc, DC.creator, author))
    return triples


def _concurrent_results(runnable, count=THREADS):
    """Run ``runnable`` on ``count`` threads; returns results or raises."""
    results = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def work(index):
        try:
            barrier.wait()
            results[index] = runnable()
        except Exception as error:  # noqa: BLE001 - surfaced below
            barrier.abort()
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestConcurrentExecutionEqualsSerial:
    @given(small_graphs())
    @settings(max_examples=10, deadline=None)
    def test_shared_prepared_query_across_threads(self, triples):
        for config in _CONFIGS:
            engine = SparqlEngine.from_graph(triples, config)
            prepared = engine.prepare(QUERY)
            serial = prepared.run().all()

            def run_many(prepared=prepared, variables=prepared.variables):
                return [
                    SelectResult(variables, list(prepared.run()))
                    for _ in range(RUNS_PER_THREAD)
                ]

            for thread_results in _concurrent_results(run_many):
                for result in thread_results:
                    assert result == serial, f"{config.name} diverged"

    @given(small_graphs())
    @settings(max_examples=10, deadline=None)
    def test_threads_sharing_engine_statement_cache(self, triples):
        """All threads go through prepare_cached on one engine at once."""
        for config in _CONFIGS:
            engine = SparqlEngine.from_graph(triples, config)
            serial = engine.query(QUERY)

            def run_cached(engine=engine):
                prepared = engine.prepare_cached(QUERY)
                return SelectResult(prepared.variables, list(prepared.run()))

            for result in _concurrent_results(run_cached):
                assert result == serial, f"{config.name} diverged"
            # Every thread shared the single cached entry.
            assert len(engine._prepared_cache) == 1


class TestStatementCacheUnderContention:
    def _texts(self, count):
        # Distinct texts that stay cheap to prepare and to run.
        return [
            f"SELECT ?s WHERE {{ ?s rdf:type foaf:Person }} LIMIT {n + 1}"
            for n in range(count)
        ]

    def test_lru_bound_holds_under_concurrent_eviction(self):
        engine = SparqlEngine.from_graph(
            [Triple(URIRef("http://p/0"), RDF.type, FOAF.Person)]
        )
        engine.PREPARED_CACHE_SIZE = 8
        texts = self._texts(32)
        counter = iter(range(THREADS))
        lock = threading.Lock()

        def churn():
            with lock:
                index = next(counter)
            rows = 0
            for offset in range(len(texts)):
                text = texts[(index * 7 + offset) % len(texts)]
                prepared = engine.prepare_cached(text)
                rows += len(prepared.run().all())
            return rows

        results = _concurrent_results(churn)
        # One Person matches every text, so each thread saw one row per run.
        assert results == [len(texts)] * THREADS
        assert len(engine._prepared_cache) <= 8

    def test_racing_threads_converge_on_one_prepared_instance(self):
        engine = SparqlEngine.from_graph(
            [Triple(URIRef("http://p/0"), RDF.type, FOAF.Person)]
        )
        text = "SELECT ?s WHERE { ?s rdf:type foaf:Person }"
        seen = _concurrent_results(lambda: engine.prepare_cached(text), count=8)
        # After the race settles, the cache holds exactly one entry and every
        # later call returns it.
        assert len(engine._prepared_cache) == 1
        cached = engine.prepare_cached(text)
        assert cached in seen