"""Tests for graph-pattern result reuse (Table II row 5 optimization)."""


from repro.rdf import BENCH, DC, FOAF, RDF, BNode, Graph, Literal, Triple, URIRef
from repro.sparql import (
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    EngineConfig,
    IdSpaceEvaluation,
    SparqlEngine,
    parse_query,
    plan_tree,
    translate_query,
)
from repro.sparql.planner import PLANNER_NONE
from repro.store import MemoryStore


class CountingStore(MemoryStore):
    """A MemoryStore that counts how many pattern scans it serves."""

    def __init__(self, triples=None):
        super().__init__(triples)
        self.scan_calls = 0

    def triples_ids(self, subject=None, predicate=None, object=None):
        self.scan_calls += 1
        return super().triples_ids(subject, predicate, object)


def run(store, tree, reuse_patterns):
    """Evaluate ``tree`` planned on ``store`` in textual order (planning
    counts nothing: a count on a scan store would be a scan)."""
    planned = plan_tree(tree, store, PLANNER_NONE)
    return list(IdSpaceEvaluation(store, reuse_patterns=reuse_patterns).bindings(planned))


def build_graph():
    g = Graph()
    journal = URIRef("http://x/journal")
    g.add(Triple(journal, RDF.type, BENCH.Journal))
    for index in range(12):
        article = URIRef(f"http://x/a{index}")
        person = BNode(f"p{index % 4}")
        g.add(Triple(article, RDF.type, BENCH.Article))
        g.add(Triple(article, DC.creator, person))
        g.add(Triple(article, URIRef("http://swrc.ontoware.org/ontology#journal"), journal))
        g.add(Triple(person, FOAF.name, Literal(f"Person {index % 4}")))
    return g


#: Q4-like query: every pattern shape occurs twice.
REPEATED_PATTERN_QUERY = """
SELECT DISTINCT ?name1 ?name2 WHERE {
  ?article1 rdf:type bench:Article .
  ?article2 rdf:type bench:Article .
  ?article1 dc:creator ?author1 .
  ?author1 foaf:name ?name1 .
  ?article2 dc:creator ?author2 .
  ?author2 foaf:name ?name2 .
  ?article1 swrc:journal ?journal .
  ?article2 swrc:journal ?journal
  FILTER (?name1 < ?name2)
}
"""


class TestEvaluatorReuse:
    def test_reuse_halves_the_number_of_scans(self):
        graph = list(build_graph())
        tree = translate_query(parse_query(REPEATED_PATTERN_QUERY))

        plain_store = CountingStore(graph)
        run(plain_store, tree, reuse_patterns=False)
        reusing_store = CountingStore(graph)
        run(reusing_store, tree, reuse_patterns=True)

        assert reusing_store.scan_calls < plain_store.scan_calls
        # Each of the four pattern shapes occurs twice, so reuse needs only
        # half the scans.
        assert reusing_store.scan_calls == plain_store.scan_calls // 2

    def test_reuse_does_not_change_results(self):
        graph = build_graph()
        baseline = SparqlEngine.from_graph(graph, IN_MEMORY_BASELINE)
        reusing = SparqlEngine.from_graph(graph, IN_MEMORY_OPTIMIZED)
        assert (baseline.query(REPEATED_PATTERN_QUERY).as_multiset()
                == reusing.query(REPEATED_PATTERN_QUERY).as_multiset())

    def test_cache_is_per_evaluation(self):
        store = CountingStore(list(build_graph()))
        tree = translate_query(parse_query("SELECT ?a WHERE { ?a rdf:type bench:Article }"))
        run(store, tree, reuse_patterns=True)
        first_calls = store.scan_calls
        run(store, tree, reuse_patterns=True)
        # A fresh evaluation starts with an empty cache, so the store is
        # consulted again (no stale results across updates).
        assert store.scan_calls == 2 * first_calls


class TestConfiguration:
    def test_inmemory_optimized_preset_enables_reuse(self):
        assert IN_MEMORY_OPTIMIZED.reuse_pattern_results is True
        assert IN_MEMORY_BASELINE.reuse_pattern_results is False

    def test_custom_config_flag(self):
        config = EngineConfig(name="custom", store_type="memory",
                              reuse_pattern_results=True)
        engine = SparqlEngine.from_graph(build_graph(), config)
        result = engine.query(REPEATED_PATTERN_QUERY)
        assert len(result) > 0
