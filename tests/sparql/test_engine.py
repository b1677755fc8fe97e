"""Unit tests for the SparqlEngine facade and result containers."""

import pytest

from repro.rdf import DC, FOAF, RDF, BNode, Graph, Literal, Triple, URIRef, Variable
from repro.sparql import (
    ENGINE_PRESETS,
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_OPTIMIZED,
    AskResult,
    EngineConfig,
    SelectResult,
    SparqlEngine,
    load_engines,
)
from repro.sparql import Binding
from repro.store import IndexedStore, MemoryStore

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def tiny_graph():
    g = Graph()
    alice = BNode("alice")
    g.add(Triple(alice, RDF.type, FOAF.Person))
    g.add(Triple(alice, FOAF.name, Literal("Alice", datatype=XSD_STRING)))
    doc = URIRef("http://x/doc")
    g.add(Triple(doc, DC.creator, alice))
    g.add(Triple(doc, DC.title, Literal("Some title", datatype=XSD_STRING)))
    return g


class TestEngineConfig:
    def test_presets_have_distinct_names(self):
        names = {config.name for config in ENGINE_PRESETS}
        assert len(names) == len(ENGINE_PRESETS) == 4

    def test_memory_presets_use_memory_store(self):
        assert isinstance(IN_MEMORY_BASELINE.create_store(), MemoryStore)
        assert isinstance(IN_MEMORY_OPTIMIZED.create_store(), MemoryStore)

    def test_native_presets_use_indexed_store(self):
        assert isinstance(NATIVE_BASELINE.create_store(), IndexedStore)
        assert isinstance(NATIVE_OPTIMIZED.create_store(), IndexedStore)

    def test_baseline_presets_disable_optimizations(self):
        assert NATIVE_BASELINE.planner == "none"
        assert not NATIVE_BASELINE.push_filters
        assert NATIVE_OPTIMIZED.planner == "greedy"
        assert NATIVE_OPTIMIZED.push_filters

    def test_unknown_store_type_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(store_type="bogus").create_store()

    def test_unknown_store_type_rejected_at_construction(self):
        # Not only when a store is created: an engine over an explicit
        # store never asks for one.
        with pytest.raises(ValueError, match="unknown store type 'bogus'"):
            EngineConfig(store_type="bogus")


class TestEngineLifecycle:
    def test_default_config_is_native_optimized(self):
        assert SparqlEngine().config is NATIVE_OPTIMIZED

    def test_load_returns_triple_count(self):
        engine = SparqlEngine()
        assert engine.load(tiny_graph()) == len(tiny_graph())

    def test_from_graph_builds_loaded_engine(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        assert len(engine.store) == len(tiny_graph())

    def test_load_engines_builds_all_presets(self):
        engines = load_engines(tiny_graph())
        assert [e.config.name for e in engines] == [c.name for c in ENGINE_PRESETS]

    def test_load_engines_accepts_triple_iterable(self):
        engines = load_engines(list(tiny_graph()), configs=(NATIVE_BASELINE,))
        assert len(engines[0].store) == len(tiny_graph())

    def test_load_engines_shares_one_store_per_family(self):
        engines = load_engines(tiny_graph())
        by_name = {engine.config.name: engine for engine in engines}
        assert (by_name["inmemory-baseline"].store
                is by_name["inmemory-optimized"].store)
        assert (by_name["native-baseline"].store
                is by_name["native-optimized"].store)
        assert (by_name["inmemory-baseline"].store
                is not by_name["native-baseline"].store)

    def test_load_engines_iterates_graph_once_per_family(self):
        class CountingGraph(Graph):
            iterations = 0

            def __iter__(self):
                CountingGraph.iterations += 1
                return super().__iter__()

        graph = CountingGraph()
        for triple in tiny_graph():
            graph.add(triple)
        load_engines(graph)
        # Four presets over two store families: the source is consumed once
        # per family, not once per preset.
        assert CountingGraph.iterations == 2


class TestQueryHelpers:
    def test_select_returns_rows(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        rows = engine.select("SELECT ?name WHERE { ?p foaf:name ?name }")
        assert rows == [(Literal("Alice", datatype=XSD_STRING),)]

    def test_ask_returns_bool(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        assert engine.ask("ASK { ?p rdf:type foaf:Person }") is True
        assert engine.ask("ASK { ?p rdf:type foaf:Organization }") is False

    def test_query_returns_select_result(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        result = engine.query("SELECT ?p WHERE { ?p rdf:type foaf:Person }")
        assert isinstance(result, SelectResult)
        assert len(result) == 1

    def test_query_returns_ask_result(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        result = engine.query("ASK { ?p rdf:type foaf:Person }")
        assert isinstance(result, AskResult)
        assert bool(result) is True

    def test_select_star_projects_all_variables(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        result = engine.query("SELECT * WHERE { ?d dc:creator ?p }")
        assert {str(v) for v in result.variables} == {"?d", "?p"}

    def test_plan_exposes_algebra(self):
        engine = SparqlEngine.from_graph(tiny_graph())
        parsed, tree = engine.plan("SELECT ?p WHERE { ?p rdf:type foaf:Person }")
        assert parsed.form == "SELECT"
        assert tree is not None


class TestResults:
    def test_rows_follow_projection_order(self):
        result = SelectResult(
            [Variable("a"), Variable("b")],
            [Binding({"a": Literal("1"), "b": Literal("2")})],
        )
        assert result.rows() == [(Literal("1"), Literal("2"))]

    def test_column_extraction(self):
        result = SelectResult(
            [Variable("a")],
            [Binding({"a": Literal("1")}), Binding({"a": Literal("2")})],
        )
        assert result.column("a") == [Literal("1"), Literal("2")]

    def test_multiset_equality_is_order_insensitive(self):
        rows = [Binding({"a": Literal("1")}), Binding({"a": Literal("2")})]
        left = SelectResult([Variable("a")], rows)
        right = SelectResult([Variable("a")], list(reversed(rows)))
        assert left == right

    def test_multiset_equality_counts_duplicates(self):
        one = SelectResult([Variable("a")], [Binding({"a": Literal("1")})])
        two = SelectResult([Variable("a")], [Binding({"a": Literal("1")})] * 2)
        assert one != two

    def test_ask_result_equality_and_len(self):
        assert AskResult(True) == True  # noqa: E712 - intentional comparison
        assert AskResult(False) == AskResult(False)
        assert len(AskResult(True)) == 1


class TestCrossEngineAgreement:
    QUERIES = (
        "SELECT ?name WHERE { ?p foaf:name ?name }",
        "SELECT ?d ?p WHERE { ?d dc:creator ?p . ?p rdf:type foaf:Person }",
        "ASK { ?p rdf:type foaf:Person }",
    )

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_all_presets_agree(self, query_text):
        engines = load_engines(tiny_graph())
        results = [engine.query(query_text) for engine in engines]
        reference = results[0]
        for other in results[1:]:
            if isinstance(reference, AskResult):
                assert bool(other) == bool(reference)
            else:
                assert other.as_multiset() == reference.as_multiset()
