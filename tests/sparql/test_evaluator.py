"""Unit tests for algebra evaluation semantics, on both plan-step strategies."""

import pytest

from repro.rdf import (
    BENCH,
    DC,
    DCTERMS,
    FOAF,
    RDF,
    BNode,
    Graph,
    Literal,
    Triple,
    URIRef,
)
from repro.sparql import IdSpaceEvaluation, parse_query, translate_query
from repro.sparql.algebra import Ask, collect_bgps
from repro.sparql.planner import PROBE, SCAN, textual_plan
from repro.store import IndexedStore, MemoryStore

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def s(value):
    return Literal(value, datatype=XSD_STRING)


def build_graph():
    """Three documents, three persons, one abstract, one citation bag."""
    g = Graph()
    d1 = URIRef("http://x/doc1")
    d2 = URIRef("http://x/doc2")
    d3 = URIRef("http://x/doc3")
    alice, bob, carol = BNode("alice"), BNode("bob"), BNode("carol")
    for person, name in ((alice, "Alice"), (bob, "Bob"), (carol, "Carol")):
        g.add(Triple(person, RDF.type, FOAF.Person))
        g.add(Triple(person, FOAF.name, s(name)))
    for doc, year in ((d1, 1990), (d2, 1995), (d3, 2000)):
        g.add(Triple(doc, RDF.type, BENCH.Article))
        g.add(Triple(doc, DCTERMS.issued, Literal(year)))
    g.add(Triple(d1, DC.creator, alice))
    g.add(Triple(d2, DC.creator, alice))
    g.add(Triple(d2, DC.creator, bob))
    g.add(Triple(d3, DC.creator, carol))
    g.add(Triple(d1, DC.title, s("First paper")))
    g.add(Triple(d2, DC.title, s("Second paper")))
    g.add(Triple(d3, DC.title, s("Third paper")))
    g.add(Triple(d1, BENCH.abstract, s("only the first paper has an abstract")))
    bag = BNode("refs")
    g.add(Triple(d3, DCTERMS.references, bag))
    g.add(Triple(bag, RDF.type, RDF.Bag))
    g.add(Triple(bag, RDF.term("_1"), d1))
    return g


GRAPH = build_graph()


def run(query_text, strategy, store_cls=IndexedStore):
    store = store_cls(GRAPH)
    tree = translate_query(parse_query(query_text))
    for bgp in collect_bgps(tree):
        bgp.plan = textual_plan(bgp.patterns, strategy)
    evaluation = IdSpaceEvaluation(store)
    if isinstance(tree, Ask):
        return evaluation.ask(tree.operand)
    return list(evaluation.bindings(tree))


STRATEGIES = (PROBE, SCAN)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestBGP:
    def test_single_pattern(self, strategy):
        rows = run("SELECT ?d WHERE { ?d rdf:type bench:Article }", strategy)
        assert len(rows) == 3

    def test_join_on_shared_variable(self, strategy):
        rows = run(
            "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }", strategy
        )
        assert len(rows) == 4

    def test_ground_pattern_acts_as_existence_check(self, strategy):
        rows = run(
            'SELECT ?d WHERE { ?d dc:title "First paper"^^xsd:string . '
            "?d rdf:type bench:Article }",
            strategy,
        )
        assert len(rows) == 1

    def test_empty_result_when_no_match(self, strategy):
        rows = run("SELECT ?d WHERE { ?d rdf:type bench:Journal }", strategy)
        assert rows == []

    def test_variable_predicate(self, strategy):
        rows = run("SELECT ?p WHERE { <http://x/doc1> ?p ?o }", strategy)
        predicates = {row.get("p") for row in rows}
        assert DC.creator in predicates and DC.title in predicates

    def test_cartesian_product_when_no_shared_variable(self, strategy):
        rows = run(
            "SELECT ?a ?b WHERE { ?a rdf:type bench:Article . ?b rdf:type foaf:Person }",
            strategy,
        )
        assert len(rows) == 9

    def test_repeated_variable_in_pattern_requires_equality(self, strategy):
        # ?x ?p ?x only matches triples with identical subject and object;
        # the sample graph has none.
        rows = run("SELECT ?x WHERE { ?x ?p ?x }", strategy)
        assert rows == []


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestFilter:
    def test_numeric_filter(self, strategy):
        rows = run(
            "SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?yr > 1992) }", strategy
        )
        assert len(rows) == 2

    def test_filter_on_names(self, strategy):
        rows = run(
            'SELECT ?p WHERE { ?p foaf:name ?n FILTER (?n != "Alice"^^xsd:string) }',
            strategy,
        )
        assert len(rows) == 2

    def test_filter_with_unbound_variable_drops_all(self, strategy):
        rows = run(
            "SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?nosuch > 1992) }", strategy
        )
        assert rows == []


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestOptional:
    def test_optional_keeps_unmatched_left_rows(self, strategy):
        rows = run(
            "SELECT ?d ?a WHERE { ?d rdf:type bench:Article "
            "OPTIONAL { ?d bench:abstract ?a } }",
            strategy,
        )
        assert len(rows) == 3
        bound = [row for row in rows if row.get("a") is not None]
        assert len(bound) == 1

    def test_optional_filter_condition_references_outer_variable(self, strategy):
        # Articles with no earlier article by the same author (Q6 idiom):
        # doc1 (1990, alice) qualifies; doc2 (1995, alice+bob) has alice's
        # earlier paper so only bob's binding survives; doc3 (carol) qualifies.
        query = """
        SELECT ?d ?author WHERE {
          ?d rdf:type bench:Article .
          ?d dcterms:issued ?yr .
          ?d dc:creator ?author
          OPTIONAL {
            ?d2 rdf:type bench:Article .
            ?d2 dcterms:issued ?yr2 .
            ?d2 dc:creator ?author2
            FILTER (?author = ?author2 && ?yr2 < ?yr)
          }
          FILTER (!bound(?author2))
        }
        """
        rows = run(query, strategy)
        docs = sorted(str(row.get("d")) for row in rows)
        assert docs == ["http://x/doc1", "http://x/doc2", "http://x/doc3"]

    def test_nested_optionals(self, strategy):
        query = """
        SELECT ?d ?name ?a WHERE {
          ?d rdf:type bench:Article
          OPTIONAL {
            ?d dc:creator ?p
            OPTIONAL { ?p foaf:name ?name }
          }
          OPTIONAL { ?d bench:abstract ?a }
        }
        """
        rows = run(query, strategy)
        assert len(rows) == 4
        assert all(row.get("name") is not None for row in rows)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestUnionDistinctOrder:
    def test_union_concatenates_multisets(self, strategy):
        rows = run(
            "SELECT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type foaf:Person } }",
            strategy,
        )
        assert len(rows) == 6

    def test_union_preserves_duplicates_without_distinct(self, strategy):
        rows = run(
            "SELECT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type bench:Article } }",
            strategy,
        )
        assert len(rows) == 6

    def test_distinct_removes_duplicates(self, strategy):
        rows = run(
            "SELECT DISTINCT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type bench:Article } }",
            strategy,
        )
        assert len(rows) == 3

    def test_order_by_ascending(self, strategy):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr", strategy
        )
        years = [int(str(row.get("yr"))) for row in rows]
        assert years == sorted(years)

    def test_order_by_descending(self, strategy):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY DESC(?yr)", strategy
        )
        years = [int(str(row.get("yr"))) for row in rows]
        assert years == sorted(years, reverse=True)

    def test_limit_and_offset(self, strategy):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr LIMIT 1 OFFSET 1",
            strategy,
        )
        assert len(rows) == 1
        assert str(rows[0].get("yr")) == "1995"

    def test_projection_restricts_variables(self, strategy):
        rows = run("SELECT ?name WHERE { ?p foaf:name ?name }", strategy)
        assert all(row.variables() == {"name"} for row in rows)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestAsk:
    def test_ask_true(self, strategy):
        assert run("ASK { ?d rdf:type bench:Article }", strategy) is True

    def test_ask_false(self, strategy):
        assert run("ASK { ?d rdf:type bench:Journal }", strategy) is False


class TestStrategyEquivalence:
    QUERIES = (
        "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }",
        "SELECT ?d ?a WHERE { ?d rdf:type bench:Article OPTIONAL { ?d bench:abstract ?a } }",
        "SELECT DISTINCT ?x WHERE { { ?x rdf:type bench:Article } UNION { ?x rdf:type foaf:Person } }",
        "SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?yr > 1992) }",
    )

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("store_cls", (MemoryStore, IndexedStore))
    def test_strategies_and_stores_agree(self, query, store_cls):
        nested = run(query, PROBE, store_cls)
        hashed = run(query, SCAN, store_cls)
        assert sorted(nested, key=repr) == sorted(hashed, key=repr)
