"""Unit tests for algebra evaluation semantics, on both store families."""

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
from repro.sparql import IdSpaceEvaluation, parse_query, plan_tree, translate_query
from repro.sparql.algebra import Ask, collect_bgps
from repro.sparql.planner import PLANNER_NONE, PROBE, SCAN
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


def run(query_text, store_cls, access=None):
    """Evaluate on a store of ``store_cls``, every BGP in textual order on the
    store family's access path, or on ``access`` when given."""
    store = store_cls(GRAPH)
    tree = plan_tree(translate_query(parse_query(query_text)), store, PLANNER_NONE)
    for bgp in collect_bgps(tree):
        assert bgp.plan.access == (PROBE if store_cls is IndexedStore else SCAN)
        bgp.plan.access = access or bgp.plan.access
    evaluation = IdSpaceEvaluation(store)
    if isinstance(tree, Ask):
        return evaluation.ask(tree.operand)
    return list(evaluation.bindings(tree))


#: The two store families, by the access path each answers a pattern with.
FAMILIES = pytest.mark.parametrize("store_cls", (IndexedStore, MemoryStore),
                                   ids=(PROBE, SCAN))


@FAMILIES
class TestBGP:
    def test_single_pattern(self, store_cls):
        rows = run("SELECT ?d WHERE { ?d rdf:type bench:Article }", store_cls)
        assert len(rows) == 3

    def test_join_on_shared_variable(self, store_cls):
        rows = run(
            "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }", store_cls
        )
        assert len(rows) == 4

    def test_ground_pattern_acts_as_existence_check(self, store_cls):
        rows = run(
            'SELECT ?d WHERE { ?d dc:title "First paper"^^xsd:string . '
            "?d rdf:type bench:Article }",
            store_cls,
        )
        assert len(rows) == 1

    def test_empty_result_when_no_match(self, store_cls):
        rows = run("SELECT ?d WHERE { ?d rdf:type bench:Journal }", store_cls)
        assert rows == []

    def test_variable_predicate(self, store_cls):
        rows = run("SELECT ?p WHERE { <http://x/doc1> ?p ?o }", store_cls)
        predicates = {row.get("p") for row in rows}
        assert DC.creator in predicates and DC.title in predicates

    def test_cartesian_product_when_no_shared_variable(self, store_cls):
        rows = run(
            "SELECT ?a ?b WHERE { ?a rdf:type bench:Article . ?b rdf:type foaf:Person }",
            store_cls,
        )
        assert len(rows) == 9

    def test_repeated_variable_in_pattern_requires_equality(self, store_cls):
        # ?x ?p ?x only matches triples with identical subject and object;
        # the sample graph has none.
        rows = run("SELECT ?x WHERE { ?x ?p ?x }", store_cls)
        assert rows == []


@FAMILIES
class TestFilter:
    def test_numeric_filter(self, store_cls):
        rows = run(
            "SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?yr > 1992) }", store_cls
        )
        assert len(rows) == 2

    def test_filter_on_names(self, store_cls):
        rows = run(
            'SELECT ?p WHERE { ?p foaf:name ?n FILTER (?n != "Alice"^^xsd:string) }',
            store_cls,
        )
        assert len(rows) == 2

    def test_filter_with_unbound_variable_drops_all(self, store_cls):
        rows = run(
            "SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?nosuch > 1992) }", store_cls
        )
        assert rows == []


@FAMILIES
class TestOptional:
    def test_optional_keeps_unmatched_left_rows(self, store_cls):
        rows = run(
            "SELECT ?d ?a WHERE { ?d rdf:type bench:Article "
            "OPTIONAL { ?d bench:abstract ?a } }",
            store_cls,
        )
        assert len(rows) == 3
        bound = [row for row in rows if row.get("a") is not None]
        assert len(bound) == 1

    def test_optional_filter_condition_references_outer_variable(self, store_cls):
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
        rows = run(query, store_cls)
        docs = sorted(str(row.get("d")) for row in rows)
        assert docs == ["http://x/doc1", "http://x/doc2", "http://x/doc3"]

    def test_nested_optionals(self, store_cls):
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
        rows = run(query, store_cls)
        assert len(rows) == 4
        assert all(row.get("name") is not None for row in rows)


@FAMILIES
class TestUnionDistinctOrder:
    def test_union_concatenates_multisets(self, store_cls):
        rows = run(
            "SELECT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type foaf:Person } }",
            store_cls,
        )
        assert len(rows) == 6

    def test_union_preserves_duplicates_without_distinct(self, store_cls):
        rows = run(
            "SELECT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type bench:Article } }",
            store_cls,
        )
        assert len(rows) == 6

    def test_distinct_removes_duplicates(self, store_cls):
        rows = run(
            "SELECT DISTINCT ?x WHERE { { ?x rdf:type bench:Article } UNION "
            "{ ?x rdf:type bench:Article } }",
            store_cls,
        )
        assert len(rows) == 3

    def test_order_by_ascending(self, store_cls):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr", store_cls
        )
        years = [int(str(row.get("yr"))) for row in rows]
        assert years == sorted(years)

    def test_order_by_descending(self, store_cls):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY DESC(?yr)", store_cls
        )
        years = [int(str(row.get("yr"))) for row in rows]
        assert years == sorted(years, reverse=True)

    def test_limit_and_offset(self, store_cls):
        rows = run(
            "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr LIMIT 1 OFFSET 1",
            store_cls,
        )
        assert len(rows) == 1
        assert str(rows[0].get("yr")) == "1995"

    def test_projection_restricts_variables(self, store_cls):
        rows = run("SELECT ?name WHERE { ?p foaf:name ?name }", store_cls)
        assert all(row.variables() == {"name"} for row in rows)


@FAMILIES
class TestAsk:
    def test_ask_true(self, store_cls):
        assert run("ASK { ?d rdf:type bench:Article }", store_cls) is True

    def test_ask_false(self, store_cls):
        assert run("ASK { ?d rdf:type bench:Journal }", store_cls) is False


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
        nested = run(query, store_cls, PROBE)
        hashed = run(query, store_cls, SCAN)
        assert sorted(nested, key=repr) == sorted(hashed, key=repr)
