"""Tests for the GROUP BY / aggregate extension (paper Section VII)."""

import pytest

from repro.queries import AGGREGATE_QUERIES, get_aggregate_query
from repro.rdf import BENCH, DC, DCTERMS, FOAF, RDF, RDFS, BNode, Graph, Literal, Triple, URIRef
from repro.sparql import ENGINE_PRESETS, NATIVE_OPTIMIZED, SparqlEngine, SparqlSyntaxError, parse_query
from repro.sparql.idspace import reduce_numbers


def build_graph():
    """Two articles (1990, 1995) and one inproceedings (1995), three persons."""
    g = Graph()
    g.add(Triple(BENCH.Article, RDFS.subClassOf, FOAF.Document))
    g.add(Triple(BENCH.Inproceedings, RDFS.subClassOf, FOAF.Document))
    alice, bob, carol = BNode("alice"), BNode("bob"), BNode("carol")
    for person in (alice, bob, carol):
        g.add(Triple(person, RDF.type, FOAF.Person))
    a1 = URIRef("http://x/a1")
    a2 = URIRef("http://x/a2")
    p1 = URIRef("http://x/p1")
    for doc, cls, year in ((a1, BENCH.Article, 1990), (a2, BENCH.Article, 1995),
                           (p1, BENCH.Inproceedings, 1995)):
        g.add(Triple(doc, RDF.type, cls))
        g.add(Triple(doc, DCTERMS.issued, Literal(year)))
    g.add(Triple(a1, DC.creator, alice))
    g.add(Triple(a2, DC.creator, alice))
    g.add(Triple(a2, DC.creator, bob))
    g.add(Triple(p1, DC.creator, carol))
    return g


@pytest.fixture(scope="module")
def engine():
    return SparqlEngine.from_graph(build_graph(), NATIVE_OPTIMIZED)


@pytest.mark.parametrize("function, numbers, expected", [
    ("AVG", [10 ** 400], "inf"),
    ("AVG", [-(10 ** 400), 1], "-inf"),
    ("SUM", [10 ** 400, -(10 ** 400), 2], "2"),     # integers stay exact
    ("AVG", [10 ** 400, -(10 ** 400), 1.5], "nan"),  # a double makes doubles
    ("SUM", [1, 2, 0.5], "3.5"),
])
def test_sum_and_avg_past_double_range_in_any_row_order(function, numbers, expected):
    for order in (numbers, numbers[::-1], numbers[1:] + numbers[:1]):
        assert reduce_numbers(function, order).lexical == expected


class TestParsing:
    def test_count_with_alias(self):
        query = parse_query("SELECT (COUNT(?d) AS ?n) WHERE { ?d rdf:type bench:Article }")
        assert query.is_aggregate_query()
        assert query.aggregates[0].function == "COUNT"
        assert query.aggregates[0].alias.name == "n"

    def test_count_star(self):
        query = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?d ?p ?o }")
        assert query.aggregates[0].variable is None

    def test_count_distinct(self):
        query = parse_query("SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?d dc:creator ?p }")
        assert query.aggregates[0].distinct is True

    def test_group_by_variables(self):
        query = parse_query(
            "SELECT ?yr (COUNT(?d) AS ?n) WHERE { ?d dcterms:issued ?yr } GROUP BY ?yr"
        )
        assert [v.name for v in query.group_by] == ["yr"]
        assert query.projected_variables()[-1].name == "n"

    def test_sum_star_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT (SUM(*) AS ?n) WHERE { ?d ?p ?o }")

    def test_missing_as_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT (COUNT(?d) ?n) WHERE { ?d ?p ?o }")

    def test_group_by_without_variables_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?d WHERE { ?d ?p ?o } GROUP BY")


class TestEvaluation:
    def test_count_per_group(self, engine):
        rows = engine.query(
            "SELECT ?yr (COUNT(?d) AS ?n) WHERE { ?d dcterms:issued ?yr } "
            "GROUP BY ?yr ORDER BY ?yr"
        ).rows()
        assert [(int(str(y)), int(str(n))) for y, n in rows] == [(1990, 1), (1995, 2)]

    def test_count_star_counts_rows(self, engine):
        rows = engine.query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?d rdf:type bench:Article }"
        ).rows()
        assert int(str(rows[0][0])) == 2

    def test_count_distinct(self, engine):
        rows = engine.query(
            "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?d dc:creator ?p }"
        ).rows()
        assert int(str(rows[0][0])) == 3

    def test_count_over_empty_pattern_is_zero(self, engine):
        rows = engine.query(
            "SELECT (COUNT(?d) AS ?n) WHERE { ?d rdf:type bench:Journal }"
        ).rows()
        assert int(str(rows[0][0])) == 0

    def test_min_max_sum_avg(self, engine):
        rows = engine.query(
            "SELECT (MIN(?yr) AS ?lo) (MAX(?yr) AS ?hi) (SUM(?yr) AS ?total) "
            "(AVG(?yr) AS ?mean) WHERE { ?d rdf:type bench:Article . "
            "?d dcterms:issued ?yr }"
        ).rows()
        lo, hi, total, mean = (value.to_python() for value in rows[0])
        assert (lo, hi, total) == (1990, 1995, 3985)
        assert mean == pytest.approx(1992.5)

    def test_group_by_multiple_variables(self, engine):
        result = engine.query(
            "SELECT ?class ?yr (COUNT(?d) AS ?n) WHERE { ?d rdf:type ?class . "
            "?d dcterms:issued ?yr } GROUP BY ?class ?yr"
        )
        # (Article,1990), (Article,1995), (Inproceedings,1995), plus the
        # schema-class rows do not carry dcterms:issued so they do not appear.
        assert len(result) == 3

    def test_order_by_aggregate_alias(self, engine):
        rows = engine.query(
            "SELECT ?p (COUNT(?d) AS ?n) WHERE { ?d dc:creator ?p } "
            "GROUP BY ?p ORDER BY DESC(?n) LIMIT 1"
        ).rows()
        assert int(str(rows[0][1])) == 2  # alice authored two documents

    def test_all_engines_agree_on_aggregates(self):
        graph = build_graph()
        query = ("SELECT ?yr (COUNT(?d) AS ?n) WHERE { ?d dcterms:issued ?yr } "
                 "GROUP BY ?yr")
        results = [
            SparqlEngine.from_graph(graph, config).query(query).as_multiset()
            for config in ENGINE_PRESETS
        ]
        assert all(result == results[0] for result in results[1:])


class TestAggregateQueryCatalog:
    def test_four_extension_queries(self):
        assert len(AGGREGATE_QUERIES) == 4
        assert [q.identifier for q in AGGREGATE_QUERIES] == ["A1", "A2", "A3", "A4"]

    def test_lookup(self):
        assert get_aggregate_query("a1").identifier == "A1"
        with pytest.raises(KeyError):
            get_aggregate_query("A9")

    @pytest.mark.parametrize("query", AGGREGATE_QUERIES, ids=lambda q: q.identifier)
    def test_extension_queries_parse_as_aggregate_queries(self, query):
        parsed = parse_query(query.text)
        assert parsed.is_aggregate_query()

    def test_a1_counts_grow_over_years_on_generated_data(self, generated_graph_medium):
        engine = SparqlEngine.from_graph(generated_graph_medium, NATIVE_OPTIMIZED)
        rows = engine.query(get_aggregate_query("A1").text).rows()
        counts = [int(str(count)) for _year, count in rows]
        # Logistic growth: the last simulated years host more publications
        # than the first ones.
        assert sum(counts[-3:]) > sum(counts[:3])

    def test_a2_average_authors_in_plausible_range(self, generated_graph_medium):
        engine = SparqlEngine.from_graph(generated_graph_medium, NATIVE_OPTIMIZED)
        rows = engine.query(get_aggregate_query("A2").text).rows()
        by_class = {str(cls): (int(str(authors)), int(str(docs)))
                    for cls, authors, docs in rows}
        article_key = str(BENCH.Article)
        authors, documents = by_class[article_key]
        average = authors / documents
        # d_auth in the 1940s has a mean between 1 and 3 authors per paper.
        assert 1.0 <= average <= 3.0

    def test_a3_distinct_authors_bounded_by_total(self, generated_graph_medium):
        engine = SparqlEngine.from_graph(generated_graph_medium, NATIVE_OPTIMIZED)
        a2 = engine.query(get_aggregate_query("A2").text).rows()
        a3 = engine.query(get_aggregate_query("A3").text).rows()
        totals = {str(cls): int(str(authors)) for cls, authors, _docs in a2}
        for cls, distinct in a3:
            assert int(str(distinct)) <= totals[str(cls)]

    def test_a4_reference_list_sizes(self, generated_graph_medium):
        engine = SparqlEngine.from_graph(generated_graph_medium, NATIVE_OPTIMIZED)
        rows = engine.query(get_aggregate_query("A4").text).rows()
        sizes = [int(str(count)) for _doc, count in rows]
        assert len(sizes) <= 20
        assert sizes == sorted(sizes, reverse=True)
