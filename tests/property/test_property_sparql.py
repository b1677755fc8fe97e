"""Property-based tests for SPARQL semantics invariants."""

from hypothesis import given, settings, strategies as st

from repro.rdf import DC, FOAF, RDF, BENCH, Literal, Triple, URIRef
from repro.sparql import (
    ENGINE_PRESETS,
    NATIVE_BASELINE,
    NATIVE_OPTIMIZED,
    SparqlEngine,
)

import oracle

# -- generated-graph strategies ---------------------------------------------------

_person_ids = st.integers(min_value=0, max_value=5)
_doc_ids = st.integers(min_value=0, max_value=8)
_years = st.integers(min_value=1990, max_value=1995)


@st.composite
def small_graphs(draw):
    """Random but well-formed mini DBLP graphs."""
    triples = []
    persons = draw(st.lists(_person_ids, min_size=1, max_size=5, unique=True))
    for person_id in persons:
        person = URIRef(f"http://p/{person_id}")
        triples.append(Triple(person, RDF.type, FOAF.Person))
        triples.append(Triple(person, FOAF.name, Literal(f"Person {person_id}")))
    documents = draw(st.lists(_doc_ids, min_size=1, max_size=8, unique=True))
    for doc_id in documents:
        doc = URIRef(f"http://d/{doc_id}")
        triples.append(Triple(doc, RDF.type, BENCH.Article))
        triples.append(Triple(doc, DC.title, Literal(f"Title {doc_id}")))
        year = draw(_years)
        triples.append(Triple(doc, URIRef("http://purl.org/dc/terms/issued"), Literal(year)))
        author_count = draw(st.integers(min_value=0, max_value=3))
        for index in range(author_count):
            author = URIRef(f"http://p/{persons[index % len(persons)]}")
            triples.append(Triple(doc, DC.creator, author))
    return triples


QUERY_ALL_DOCS = "SELECT ?d ?p WHERE { ?d rdf:type bench:Article . ?d dc:creator ?p }"
QUERY_DISTINCT = "SELECT DISTINCT ?p WHERE { ?d dc:creator ?p }"
QUERY_ORDERED = "SELECT ?yr WHERE { ?d dcterms:issued ?yr } ORDER BY ?yr"
QUERY_LIMIT = "SELECT ?d WHERE { ?d rdf:type bench:Article } LIMIT 3"
QUERY_OPTIONAL = (
    "SELECT ?d ?p WHERE { ?d rdf:type bench:Article OPTIONAL { ?d dc:creator ?p } }"
)


class TestEngineSemantics:
    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_all_engine_presets_agree(self, triples):
        engines = [SparqlEngine.from_graph(triples, config) for config in ENGINE_PRESETS]
        for query in (QUERY_ALL_DOCS, QUERY_DISTINCT, QUERY_OPTIONAL):
            expected = oracle.answer(query, triples)
            for engine in engines:
                assert oracle.answer_of(engine.query(query)) == expected

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_distinct_never_returns_duplicates(self, triples):
        engine = SparqlEngine.from_graph(triples, NATIVE_OPTIMIZED)
        result = engine.query(QUERY_DISTINCT)
        assert all(count == 1 for count in result.as_multiset().values())

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_order_by_yields_sorted_years(self, triples):
        engine = SparqlEngine.from_graph(triples, NATIVE_OPTIMIZED)
        years = [b.get("yr").to_python() for b in engine.query(QUERY_ORDERED)]
        assert years == sorted(years)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_limit_caps_result_size(self, triples):
        engine = SparqlEngine.from_graph(triples, NATIVE_OPTIMIZED)
        assert len(engine.query(QUERY_LIMIT)) <= 3

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_optional_is_superset_of_inner_join(self, triples):
        engine = SparqlEngine.from_graph(triples, NATIVE_BASELINE)
        joined = engine.query(QUERY_ALL_DOCS)
        optional = engine.query(QUERY_OPTIONAL)
        assert len(optional) >= len(joined)
        # Every joined solution also appears in the OPTIONAL result.
        optional_rows = set(optional.as_multiset())
        for row in joined.as_multiset():
            assert row in optional_rows

    @given(small_graphs())
    @settings(max_examples=30, deadline=None)
    def test_ask_consistent_with_select(self, triples):
        engine = SparqlEngine.from_graph(triples, NATIVE_OPTIMIZED)
        has_rows = len(engine.query(QUERY_ALL_DOCS)) > 0
        ask = engine.ask("ASK { ?d rdf:type bench:Article . ?d dc:creator ?p }")
        assert ask == has_rows
