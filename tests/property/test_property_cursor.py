"""Property: streaming cursors are multiset-equal to eager materialization.

The laziness redesign must be invisible to results: for any graph and query,
draining ``engine.stream(query)`` row by row produces exactly the multiset
``engine.query(query)`` materializes — across every planner family
(none/greedy/cost) and both store families (index probes and the in-memory
scan store).  LIMIT windows must also be prefixes of the
unlimited sequence in the engine's result order.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.rdf import BENCH, DC, FOAF, RDF, Literal, Triple, URIRef
from repro.sparql import EngineConfig, SelectResult, SparqlEngine

#: One configuration per (store family, planner family) pair the redesign
#: threads laziness through.
_CONFIGS = tuple(
    EngineConfig(
        name=f"{store}-{family}", store_type=store,
        planner=family,
    )
    for store in ("indexed", "memory")
    for family in ("none", "greedy", "cost")
)


@st.composite
def small_graphs(draw):
    """Random but well-formed mini DBLP graphs."""
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


_variables = st.sampled_from(["?a", "?b", "?c"])
_predicates = st.sampled_from(["rdf:type", "dc:creator", "foaf:name", "dc:title"])
_objects = st.one_of(
    _variables,
    st.sampled_from(["bench:Article", "foaf:Person", "<http://p/0>", '"Person 1"']),
)


@st.composite
def random_queries(draw):
    """A random SELECT over a BGP, optionally OPTIONAL/UNION shaped."""
    patterns = [
        f"{draw(_variables)} {draw(_predicates)} {draw(_objects)}"
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    shape = draw(st.sampled_from(["bgp", "union", "optional"]))
    block = " . ".join(patterns)
    if shape == "union":
        extra = f"{draw(_variables)} {draw(_predicates)} {draw(_objects)}"
        body = f"{block} {{ {extra} }} UNION {{ {extra} }}"
        texts = patterns + [extra]
    elif shape == "optional":
        extra = f"{draw(_variables)} {draw(_predicates)} {draw(_objects)}"
        body = f"{block} OPTIONAL {{ {extra} }}"
        texts = patterns + [extra]
    else:
        body = block
        texts = patterns
    names = sorted({
        token[1:] for text in texts for token in text.split() if token.startswith("?")
    })
    assume(names)
    projection = " ".join("?" + name for name in names)
    return f"SELECT {projection} WHERE {{ {body} }}"


class TestStreamingEagerEquivalence:
    @given(small_graphs(), random_queries())
    @settings(max_examples=50, deadline=None)
    def test_cursor_multiset_equals_eager_result(self, triples, query):
        for config in _CONFIGS:
            engine = SparqlEngine.from_graph(triples, config)
            eager = engine.query(query)
            cursor = engine.stream(query)
            streamed = SelectResult(cursor.variables, list(cursor))
            assert streamed == eager, f"{config.name} diverged for {query}"

    @given(small_graphs(), random_queries(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_limit_window_is_prefix_of_unlimited_stream(self, triples, query, limit):
        for config in _CONFIGS:
            engine = SparqlEngine.from_graph(triples, config)
            unlimited = list(engine.stream(query))
            window = list(engine.stream(query, limit=limit))
            assert window == unlimited[:limit], f"{config.name} diverged for {query}"

    @given(small_graphs(), random_queries())
    @settings(max_examples=30, deadline=None)
    def test_prepared_rerun_is_stable(self, triples, query):
        engine = SparqlEngine.from_graph(triples, _CONFIGS[0])
        prepared = engine.prepare(query)
        assert prepared.run().all() == prepared.run().all()
