"""Property-based planner equivalence: random BGPs, identical results.

The planner families (``none`` / ``greedy`` / ``cost``) choose different
pattern orders, physical step strategies, and join algorithms — but they
must never change a query's result multiset.  Hypothesis generates random
mini-DBLP graphs and random BGP-shaped queries (including UNION branches
behind a bind-join seam and OPTIONAL parts) and checks all three families
agree, and that the cost planner on both store families agrees with the
naive reference evaluator (``tests/oracle.py``); EXPLAIN must list every
triple pattern of the query exactly once.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.rdf import BENCH, DC, FOAF, RDF, Literal, Triple, URIRef
from repro.sparql import EngineConfig, SparqlEngine, algebra

import oracle

_FAMILIES = ("none", "greedy", "cost")

_CONFIGS = {
    family: EngineConfig(
        name=f"native-{family}", store_type="indexed",
        planner=family,
    )
    for family in _FAMILIES
}


# -- graph strategy -------------------------------------------------------------

_person_ids = st.integers(min_value=0, max_value=4)
_doc_ids = st.integers(min_value=0, max_value=6)


@st.composite
def small_graphs(draw):
    """Random but well-formed mini DBLP graphs."""
    triples = []
    persons = draw(st.lists(_person_ids, min_size=1, max_size=4, unique=True))
    for person_id in persons:
        person = URIRef(f"http://p/{person_id}")
        triples.append(Triple(person, RDF.type, FOAF.Person))
        triples.append(Triple(person, FOAF.name, Literal(f"Person {person_id}")))
    documents = draw(st.lists(_doc_ids, min_size=1, max_size=6, unique=True))
    for doc_id in documents:
        doc = URIRef(f"http://d/{doc_id}")
        triples.append(Triple(doc, RDF.type, BENCH.Article))
        triples.append(Triple(doc, DC.title, Literal(f"Title {doc_id}")))
        author_count = draw(st.integers(min_value=0, max_value=3))
        for index in range(author_count):
            author = URIRef(f"http://p/{persons[index % len(persons)]}")
            triples.append(Triple(doc, DC.creator, author))
    return triples


# -- query strategy -------------------------------------------------------------

_variables = st.sampled_from(["?a", "?b", "?c", "?d"])
_predicates = st.sampled_from(["rdf:type", "dc:creator", "foaf:name", "dc:title"])
_subject_terms = st.one_of(
    _variables,
    st.sampled_from(["<http://p/0>", "<http://p/1>", "<http://d/0>", "<http://d/3>"]),
)
_object_terms = st.one_of(
    _variables,
    st.sampled_from([
        "bench:Article", "foaf:Person",
        "<http://p/0>", "<http://p/2>",
        '"Person 1"', '"Title 2"',
    ]),
)


@st.composite
def triple_patterns(draw):
    return f"{draw(_subject_terms)} {draw(_predicates)} {draw(_object_terms)}"


def _block(patterns):
    return " . ".join(patterns)


@st.composite
def random_queries(draw):
    """A random SELECT over a BGP, optionally with UNION/OPTIONAL/group parts.

    The ``group`` shape places a FILTER *inside* a nested group whose
    expression may reference outer variables — the filter-scoping edge case
    a bind join must not change (out-of-scope variables stay unbound).
    """
    base = draw(st.lists(triple_patterns(), min_size=1, max_size=3))
    shape = draw(st.sampled_from(["bgp", "union", "optional", "group"]))
    if shape == "union":
        left = draw(st.lists(triple_patterns(), min_size=1, max_size=2))
        right = draw(st.lists(triple_patterns(), min_size=1, max_size=2))
        body = f"{_block(base)} {{ {_block(left)} }} UNION {{ {_block(right)} }}"
        pattern_texts = base + left + right
    elif shape == "optional":
        inner = draw(st.lists(triple_patterns(), min_size=1, max_size=2))
        body = f"{_block(base)} OPTIONAL {{ {_block(inner)} }}"
        pattern_texts = base + inner
    elif shape == "group":
        inner = draw(st.lists(triple_patterns(), min_size=1, max_size=2))
        left_var = draw(_variables)
        right_var = draw(_variables)
        operator = draw(st.sampled_from(["=", "!="]))
        body = (
            f"{_block(base)} "
            f"{{ {_block(inner)} FILTER ({left_var} {operator} {right_var}) }}"
        )
        pattern_texts = base + inner
    else:
        body = _block(base)
        pattern_texts = base
    names = sorted({
        token[1:]
        for text in pattern_texts
        for token in text.split()
        if token.startswith("?")
    })
    assume(names)
    projection = " ".join("?" + name for name in names)
    return f"SELECT {projection} WHERE {{ {body} }}", len(pattern_texts)


# -- properties -----------------------------------------------------------------

class TestPlannerFamiliesAgree:
    @given(small_graphs(), random_queries())
    @settings(max_examples=60, deadline=None)
    def test_result_multisets_identical(self, triples, query_and_size):
        query, _pattern_count = query_and_size
        reference = None
        for family in _FAMILIES:
            engine = SparqlEngine.from_graph(triples, _CONFIGS[family])
            result = engine.query(query).as_multiset()
            if reference is None:
                reference = result
            else:
                assert result == reference, f"{family} diverged for {query}"

    @given(small_graphs(), random_queries())
    @settings(max_examples=40, deadline=None)
    def test_cost_planner_matches_the_oracle(self, triples, query_and_size):
        query, _pattern_count = query_and_size
        scan = EngineConfig(name="memory-cost", store_type="memory", planner="cost")
        expected = oracle.answer(query, triples)
        for config in (_CONFIGS["cost"], scan):
            engine = SparqlEngine.from_graph(triples, config)
            assert oracle.answer_of(engine.query(query)) == expected, (config.name, query)


class TestExplainProperties:
    @given(small_graphs(), random_queries())
    @settings(max_examples=60, deadline=None)
    def test_explain_lists_every_pattern_exactly_once(self, triples, query_and_size):
        query, pattern_count = query_and_size
        engine = SparqlEngine.from_graph(triples, _CONFIGS["cost"])
        report = engine.explain(query)
        planned = report.planned_patterns()
        assert len(planned) == pattern_count
        _parsed, tree = engine.plan(query)
        expected = sorted(
            pattern.n3()
            for bgp in algebra.collect_bgps(tree)
            for pattern in bgp.patterns
        )
        assert sorted(pattern.n3() for pattern in planned) == expected

    @given(small_graphs(), random_queries())
    @settings(max_examples=30, deadline=None)
    def test_explain_result_count_matches_query(self, triples, query_and_size):
        query, _pattern_count = query_and_size
        engine = SparqlEngine.from_graph(triples, _CONFIGS["cost"])
        assert engine.explain(query).result_count == len(engine.query(query))
