"""Every preset against the naive reference evaluator (``tests/oracle.py``).

The 17 catalog queries, the 4 aggregate queries and the edge cases below run
on all five presets over the hand-built sample graph and the small generated
document.  SELECT results must equal the oracle's as multisets, ASK answers
must be equal, and ORDER BY results must come back sorted by the oracle's
key; under LIMIT/OFFSET a window may pick other rows among equal sort keys,
so there the key sequence must match and every row must be one the oracle's
unsliced result holds.
"""

from dataclasses import replace

import pytest

from repro.queries import AGGREGATE_QUERIES, ALL_QUERIES
from repro.rdf.terms import term_sort_key
from repro.sparql import (
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    load_engines,
    parse_query,
)

import oracle

PRESETS = (IN_MEMORY_BASELINE, IN_MEMORY_OPTIMIZED, NATIVE_BASELINE,
           NATIVE_OPTIMIZED, NATIVE_COST)

#: Shapes beyond the catalog: FILTER logic with errors, nested OPTIONAL with
#: a condition, UNION under OPTIONAL, every aggregate, and inequality between
#: a resource and a literal (engines used to call that a type error).
EDGE_CASES = {
    "iri-ne-literal": "SELECT ?p ?n WHERE { ?p foaf:name ?n FILTER (?p != ?n) }",
    "error-or": """SELECT ?doc ?yr WHERE { ?doc dcterms:issued ?yr
        FILTER (!(?yr > 1950) || ?nosuch = 1 || ?yr >= 1990) }""",
    "nested-optional": """SELECT ?doc ?name WHERE { ?doc rdf:type bench:Article
        OPTIONAL { ?doc dc:creator ?p OPTIONAL { ?p foaf:name ?name
                   FILTER (?name < "M"^^xsd:string) } }
        FILTER (!bound(?name) || ?name != "x"^^xsd:string) }""",
    "union-optional": """SELECT * WHERE {
        { ?d rdf:type bench:Article } UNION { ?d rdf:type bench:Journal }
        OPTIONAL { ?d swrc:journal ?j } }""",
    "aggregates": """SELECT ?class (SUM(?yr) AS ?sum) (AVG(?yr) AS ?avg)
        (MIN(?yr) AS ?min) (MAX(?yr) AS ?max) (COUNT(*) AS ?n)
        WHERE { ?doc rdf:type ?class . ?doc dcterms:issued ?yr } GROUP BY ?class""",
    "empty-count": "SELECT (COUNT(?x) AS ?n) WHERE { ?x rdf:type bench:Nothing }",
}

QUERIES = {query.identifier: query.text
           for query in tuple(ALL_QUERIES) + tuple(AGGREGATE_QUERIES)}
QUERIES.update(EDGE_CASES)


@pytest.fixture(scope="module", params=("sample_graph", "generated_graph_small"))
def document(request):
    """(triples, engines by preset name, oracle answers memo) for one graph."""
    graph = request.getfixturevalue(request.param)
    engines = {engine.config.name: engine for engine in load_engines(graph, PRESETS)}
    return list(graph), engines, {}


@pytest.mark.parametrize("preset", PRESETS, ids=lambda config: config.name)
@pytest.mark.parametrize("identifier", QUERIES)
def test_preset_matches_the_oracle(document, identifier, preset):
    triples, engines, answers = document
    text = QUERIES[identifier]
    if identifier not in answers:
        answers[identifier] = oracle.evaluate(text, triples)
    expected = answers[identifier]
    cursor = engines[preset.name].prepare(text).run()
    if isinstance(expected, bool):
        assert bool(cursor) is expected
        return
    rows = [dict(binding.items()) for binding in cursor]
    query = parse_query(text)
    if not query.order_by:
        assert oracle.multiset(rows) == oracle.multiset(expected)
        return
    assert rows == oracle.ordered(rows, query.order_by)
    if query.limit is None and not query.offset:
        assert oracle.multiset(rows) == oracle.multiset(expected)
        return

    def keys(solutions):
        return [tuple(term_sort_key(mu.get(variable.name))
                      for variable, _ascending in query.order_by)
                for mu in solutions]

    assert keys(rows) == keys(expected)
    unsliced = oracle.evaluate(replace(query, limit=None, offset=0), triples)
    assert not oracle.multiset(rows) - oracle.multiset(unsliced)
