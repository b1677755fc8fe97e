"""Every preset against the naive reference evaluator (``tests/oracle.py``).

The 17 catalog queries, the 4 aggregate queries and the edge cases below run
on all five presets over the hand-built sample graph, the small generated
document and a value matrix (fifteen terms of every comparison kind).
SELECT results must equal the oracle's as multisets, ASK answers must be
equal, and ORDER BY results must come back sorted by the oracle's key;
under LIMIT/OFFSET a window may pick other rows among equal sort keys, so
there the key sequence must match and every row must be one the oracle's
unsliced result holds.
"""

from dataclasses import replace

import pytest

from repro.queries import AGGREGATE_QUERIES, ALL_QUERIES
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING, term_sort_key
from repro.sparql import (
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    SparqlEngine,
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

#: Variable predicates, one query per shape of the SPO/OSP kernels on
#: native-cost (a constant, bound or free subject and object), a predicate
#: shared by two patterns, a FILTER on it, DISTINCT over a UNION, and a
#: constant the dictionary does not hold.
EDGE_CASES.update({
    "any-predicate-of-subject":
        "SELECT * WHERE { ?j rdf:type bench:Journal . person:Paul_Erdoes ?p ?o }",
    "any-predicate-to-object": "SELECT ?s ?p WHERE { ?s ?p bench:Article }",
    "any-predicate-between-constants":
        "SELECT * WHERE { ?j rdf:type bench:Journal . person:Paul_Erdoes ?p foaf:Person }",
    "any-triple": "SELECT * WHERE { ?s ?p ?o }",
    "any-predicate-bound-subject":
        "SELECT ?d ?p ?o WHERE { ?d rdf:type bench:Article . ?d ?p ?o }",
    "any-predicate-bound-object": "SELECT ?s ?p ?a WHERE { ?d dc:creator ?a . ?s ?p ?a }",
    "any-predicate-both-bound": "SELECT ?d ?p ?a WHERE { ?d dc:creator ?a . ?d ?p ?a }",
    "any-predicate-bound-to-constant":
        "SELECT ?d ?p WHERE { ?d rdf:type bench:Article . ?d ?p bench:Article }",
    "shared-predicate":
        "SELECT ?p ?s WHERE { person:Paul_Erdoes ?p ?o . ?s ?p bench:Journal }",
    "predicate-filter": """SELECT ?d ?p WHERE { ?d rdf:type bench:Article . ?d ?p ?o
        FILTER (?p != rdf:type) }""",
    "distinct-predicate-union": """SELECT DISTINCT ?p WHERE {
        { ?d rdf:type bench:Article . ?d ?p ?o }
        UNION { ?j rdf:type bench:Journal . ?x ?p ?j } }""",
    "any-predicate-unknown":
        "SELECT * WHERE { ?d rdf:type bench:Article . <http://example.org/nosuch> ?p ?d }",
})

#: Pattern shapes the catalog lacks: a predicate variable shared by two
#: patterns, a variable repeated inside one pattern (the value matrix holds
#: one triple of each), and a predicate variable an earlier step bound beside
#: a constant endpoint or two.  The BGPs are worth the kernels on
#: native-cost over the generated document, the loops over the value matrix
#: too.
KERNEL_SHAPES = {
    "shared-predicate-variable": """SELECT ?a ?p ?b WHERE { ?a rdf:type bench:Journal .
        ?a ?p ?x . ?b ?p ?y . ?b rdf:type bench:Proceedings }""",
    "subject-is-object": "SELECT * WHERE { ?x ?p ?x }",
    "predicate-is-object": "SELECT * WHERE { ?x ?p ?p }",
    "bound-predicate-to-constant":
        "SELECT ?p ?s WHERE { ?j rdf:type bench:Journal . ?j ?p ?o . ?s ?p bench:Journal }",
    "bound-predicate-between-constants": """SELECT ?d ?p WHERE { ?d rdf:type bench:Article .
        ?d ?p ?o . person:Paul_Erdoes ?p foaf:Person }""",
}
#: LIMIT and OFFSET past any result (and past what ``islice`` takes): all
#: rows, and none.
EDGE_CASES["limit-past-double-range"] = f"SELECT ?s WHERE {{ ?s rdf:type ?c }} LIMIT {10 ** 400}"
EDGE_CASES["offset-past-maxsize"] = f"SELECT ?s WHERE {{ ?s rdf:type ?c }} OFFSET {10 ** 20}"

#: An integer beyond double range (401 digits): it compares, orders and
#: averages as infinity, with its sign.
HUGE = 10 ** 400

#: The value matrix: each value is the object of ``ex:v`` and of ``ex:w``.
EX = "http://example.org/values/"
VALUES = (
    Literal(1), Literal("1.0", datatype=XSD_DECIMAL), Literal(2),
    Literal("NaN", datatype=XSD_DOUBLE), Literal("abc", datatype=XSD_INTEGER),
    Literal("abc"), Literal("abc", datatype=XSD_STRING), Literal("abd"),
    Literal("abc", language="en"), Literal("b", language="en"),
    Literal("abc", datatype="http://ex/foo"), Literal(True), URIRef(EX + "iri"),
    Literal(HUGE), Literal(-HUGE),
)
#: Each value's effective boolean value (SPARQL 1.1 §17.2.2): NaN and a
#: malformed numeric are false, an unknown datatype and an IRI have none.
EBV = (True, True, True, False, False, True, True, True, True, True, False, True, False,
       True, True)
OPERATORS = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _over_values(pattern, modifiers=""):
    return f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ex:v ?v {pattern} }} {modifiers}"


#: A variable repeated inside a pattern whose subject an earlier step bound:
#: per-row ranges, the repeat masked against the column the step binds.
KERNEL_SHAPES["bound-subject-is-object"] = _over_values(". ?s ?p ?s")
KERNEL_SHAPES["bound-subject-predicate-is-object"] = _over_values(". ?s ?p ?p")
EDGE_CASES.update(KERNEL_SHAPES)

#: Every operator over the matrix: across the two predicates in one BGP
#: (the column masks on native-cost) and under OPTIONAL (the join keys), and
#: against a NaN and a string constant.
for op, name in OPERATORS.items():
    EDGE_CASES.update({
        f"bgp-{name}": _over_values(f". ?t ex:w ?w FILTER (?v {op} ?w)"),
        f"optional-{name}": _over_values(f"OPTIONAL {{ ?t ex:w ?w FILTER (?v {op} ?w) }}"),
        f"nan-{name}": _over_values(f'FILTER (?v {op} "NaN"^^xsd:double)'),
        f"abc-{name}": _over_values(f'FILTER (?v {op} "abc")'),
    })
EDGE_CASES["order-by"] = _over_values("", "ORDER BY ?v")
EDGE_CASES["ebv"] = _over_values("FILTER (?v)")
#: The huge integer as a query constant, and averaged on its own.
EDGE_CASES["huge-constant"] = _over_values(f"FILTER (?v < {HUGE})")
EDGE_CASES["huge-avg"] = (f"PREFIX ex: <{EX}> SELECT (AVG(?v) AS ?avg) "
                          "WHERE { ?s ex:v ?v FILTER (?v > 2) }")

QUERIES = {query.identifier: query.text
           for query in tuple(ALL_QUERIES) + tuple(AGGREGATE_QUERIES)}
QUERIES.update(EDGE_CASES)


@pytest.fixture(scope="session")
def value_graph():
    graph = Graph(Triple(URIRef(f"{EX}s{index}"), URIRef(EX + predicate), value)
                  for index, value in enumerate(VALUES) for predicate in "vw")
    graph.add(Triple(URIRef(EX + "s0"), URIRef(EX + "loop"), URIRef(EX + "s0")))
    graph.add(Triple(URIRef(EX + "s1"), URIRef(EX + "self"), URIRef(EX + "self")))
    return graph


@pytest.fixture(scope="module",
                params=("sample_graph", "generated_graph_small", "value_graph"))
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


@pytest.mark.parametrize("graph, identifier", [
    *(("value_graph" if name.startswith("bound-subject") else "generated_graph_small", name)
      for name in KERNEL_SHAPES),
    ("value_graph", "subject-is-object"), ("value_graph", "predicate-is-object")])
def test_every_pattern_shape_runs_on_the_kernels(request, graph, identifier):
    engine = SparqlEngine.from_graph(request.getfixturevalue(graph), NATIVE_COST)
    report = engine.explain(EDGE_CASES[identifier])
    assert report.result_count or graph == "generated_graph_small"
    steps = [line for line in report.render().splitlines() if "vectorized=" in line]
    assert steps and all("vectorized=yes" in line for line in steps)


@pytest.mark.parametrize("preset", PRESETS, ids=lambda config: config.name)
def test_effective_boolean_value_truth_table(value_graph, preset):
    engine = SparqlEngine.from_graph(value_graph, preset)
    kept = {row["v"] for row in engine.query(EDGE_CASES["ebv"])}
    assert kept == {value for value, true in zip(VALUES, EBV) if true}


@pytest.mark.parametrize("name", OPERATORS.values())
def test_the_bgp_shape_runs_on_value_keys_or_a_column_mask(value_graph, name):
    """On native-cost ``=`` becomes a hash join on value keys; every other
    operator filters the second step's blocks through a column mask."""
    lines = SparqlEngine.from_graph(value_graph, NATIVE_COST).explain(
        EDGE_CASES[f"bgp-{name}"]).render().splitlines()
    if name == "eq":
        assert any("Join [hash]" in line and "on (?v = ?w)" in line for line in lines)
        return
    (filtered,) = [line for line in lines if "+1filter" in line]
    assert "vectorized=yes" in filtered


@pytest.mark.parametrize("preset", PRESETS, ids=lambda config: config.name)
def test_order_by_puts_nan_before_every_number(preset):
    doubles = ("3", "NaN", "1", "2", "NaN", "0.5")
    graph = Graph(Triple(URIRef(f"{EX}s{index}"), URIRef(EX + "v"),
                         Literal(text, datatype=XSD_DOUBLE))
                  for index, text in enumerate(doubles))
    engine = SparqlEngine.from_graph(graph, preset)
    rows = engine.query(EDGE_CASES["order-by"])
    assert [str(row["v"]) for row in rows] == ["NaN", "NaN", "0.5", "1", "2", "3"]
