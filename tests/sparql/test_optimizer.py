"""Unit tests for the greedy family's pattern reordering and filter pushing."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.rdf import BENCH, DC, FOAF, RDF, SWRC, Literal, Triple, URIRef, Variable
from repro.sparql import (
    ENGINE_PRESETS,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    SparqlEngine,
    parse_query,
    plan_tree,
    push_filters,
    translate_query,
)
from repro.sparql import algebra
from repro.sparql.algebra import collect_bgps, walk
from repro.sparql.optimizer import push_filter, split_conjuncts
from repro.sparql import ast
from repro.sparql.results import AskResult
from repro.store import IndexedStore

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def build_store():
    """Many articles, one journal: rdf:type patterns are unselective,
    the title lookup is highly selective."""
    store = IndexedStore()
    journal = URIRef("http://x/journal1")
    store.add(Triple(journal, RDF.type, BENCH.Journal))
    store.add(Triple(journal, DC.title, Literal("Journal 1 (1940)", datatype=XSD_STRING)))
    for index in range(50):
        article = URIRef(f"http://x/article{index}")
        store.add(Triple(article, RDF.type, BENCH.Article))
        store.add(Triple(article, DC.title, Literal(f"Paper {index}", datatype=XSD_STRING)))
        store.add(Triple(article, DC.creator, URIRef(f"http://x/person{index % 7}")))
    return store


def var(name):
    return Variable(name)


def greedy_order(patterns, store):
    """The pattern order the greedy family plans for one BGP."""
    return plan_tree(algebra.BGP(list(patterns)), store, "greedy").patterns


class TestReordering:
    def test_selective_pattern_moves_first(self):
        store = build_store()
        patterns = [
            Triple(var("a"), RDF.type, BENCH.Article),
            Triple(var("a"), DC.title, Literal("Paper 3", datatype=XSD_STRING)),
        ]
        ordered = greedy_order(patterns, store)
        assert ordered[0].predicate == DC.title

    def test_connected_patterns_preferred_over_cheap_disconnected(self):
        store = build_store()
        patterns = [
            Triple(var("a"), DC.title, Literal("Paper 3", datatype=XSD_STRING)),
            Triple(var("a"), DC.creator, var("p")),
            Triple(var("j"), RDF.type, BENCH.Journal),
        ]
        ordered = greedy_order(patterns, store)
        # After the selective title pattern, the creator pattern (which shares
        # ?a) comes before the disconnected journal pattern.
        assert ordered[1].predicate == DC.creator

    def test_reordering_preserves_pattern_multiset(self):
        store = build_store()
        patterns = [
            Triple(var("a"), RDF.type, BENCH.Article),
            Triple(var("a"), DC.creator, var("p")),
            Triple(var("a"), DC.title, var("t")),
        ]
        ordered = greedy_order(patterns, store)
        assert sorted(ordered, key=repr) == sorted(patterns, key=repr)

    def test_single_pattern_untouched(self):
        patterns = [Triple(var("a"), RDF.type, BENCH.Article)]
        assert greedy_order(patterns, build_store()) == patterns

    def test_reordering_without_store_uses_static_heuristic(self):
        patterns = [
            Triple(var("s"), var("p"), var("o")),
            Triple(var("s"), RDF.type, BENCH.Article),
        ]
        ordered = greedy_order(patterns, None)
        assert ordered[0].predicate == RDF.type

    def test_greedy_plans_have_one_access_path_and_no_bind_joins(self):
        text = ("SELECT ?t WHERE { ?a dc:title \"Paper 3\"^^xsd:string "
                "{ ?a dc:creator ?p . ?p dc:title ?t } }")
        tree = translate_query(parse_query(text))
        greedy = plan_tree(tree, build_store(), "greedy")
        assert {bgp.plan.access for bgp in collect_bgps(greedy)} == {"probe"}
        (join,) = [n for n in walk(greedy) if isinstance(n, algebra.Join)]
        assert join.plan.strategy == "hash"
        (cost_join,) = [n for n in walk(plan_tree(tree, build_store(), "cost"))
                        if isinstance(n, algebra.Join)]
        assert cost_join.plan.strategy == "bind"


class TestFilterPushing:
    def test_split_conjuncts_flattens_nested_and(self):
        a = ast.Bound(var("a"))
        b = ast.Bound(var("b"))
        c = ast.Bound(var("c"))
        assert split_conjuncts(ast.And(ast.And(a, b), c)) == [a, b, c]

    def test_filter_pushed_into_bgp(self):
        query = parse_query(
            "SELECT ?a WHERE { ?a rdf:type bench:Article . "
            "?a dc:title ?t FILTER (?t != \"Paper 3\") }"
        )
        tree = push_filters(translate_query(query))
        bgp = collect_bgps(tree)[0]
        assert bgp.inline_filters, "filter should have been pushed into the BGP"
        filters = [n for n in walk(tree) if isinstance(n, algebra.Filter)]
        assert not filters, "no residual outer Filter expected"

    @pytest.mark.parametrize("wrap", [
        lambda bgp: algebra.Project(bgp, [var("a")]),
        algebra.Distinct,
        lambda bgp: algebra.OrderBy(bgp, [(var("a"), True)]),
        lambda bgp: algebra.Slice(bgp, limit=1),
    ])
    def test_filter_is_not_pushed_below_solution_modifiers(self, wrap):
        # translate_group never builds this shape, and below a Slice the
        # filter would select different rows: it must stay outside.
        operand = wrap(algebra.BGP([Triple(var("a"), DC.creator, var("p"))]))
        expression = ast.Bound(var("p"))
        result = push_filter(expression, operand)
        assert result == algebra.Filter(expression, operand)

    def test_filter_position_is_first_point_where_vars_are_bound(self):
        query = parse_query(
            "SELECT ?a WHERE { ?a rdf:type bench:Article . "
            "?a dc:creator ?p FILTER (?a != ?p) }"
        )
        tree = plan_tree(push_filters(translate_query(query)), build_store(), "none")
        bgp = collect_bgps(tree)[0]
        positions = [pos for pos, _expr in bgp.plan.filters]
        assert positions == [1]

    def test_unpushable_filter_stays_outside(self):
        # bound(?a2) references an OPTIONAL-only variable: must not be pushed.
        query = parse_query(
            "SELECT ?d WHERE { ?d rdf:type bench:Article "
            "OPTIONAL { ?d dc:creator ?a2 } FILTER (!bound(?a2)) }"
        )
        tree = push_filters(translate_query(query))
        filters = [n for n in walk(tree) if isinstance(n, algebra.Filter)]
        assert len(filters) == 1

    def test_push_filters_flag_disables_pushing(self):
        tree = _planned(
            "SELECT ?a WHERE { ?a rdf:type bench:Article . "
            "?a ?property ?value FILTER (?property = swrc:pages) }",
            push_filters=False)
        filters = [n for n in walk(tree) if isinstance(n, algebra.Filter)]
        assert len(filters) == 1
        assert not collect_bgps(tree)[0].inline_filters


class TestSemanticsPreserved:
    QUERIES = (
        "SELECT ?a ?p WHERE { ?a rdf:type bench:Article . ?a dc:creator ?p }",
        "SELECT ?a WHERE { ?a rdf:type bench:Article . ?a dc:title ?t "
        'FILTER (?t = "Paper 3"^^xsd:string) }',
        "SELECT DISTINCT ?p WHERE { { ?a dc:creator ?p } UNION { ?a dc:title ?p } }",
        "SELECT ?a ?t WHERE { ?a rdf:type bench:Article "
        "OPTIONAL { ?a dc:title ?t } }",
    )

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_optimized_equals_unoptimized(self, query_text):
        graph = list(build_store())
        baseline = SparqlEngine.from_graph(graph, NATIVE_BASELINE)
        optimized = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        assert (baseline.query(query_text).as_multiset()
                == optimized.query(query_text).as_multiset())


def _patterns(tree):
    return [pattern for bgp in collect_bgps(tree) for pattern in bgp.patterns]


def _optimized(text):
    return push_filters(translate_query(parse_query(text)))


def _planned(text, config=NATIVE_OPTIMIZED, **changes):
    """The tree an engine over ``build_store()`` plans for ``text``."""
    engine = SparqlEngine(replace(config, **changes), store=build_store())
    return engine.plan(text)[1]


class TestIriSubstitution:
    """FILTER (?v = <iri>) becomes a bound pattern (Q3a-c)."""

    Q3 = ("SELECT ?a WHERE { ?a rdf:type bench:Article . "
          "?a ?property ?value FILTER (%s) }")

    @pytest.mark.parametrize("condition", [
        "?property = swrc:pages", "swrc:pages = ?property",
    ])
    def test_iri_replaces_the_variable(self, condition):
        tree = _optimized(self.Q3 % condition)
        (bgp,) = collect_bgps(tree)
        assert Triple(var("a"), SWRC.pages, var("value")) in bgp.patterns
        assert var("property") not in bgp.variables()
        assert not bgp.inline_filters
        assert bgp.substituted == {"property": SWRC.pages}
        assert not [n for n in walk(tree) if isinstance(n, algebra.Filter)]

    def test_every_occurrence_is_replaced(self):
        tree = _optimized(
            "SELECT ?s WHERE { ?s ?v ?o . ?o ?p ?v FILTER (?v = dc:creator) }")
        assert sorted(map(repr, _patterns(tree))) == sorted(map(repr, [
            Triple(var("s"), DC.creator, var("o")),
            Triple(var("o"), var("p"), DC.creator),
        ]))

    @pytest.mark.parametrize("text", [
        # the variable is visible outside the BGP
        "SELECT ?a ?property WHERE { ?a ?property ?v FILTER (?property = swrc:pages) }",
        "SELECT * WHERE { ?a ?property ?v FILTER (?property = swrc:pages) }",
        "SELECT ?a WHERE { ?a ?property ?v FILTER (?property = swrc:pages) } "
        "ORDER BY ?property",
        "SELECT ?a WHERE { ?a ?property ?v "
        "FILTER (?property = swrc:pages && ?property != ?v) }",
        "SELECT ?a WHERE { ?a ?property ?v OPTIONAL { ?a dc:title ?t "
        "FILTER (?t = ?property) } FILTER (?property = swrc:pages) }",
        "SELECT ?a WHERE { ?a ?property ?v { ?b ?property ?w } "
        "FILTER (?property = swrc:pages) }",
        "SELECT ?property (COUNT(?a) AS ?n) WHERE { ?a ?property ?v "
        "FILTER (?property = swrc:pages) } GROUP BY ?property",
        # literals compare by value, || and ! are not conjuncts
        "SELECT ?a WHERE { ?a dc:title ?t FILTER (?t = \"Paper 3\") }",
        "SELECT ?a WHERE { ?a ?p ?v FILTER (?p = dc:title || ?p = dc:creator) }",
        "SELECT ?a WHERE { ?a ?p ?v FILTER (!(?p = dc:title)) }",
    ])
    def test_not_rewritten(self, text):
        tree = _optimized(text)
        assert all(not bgp.substituted for bgp in collect_bgps(tree))
        assert sorted(map(repr, _patterns(tree))) == sorted(map(
            repr, _patterns(translate_query(parse_query(text)))))

    def test_equality_in_optional_body_stays_the_join_condition(self):
        tree = _optimized(
            "SELECT ?a WHERE { ?a ?p ?v OPTIONAL { ?a dc:title ?t "
            "FILTER (?p = dc:creator) } }")
        (left_join,) = [n for n in walk(tree) if isinstance(n, algebra.LeftJoin)]
        assert left_join.condition is not None
        assert all(not bgp.substituted for bgp in collect_bgps(tree))

    def test_baseline_plans_are_unchanged(self):
        text = self.Q3 % "?property = swrc:pages"
        tree = _planned(text, NATIVE_BASELINE)
        assert _patterns(tree) == _patterns(translate_query(parse_query(text)))
        assert [n for n in walk(tree) if isinstance(n, algebra.Filter)]
        assert var("property") in collect_bgps(tree)[0].variables()


class TestEqualityJoin:
    """FILTER (?a = ?b) between disconnected BGP parts becomes a keyed join."""

    Q5A = ("SELECT DISTINCT ?p ?n WHERE { ?a rdf:type bench:Article . "
           "?a dc:creator ?p . ?p foaf:name ?n . ?i dc:creator ?p2 . "
           "?p2 foaf:name ?n2 FILTER (?n = ?n2) }")

    def test_cross_product_splits_into_a_keyed_join(self):
        tree = _optimized(self.Q5A)
        (join,) = [n for n in walk(tree) if isinstance(n, algebra.Join)]
        assert str(join.condition) == "(?n = ?n2)"
        left, right = join.left.variables(), join.right.variables()
        assert {var("a"), var("p"), var("n")} == left
        assert {var("i"), var("p2"), var("n2")} == right
        assert not [n for n in walk(tree) if isinstance(n, algebra.Filter)]
        assert all(not bgp.inline_filters for bgp in collect_bgps(tree))

    def test_connected_equality_stays_an_inline_filter(self):
        tree = _optimized(
            "SELECT ?a WHERE { ?a dc:creator ?p . ?a dc:title ?t FILTER (?p = ?t) }")
        assert not [n for n in walk(tree) if isinstance(n, algebra.Join)]
        assert collect_bgps(tree)[0].inline_filters

    def test_second_equality_becomes_a_second_key(self):
        tree = _optimized(
            "SELECT ?a WHERE { ?a dc:creator ?p . ?a dc:title ?t . "
            "?b dc:creator ?q . ?b dc:title ?u FILTER (?p = ?q && ?t = ?u) }")
        (join,) = [n for n in walk(tree) if isinstance(n, algebra.Join)]
        assert str(join.condition) == "((?p = ?q) && (?t = ?u))"
        assert not [n for n in walk(tree) if isinstance(n, algebra.Filter)]

    def test_pushed_filters_follow_their_variables(self):
        tree = _optimized(
            "SELECT ?a WHERE { ?a dc:creator ?p . ?b dc:creator ?q "
            "FILTER (?a != ?p && ?a != ?b && ?p = ?q) }")
        (join,) = [n for n in walk(tree) if isinstance(n, algebra.Join)]
        assert [str(e) for e in join.left.inline_filters] == ["(?a != ?p)"]
        assert not join.right.inline_filters
        assert str(join.condition) == "((?p = ?q) && (?a != ?b))"

    def test_not_split_without_filter_pushing(self):
        tree = _planned(self.Q5A, push_filters=False)
        assert not [n for n in walk(tree) if isinstance(n, algebra.Join)]


# -- the un-rewritten engine is the oracle ---------------------------------------

def edge_case_graph():
    """build_store() plus value-equal literals of different datatypes."""
    triples = list(build_store())
    xsd = "http://www.w3.org/2001/XMLSchema#"
    for index, (lexical, datatype) in enumerate([
            ("1", xsd + "integer"), ("1.0", xsd + "decimal"), ("2", xsd + "integer"),
            ("Paper 3", None), ("Paper 4", None), ("NaN", xsd + "double")]):
        triples.append(Triple(URIRef(f"http://x/extra{index}"), SWRC.pages,
                              Literal(lexical, datatype=datatype)))
    for index in range(7):
        triples.append(Triple(URIRef(f"http://x/person{index}"), FOAF.name,
                              Literal(f"Name {index % 5}",
                                      datatype=XSD_STRING if index % 2 else None)))
    return triples


#: (query, pre-bindings) pairs; every preset must agree with
#: the same preset run without filter pushing.
EDGE_CASES = (
    ("SELECT ?a WHERE { ?a rdf:type bench:Article . ?a ?p ?v FILTER (?p = dc:creator) }", None),
    ("SELECT ?a ?p WHERE { ?a rdf:type bench:Article . ?a ?p ?v FILTER (?p = dc:creator) }", None),
    ("SELECT * WHERE { ?a ?p ?v FILTER (?p = swrc:pages) }", None),
    ("SELECT ?s WHERE { ?s ?v ?o . ?o ?p ?v FILTER (?v = dc:creator) }", None),
    ("SELECT ?s WHERE { ?s ?p ?v FILTER (?v = bench:Article) }", None),
    ("SELECT ?s WHERE { ?s swrc:pages ?o FILTER (?o = 1) }", None),
    ("SELECT ?s WHERE { ?s ?p ?o FILTER (?p = dc:title || ?p = swrc:pages) }", None),
    ("SELECT ?s WHERE { ?s ?p ?o FILTER (!(?p = dc:creator)) }", None),
    ("SELECT ?a ?t WHERE { ?a ?p ?v OPTIONAL { ?a dc:title ?t FILTER (?p = dc:creator) } }", None),
    ("SELECT ?a WHERE { ?a ?p ?v OPTIONAL { ?a dc:title ?t } FILTER (?p = dc:creator) }", None),
    ("SELECT ?a WHERE { ?a dc:creator ?v { ?b ?q ?w FILTER (?v = bench:Article) } }", None),
    ("SELECT ?a WHERE { ?a ?p ?v { ?b dc:title ?w FILTER (?p = dc:creator) } }", None),
    ("SELECT ?s ?t WHERE { ?s swrc:pages ?o . ?t swrc:pages ?u FILTER (?o = ?u) }", None),
    ("SELECT ?s ?t WHERE { ?s foaf:name ?n . ?t foaf:name ?m FILTER (?n = ?m) }", None),
    ("SELECT ?s ?t WHERE { ?s foaf:name ?n . ?t dc:title ?m FILTER (?n = ?m) }", None),
    ("SELECT ?a ?b WHERE { ?a dc:creator ?p . ?a dc:title ?t . ?b dc:creator ?q . "
     "?b dc:title ?u FILTER (?p = ?q && ?t != ?u && ?a != ?p) }", None),
    ("SELECT ?a WHERE { ?a rdf:type bench:Article OPTIONAL { ?b dc:creator ?p . "
     "?c foaf:name ?n FILTER (?p = ?c) } }", None),
    ("ASK { ?a dc:creator ?p . ?b foaf:name ?n FILTER (?p = ?b) }", None),
    ("ASK { ?a ?p ?v FILTER (?p = swrc:isbn) }", None),
    ("SELECT ?a WHERE { ?a ?p ?v FILTER (?p = dc:creator) }", {"p": DC.creator}),
    ("SELECT ?a WHERE { ?a ?p ?v FILTER (?p = dc:creator) }", {"p": DC.title}),
    ("SELECT ?a WHERE { ?a ?p ?v FILTER (?p = dc:creator) }", {"p": Literal("x")}),
    ("SELECT ?a WHERE { ?a ?p ?v FILTER (?p = dc:creator) }",
     {"a": URIRef("http://x/article3")}),
    ("ASK { ?a ?p ?v FILTER (?p = dc:creator) }", {"p": DC.title}),
    # A disagreeing pre-binding empties the rewritten BGP, not the query.
    ("SELECT ?a WHERE { { ?a ?p ?v FILTER (?p = swrc:pages) } UNION "
     "{ ?a dc:title ?t } }", {"p": DC.title}),
    ("SELECT ?a WHERE { { ?a ?p ?v FILTER (?p = swrc:pages) } UNION "
     "{ ?a dc:title ?t } }", {"p": SWRC.pages}),
    ("SELECT ?a ?z WHERE { ?a dc:title ?t OPTIONAL { { ?z ?p ?v "
     "FILTER (?p = swrc:pages) } } }", {"p": DC.title}),
    ("SELECT (COUNT(?a) AS ?n) WHERE { ?a ?p ?v FILTER (?p = swrc:pages) }",
     {"p": DC.title}),
    ("SELECT (COUNT(?a) AS ?n) WHERE { ?a ?p ?v FILTER (?p = swrc:pages) }",
     {"p": SWRC.pages}),
    ("SELECT ?a ?b WHERE { ?a dc:creator ?x . ?b ?p ?y FILTER (?x = ?y && "
     "?p = dc:creator) }", {"p": DC.title}),
    ("SELECT ?s ?t WHERE { ?s foaf:name ?n . ?t foaf:name ?m FILTER (?n = ?m) }",
     {"s": URIRef("http://x/person1")}),
    ("SELECT ?s ?t WHERE { ?s foaf:name ?n . ?t foaf:name ?m FILTER (?n = ?m) }",
     {"m": Literal("Name 1")}),
)


def _run(engine, text, bindings):
    result = engine.prepare(text).run(bindings=bindings).all()
    if isinstance(result, AskResult):
        return bool(result)
    return Counter(frozenset(binding.items()) for binding in result.bindings)


@pytest.fixture(scope="module")
def edge_engines():
    """[(label, rewriting engine, oracle engine)] over one shared graph."""
    graph = edge_case_graph()
    engines = []
    for config in ENGINE_PRESETS + (NATIVE_COST,):
        oracle = replace(config, name=config.name + "-unpushed", push_filters=False)
        engines.append((config.name, SparqlEngine.from_graph(graph, config),
                        SparqlEngine.from_graph(graph, oracle)))
    return engines


@pytest.mark.parametrize("text,bindings", EDGE_CASES)
def test_rewrites_agree_with_the_unrewritten_engine(edge_engines, text, bindings):
    expected = None
    for label, engine, oracle in edge_engines:
        reference = _run(oracle, text, bindings)
        assert _run(engine, text, bindings) == reference, label
        # ... and the five oracles agree with each other.
        expected = reference if expected is None else expected
        assert reference == expected, label


def test_disagreeing_prebinding_keeps_the_other_union_branch(edge_engines):
    text = ("SELECT ?a WHERE { { ?a ?p ?v FILTER (?p = swrc:pages) } UNION "
            "{ ?a dc:title ?t } }")
    for label, engine, _oracle in edge_engines:
        rows = list(engine.prepare(text).run(bindings={"p": DC.title}).rows())
        titled = engine.select("SELECT ?a WHERE { ?a dc:title ?t }")
        assert rows and Counter(rows) == Counter(titled), label


def test_nan_joins_nothing_not_even_itself(edge_engines):
    text = ("SELECT ?s ?t WHERE { ?s swrc:pages ?o . ?t swrc:pages ?u "
            "FILTER (?o = ?u) }")
    for label, engine, _oracle in edge_engines:
        subjects = {str(s) for s, _t in engine.select(text)}
        assert "http://x/extra5" not in subjects, label
        assert "http://x/extra0" in subjects, label


def test_literal_equality_still_matches_by_value(edge_engines):
    text = "SELECT ?s WHERE { ?s swrc:pages ?o FILTER (?o = 1) }"
    for label, engine, _oracle in edge_engines:
        subjects = {str(row[0]) for row in engine.select(text)}
        assert subjects == {"http://x/extra0", "http://x/extra1"}, label


def test_value_equal_join_keys_match_across_datatypes(edge_engines):
    text = ("SELECT ?s ?t WHERE { ?s swrc:pages ?o . ?t swrc:pages ?u "
            "FILTER (?o = ?u) }")
    plain_vs_typed = ("SELECT ?s ?t WHERE { ?s swrc:pages ?o . ?t dc:title ?u "
                      "FILTER (?o = ?u) }")
    for label, engine, _oracle in edge_engines:
        pairs = {(str(s), str(t)) for s, t in engine.select(text)}
        assert ("http://x/extra0", "http://x/extra1") in pairs, label  # 1 = 1.0
        assert ("http://x/extra0", "http://x/extra2") not in pairs, label
        titled = {(str(s), str(t)) for s, t in engine.select(plain_vs_typed)}
        # "Paper 3" = "Paper 3"^^xsd:string
        assert titled == {("http://x/extra3", "http://x/article3"),
                          ("http://x/extra4", "http://x/article4")}, label
