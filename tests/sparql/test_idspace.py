"""Tests for the id-space evaluation pipeline (joins over dictionary ids)."""

import gc
import json
import weakref

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
    Variable,
)
from repro.sparql import (
    Binding,
    IdBinding,
    IdSpaceEvaluation,
    SelectResult,
    SlotLayout,
    SparqlEngine,
    parse_query,
    plan_tree,
    serializers,
    translate_query,
)
from repro.sparql import algebra
from repro.sparql.algebra import collect_bgps
from repro.sparql.engine import NATIVE_OPTIMIZED
from repro.sparql.planner import BIND_JOIN, PLANNER_NONE, PROBE, SCAN, JoinPlan
from repro.store import IndexedStore, MemoryStore
from repro.store.mvcc import MvccStore, read_snapshot

import oracle

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_GYEAR = "http://www.w3.org/2001/XMLSchema#gYear"

#: The two store families, by the access path each answers a pattern with.
FAMILIES = pytest.mark.parametrize("family", (IndexedStore, MemoryStore), ids=(PROBE, SCAN))


def s(value):
    return Literal(value, datatype=XSD_STRING)


def build_graph():
    """Documents, creators, and years — enough for joins and OPTIONALs."""
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
    g.add(Triple(d1, BENCH.abstract, s("an abstract")))
    return g


GRAPH = build_graph()


def tree_for(query_text, store=None):
    """The bare algebra tree; with ``store``, every BGP planned on it in
    textual order, on the store family's access path."""
    tree = translate_query(parse_query(query_text))
    return tree if store is None else plan_tree(tree, store, PLANNER_NONE)


def multiset(bindings):
    return oracle.multiset(dict(binding.items()) for binding in bindings)


def bindings(store, tree):
    """The result rows of a planned SELECT-shaped tree on the executor."""
    return list(IdSpaceEvaluation(store).bindings(tree))


def solutions(store, query_text):
    """The result rows of a SELECT query planned on ``store``."""
    return bindings(store, tree_for(query_text, store))


def counting(family):
    """A store of ``family`` counting decode calls and id-level pattern
    accesses (index probes or scans)."""

    class Counting(family):
        def __init__(self, triples=None):
            super().__init__(triples)
            self.probe_calls = 0
            self.decode_calls = 0
            original = self._dictionary.decode

            def counting_decode(term_id):
                self.decode_calls += 1
                return original(term_id)

            self._dictionary.decode = counting_decode

        def triples_ids(self, subject=None, predicate=None, object=None):
            self.probe_calls += 1
            return super().triples_ids(subject, predicate, object)

    return Counting


CountingDictionaryStore = counting(IndexedStore)
CountingScanStore = counting(MemoryStore)
COUNTING_FAMILIES = pytest.mark.parametrize(
    "family", (CountingDictionaryStore, CountingScanStore), ids=(PROBE, SCAN))


class TestSlotLayout:
    def test_collects_pattern_variables_in_first_seen_order(self):
        layout = SlotLayout.for_tree(
            tree_for("SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }")
        )
        assert layout.names == ("d", "p", "name")
        assert layout.slot("p") == 1
        assert layout.slot("?name") == 2

    def test_unknown_variable_has_no_slot(self):
        layout = SlotLayout.for_tree(tree_for("SELECT ?d WHERE { ?d ?p ?o }"))
        assert layout.slot("nosuch") is None

    def test_empty_row_width(self):
        layout = SlotLayout.for_tree(tree_for("SELECT ?d WHERE { ?d ?p ?o }"))
        assert layout.empty_row() == (None, None, None)
        assert layout.width == 3


class TestIdRoundTrip:
    """Id-level store access decodes back to exactly the term-level view."""

    def test_triples_ids_round_trip_through_dictionary(self):
        store = IndexedStore(GRAPH)
        encoded = store.encode_pattern(None, DC.creator, None)
        assert encoded is not None
        decode = store.dictionary.decode
        decoded = {
            Triple(decode(s_id), decode(p_id), decode(o_id))
            for s_id, p_id, o_id in store.triples_ids(*encoded)
        }
        assert decoded == set(store.triples(predicate=DC.creator))

    def test_count_ids_matches_term_count(self):
        store = IndexedStore(GRAPH)
        encoded = store.encode_pattern(None, RDF.type, None)
        assert store.count_ids(*encoded) == store.count(predicate=RDF.type)

    @FAMILIES
    def test_evaluate_ids_rows_decode_to_evaluate_bindings(self, family):
        store = family(GRAPH)
        tree = tree_for(
            "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }",
            store,
        )
        from collections import Counter

        layout, rows = IdSpaceEvaluation(store).solve(tree)
        decode = store.dictionary.decode
        from_ids = Counter(
            frozenset(
                (name, decode(cell))
                for name, cell in zip(layout.names, row)
                if cell is not None
            )
            for row in rows
        )
        from_terms = Counter(
            frozenset(binding.items()) for binding in bindings(store, tree)
        )
        assert from_ids == from_terms


class TestUnknownConstantShortCircuit:
    #: bench:Journal never occurs in the data, so the whole BGP is empty.
    UNKNOWN = "SELECT ?x ?t WHERE { ?x rdf:type bench:Journal . ?x dc:title ?t }"

    @COUNTING_FAMILIES
    def test_unknown_constant_skips_the_store(self, family):
        store = family(GRAPH)
        assert solutions(store, self.UNKNOWN) == []
        assert store.probe_calls == 0

    @COUNTING_FAMILIES
    def test_known_constants_do_probe(self, family):
        store = family(GRAPH)
        assert len(solutions(store, "SELECT ?x WHERE { ?x rdf:type bench:Article }")) == 3
        assert store.probe_calls > 0


class TestZeroDecodeJoins:
    """BGP join execution on the indexed store never calls decode."""

    JOIN_QUERIES = (
        "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }",
        "SELECT ?a ?b WHERE { ?a rdf:type bench:Article . ?b rdf:type foaf:Person }",
        "SELECT ?d ?a WHERE { ?d rdf:type bench:Article OPTIONAL { ?d bench:abstract ?a } }",
    )

    @COUNTING_FAMILIES
    @pytest.mark.parametrize("query", JOIN_QUERIES)
    def test_zero_decodes_during_join_execution(self, family, query):
        store = family(GRAPH)
        _layout, rows = IdSpaceEvaluation(store).solve(tree_for(query, store))
        consumed = list(rows)
        assert consumed, "expected non-empty join results"
        assert store.decode_calls == 0

    CREATORS = "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }"

    def test_decodes_happen_only_at_the_result_boundary(self):
        """Draining decodes nothing; serializing decodes each distinct id once."""
        store = CountingDictionaryStore(GRAPH)
        engine = SparqlEngine(NATIVE_OPTIMIZED, store=store)
        prepared = engine.prepare(self.CREATORS)
        rows = list(prepared.run())
        assert len(rows) == 4
        assert all(isinstance(row, IdBinding) for row in rows)
        assert store.decode_calls == 0
        # 3 distinct documents + 3 distinct names over 4 rows x 2 columns,
        # and a second format re-uses the result's term memo.
        document = json.loads(serializers.serialize(prepared.variables, rows, "json"))
        assert len(document["results"]["bindings"]) == 4
        assert store.decode_calls == 6
        serializers.serialize(prepared.variables, rows, "tsv")
        assert store.decode_calls == 6

    def test_get_decodes_on_touch(self):
        store = CountingDictionaryStore(GRAPH)
        rows = solutions(store, self.CREATORS)
        assert store.decode_calls == 0
        assert rows[0].is_bound("name") and "d" in rows[0]
        assert store.decode_calls == 0
        assert isinstance(rows[0].get("name"), Literal)
        assert store.decode_calls == 1
        assert rows[0].get("?p") is None      # projected away
        assert rows[0].get("nowhere", "fallback") == "fallback"
        assert store.decode_calls == 1

    def test_lazy_rows_agree_with_eager_bindings(self):
        lazy = solutions(IndexedStore(GRAPH), self.CREATORS)
        eager = [Binding(row) for row in oracle.evaluate(self.CREATORS, GRAPH)]
        assert multiset(lazy) == multiset(eager)
        by_key = {frozenset(row.items()): row for row in eager}
        for row in lazy:
            twin = by_key[frozenset(row.items())]
            assert row == twin and twin == row
            assert hash(row) == hash(twin)
            assert len({row, twin}) == 1
            assert row.as_dict() == twin.as_dict()
            assert row.variables() == twin.variables() == {"d", "name"}
            assert row.row(["name", "d", "p"]) == twin.row(["name", "d", "p"])
        variables = [Variable("d"), Variable("name")]
        assert SelectResult(variables, lazy) == SelectResult(variables, eager)
        with pytest.raises(AttributeError):
            lazy[0].extra = 1

    @pytest.mark.parametrize("update", (
        'INSERT DATA { <http://x/doc9> dc:creator _:zed . _:zed foaf:name "Zed" }',
        "DELETE WHERE { ?d dc:creator ?p }",
    ))
    def test_rows_drained_before_a_publish_decode_the_same_after_it(self, update):
        engine = SparqlEngine(NATIVE_OPTIMIZED, store=MvccStore(IndexedStore(GRAPH)))
        prepared = engine.prepare(self.CREATORS)
        expected = prepared.run().all().as_multiset()
        rows = list(prepared.run())               # drained, nothing decoded
        version = engine.store.version
        engine.update(update)
        assert engine.store.version == version + 1
        assert prepared.run().all().as_multiset() != expected
        assert multiset(rows) == expected
        assert len(json.loads(
            serializers.serialize(prepared.variables, rows, "json")
        )["results"]["bindings"]) == 4

    def test_held_rows_pin_only_the_dictionary_and_the_term_memo(self):
        store = MvccStore(IndexedStore(GRAPH))
        generation = read_snapshot(store)
        run = IdSpaceEvaluation(generation)
        rows = list(run.bindings(tree_for(self.CREATORS, generation)))
        shape = rows[0]._shape
        assert all(row._shape is shape for row in rows)
        dead = [weakref.ref(run), weakref.ref(generation)]
        alive = weakref.ref(generation.dictionary)
        SparqlEngine(NATIVE_OPTIMIZED, store=store).update(
            "DELETE WHERE { ?d dc:creator ?p }"
        )                                         # the store moves on
        del run, generation, store, shape
        gc.collect()
        assert [ref() for ref in dead] == [None, None]
        assert alive() is not None
        assert {row.get("name") for row in rows} == {s("Alice"), s("Bob"), s("Carol")}

    def test_filter_decodes_are_memoized_per_id(self):
        store = CountingDictionaryStore(GRAPH)
        _layout, rows = IdSpaceEvaluation(store).solve(
            tree_for("SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?yr > 1992) }", store)
        )
        assert len(list(rows)) == 2
        # Three distinct year literals exist; each is decoded at most once.
        assert store.decode_calls <= 3


#: Q6-shaped: the OPTIONAL shares no variable with the outer group; the join
#: happens entirely through the condition's equality conjunct.
Q6_SHAPED = """
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

#: Q7-shaped: nested OPTIONALs with shared variables plus conditions.
Q7_SHAPED = """
SELECT ?d ?name WHERE {
  ?d rdf:type bench:Article
  OPTIONAL {
    ?d dc:creator ?p
    OPTIONAL { ?p foaf:name ?name }
  }
  OPTIONAL { ?d bench:abstract ?a FILTER (?name != "Carol"^^xsd:string) }
}
"""

#: Plain shared-variable OPTIONAL.
SHARED_OPTIONAL = """
SELECT ?d ?a WHERE {
  ?d rdf:type bench:Article
  OPTIONAL { ?d bench:abstract ?a }
}
"""


class TestHashLeftJoinEquivalence:
    """The hash-based OPTIONAL joins agree with the oracle's textbook one."""

    @pytest.mark.parametrize("query", (Q6_SHAPED, Q7_SHAPED, SHARED_OPTIONAL))
    @FAMILIES
    def test_id_space_left_join_matches_naive(self, query, family):
        hashed = multiset(solutions(family(GRAPH), query))
        assert hashed == oracle.multiset(oracle.evaluate(query, GRAPH))


#: A bind join whose OPTIONAL left side leaves the shared ?abs unbound in
#: most rows: those rows are compatible with every right row.
UNBOUND_SHARED_BIND_JOIN = """
SELECT * WHERE {
  { ?d rdf:type bench:Article OPTIONAL { ?d bench:abstract ?abs } }
  { ?e bench:abstract ?abs . ?e dc:creator ?p }
}
"""

#: A bind join whose right side shares no variable with the left one.
CARTESIAN_BIND_JOIN = """
SELECT * WHERE {
  { ?d rdf:type bench:Article OPTIONAL { ?d bench:abstract ?abs } }
  { ?p rdf:type foaf:Person . ?p foaf:name ?n }
}
"""

#: Two patterns without a shared variable: a cartesian SCAN step.
CARTESIAN_SCAN = """
SELECT ?d ?p WHERE { ?d rdf:type bench:Article . ?p rdf:type foaf:Person }
"""


class TestHandPlannedJoinPaths:
    """SCAN steps joining rows that leave shared slots unbound, and rows
    that share no slot at all, agree with the oracle on both stores."""

    @staticmethod
    def scan_planned(store, query):
        """``query`` planned on ``store``, every BGP on SCAN steps (whatever
        the store family: the executor runs the plan's access path)."""
        tree = tree_for(query, store)
        for bgp in collect_bgps(tree):
            bgp.plan.access = SCAN
        return tree

    @classmethod
    def bind_joined(cls, store, query, outer_bound):
        """Every BGP on SCAN steps, every Join a bind join; with
        ``outer_bound`` the right side's steps know the left side's
        variables, as the cost planner tells them."""
        tree = cls.scan_planned(store, query)
        for node in algebra.walk(tree):
            if isinstance(node, algebra.Join):
                node.plan = JoinPlan(strategy=BIND_JOIN)
                if outer_bound:
                    names = frozenset(v.name for v in node.left.variables())
                    for bgp in collect_bgps(node.right):
                        bgp.plan.outer_bound = names
        return tree

    @pytest.mark.parametrize("family", (IndexedStore, MemoryStore))
    @pytest.mark.parametrize("outer_bound", (True, False))
    @pytest.mark.parametrize("query", (UNBOUND_SHARED_BIND_JOIN,
                                       CARTESIAN_BIND_JOIN))
    def test_bind_join_into_scan_steps(self, family, outer_bound, query):
        store = family(GRAPH)
        rows = bindings(store, self.bind_joined(store, query, outer_bound))
        expected = oracle.multiset(oracle.evaluate(query, GRAPH))
        assert multiset(rows) == expected
        assert len(rows) >= 3

    @pytest.mark.parametrize("family", (IndexedStore, MemoryStore))
    def test_cartesian_scan_step(self, family):
        store = family(GRAPH)
        rows = bindings(store, self.scan_planned(store, CARTESIAN_SCAN))
        assert multiset(rows) == oracle.multiset(
            oracle.evaluate(CARTESIAN_SCAN, GRAPH))
        assert len(rows) == 9


class TestEquiConditionValueSemantics:
    """Hashing on condition equalities must keep SPARQL value-equality."""

    def build(self):
        g = Graph()
        d1, d2 = URIRef("http://x/a"), URIRef("http://x/b")
        g.add(Triple(d1, RDF.type, BENCH.Article))
        # gYear on one side, plain integer on the other: equal by value.
        g.add(Triple(d1, DCTERMS.issued, Literal("1940", datatype=XSD_GYEAR)))
        g.add(Triple(d2, RDF.type, BENCH.Journal))
        g.add(Triple(d2, DCTERMS.issued, Literal(1940)))
        return g

    QUERY = """
    SELECT ?a ?b WHERE {
      ?a rdf:type bench:Article .
      ?a dcterms:issued ?y1
      OPTIONAL {
        ?b rdf:type bench:Journal .
        ?b dcterms:issued ?y2
        FILTER (?y1 = ?y2)
      }
    }
    """

    def test_numeric_value_equality_across_datatypes(self):
        graph = self.build()
        id_rows = solutions(IndexedStore(graph), self.QUERY)
        expected = oracle.multiset(oracle.evaluate(self.QUERY, graph))
        assert multiset(id_rows) == multiset(solutions(MemoryStore(graph), self.QUERY))
        assert multiset(id_rows) == expected
        assert len(id_rows) == 1
        assert id_rows[0].get("b") is not None  # 1940^^gYear = 1940^^integer

    def test_language_tagged_literals_do_not_value_join(self):
        g = Graph()
        d1, d2 = URIRef("http://x/a"), URIRef("http://x/b")
        g.add(Triple(d1, RDF.type, BENCH.Article))
        g.add(Triple(d1, DC.title, Literal("same", language="en")))
        g.add(Triple(d2, RDF.type, BENCH.Journal))
        g.add(Triple(d2, DC.title, Literal("same")))
        query = """
        SELECT ?a ?b WHERE {
          ?a rdf:type bench:Article .
          ?a dc:title ?t1
          OPTIONAL {
            ?b rdf:type bench:Journal .
            ?b dc:title ?t2
            FILTER (?t1 = ?t2)
          }
        }
        """
        id_rows = solutions(IndexedStore(g), query)
        expected = oracle.multiset(oracle.evaluate(query, g))
        assert multiset(id_rows) == multiset(solutions(MemoryStore(g), query))
        assert multiset(id_rows) == expected
        assert len(id_rows) == 1
        assert id_rows[0].get("b") is None  # "same"@en != "same"


class TestEvaluatorFacade:
    """IdSpaceEvaluation is the one evaluator every store runs through."""

    def test_scan_store_answers_on_the_same_executor(self):
        query = TestZeroDecodeJoins.CREATORS
        scanned = solutions(MemoryStore(GRAPH), query)
        assert scanned and all(isinstance(row, IdBinding) for row in scanned)
        assert multiset(scanned) == multiset(solutions(IndexedStore(GRAPH), query))

    def test_ask_on_id_path(self):
        for store in (IndexedStore(GRAPH), MemoryStore(GRAPH)):
            evaluation = IdSpaceEvaluation(store)
            assert evaluation.ask(tree_for("ASK { ?d rdf:type bench:Article }", store).operand)
            assert not evaluation.ask(
                tree_for("ASK { ?d rdf:type bench:Journal }", store).operand)
