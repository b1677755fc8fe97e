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
    serializers,
    translate_query,
)
from repro.sparql import algebra
from repro.sparql.algebra import collect_bgps
from repro.sparql.engine import NATIVE_OPTIMIZED
from repro.sparql.planner import BIND_JOIN, PROBE, SCAN, JoinPlan, textual_plan
from repro.store import IndexedStore, MemoryStore
from repro.store.mvcc import MvccStore, read_snapshot

import oracle

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_GYEAR = "http://www.w3.org/2001/XMLSchema#gYear"

#: The two kinds of plan step a BGP can run from.
STRATEGIES = (PROBE, SCAN)


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


def tree_for(query_text, strategy=None):
    """The bare algebra tree; with ``strategy``, every BGP planned on it."""
    tree = translate_query(parse_query(query_text))
    if strategy is not None:
        for bgp in collect_bgps(tree):
            bgp.plan = textual_plan(bgp.patterns, strategy)
    return tree


def multiset(bindings):
    return oracle.multiset(dict(binding.items()) for binding in bindings)


def bindings(store, tree):
    """The result rows of a SELECT-shaped tree on the executor."""
    return list(IdSpaceEvaluation(store).bindings(tree))


class CountingDictionaryStore(IndexedStore):
    """An IndexedStore counting decode calls and id-level index probes."""

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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_evaluate_ids_rows_decode_to_evaluate_bindings(self, strategy):
        store = IndexedStore(GRAPH)
        tree = tree_for(
            "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }",
            strategy,
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


class CountingScanStore(MemoryStore):
    """A MemoryStore counting its id-level pattern scans."""

    probe_calls = 0

    def triples_ids(self, subject=None, predicate=None, object=None):
        self.probe_calls += 1
        return super().triples_ids(subject, predicate, object)


class TestUnknownConstantShortCircuit:
    #: bench:Journal never occurs in the data, so the whole BGP is empty.
    UNKNOWN = "SELECT ?x ?t WHERE { ?x rdf:type bench:Journal . ?x dc:title ?t }"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_constant_skips_index_probes(self, strategy):
        store = CountingDictionaryStore(GRAPH)
        assert bindings(store, tree_for(self.UNKNOWN, strategy)) == []
        assert store.probe_calls == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_constant_skips_the_scan_too(self, strategy):
        store = CountingScanStore(GRAPH)
        assert bindings(store, tree_for(self.UNKNOWN, strategy)) == []
        assert store.probe_calls == 0

    def test_known_constants_do_probe(self):
        store = CountingDictionaryStore(GRAPH)
        tree = tree_for("SELECT ?x WHERE { ?x rdf:type bench:Article }")
        assert len(bindings(store, tree)) == 3
        assert store.probe_calls > 0


class TestZeroDecodeJoins:
    """BGP join execution on the indexed store never calls decode."""

    JOIN_QUERIES = (
        "SELECT ?d ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }",
        "SELECT ?a ?b WHERE { ?a rdf:type bench:Article . ?b rdf:type foaf:Person }",
        "SELECT ?d ?a WHERE { ?d rdf:type bench:Article OPTIONAL { ?d bench:abstract ?a } }",
    )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("query", JOIN_QUERIES)
    def test_zero_decodes_during_join_execution(self, strategy, query):
        store = CountingDictionaryStore(GRAPH)
        _layout, rows = IdSpaceEvaluation(store).solve(tree_for(query, strategy))
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
        rows = bindings(store, tree_for(self.CREATORS))
        assert store.decode_calls == 0
        assert rows[0].is_bound("name") and "d" in rows[0]
        assert store.decode_calls == 0
        assert isinstance(rows[0].get("name"), Literal)
        assert store.decode_calls == 1
        assert rows[0].get("?p") is None      # projected away
        assert rows[0].get("nowhere", "fallback") == "fallback"
        assert store.decode_calls == 1

    def test_lazy_rows_agree_with_eager_bindings(self):
        lazy = bindings(IndexedStore(GRAPH), tree_for(self.CREATORS))
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
        rows = list(run.bindings(tree_for(self.CREATORS)))
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
            tree_for("SELECT ?d WHERE { ?d dcterms:issued ?yr FILTER (?yr > 1992) }")
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
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_id_space_left_join_matches_naive(self, query, strategy):
        hashed = multiset(bindings(IndexedStore(GRAPH), tree_for(query, strategy)))
        assert hashed == oracle.multiset(oracle.evaluate(query, GRAPH))

    @pytest.mark.parametrize("query", (Q6_SHAPED, Q7_SHAPED, SHARED_OPTIONAL))
    def test_term_space_left_join_matches_naive(self, query):
        # On the scan store.
        hashed = multiset(bindings(MemoryStore(GRAPH), tree_for(query)))
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
    def bind_joined(query, outer_bound):
        """Every BGP on SCAN steps, every Join a bind join; with
        ``outer_bound`` the right side's steps know the left side's
        variables, as the cost planner tells them."""
        tree = tree_for(query, SCAN)
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
        rows = bindings(family(GRAPH), self.bind_joined(query, outer_bound))
        expected = oracle.multiset(oracle.evaluate(query, GRAPH))
        assert multiset(rows) == expected
        assert len(rows) >= 3

    @pytest.mark.parametrize("family", (IndexedStore, MemoryStore))
    def test_cartesian_scan_step(self, family):
        rows = bindings(family(GRAPH), tree_for(CARTESIAN_SCAN, SCAN))
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
        tree = tree_for(self.QUERY)
        id_rows = bindings(IndexedStore(graph), tree)
        expected = oracle.multiset(oracle.evaluate(self.QUERY, graph))
        assert multiset(id_rows) == multiset(bindings(MemoryStore(graph), tree))
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
        tree = tree_for(query)
        id_rows = bindings(IndexedStore(g), tree)
        expected = oracle.multiset(oracle.evaluate(query, g))
        assert multiset(id_rows) == multiset(bindings(MemoryStore(g), tree))
        assert multiset(id_rows) == expected
        assert len(id_rows) == 1
        assert id_rows[0].get("b") is None  # "same"@en != "same"


class TestEvaluatorFacade:
    """IdSpaceEvaluation is the one evaluator every store runs through."""

    def test_scan_store_answers_on_the_same_executor(self):
        tree = tree_for(TestZeroDecodeJoins.CREATORS)
        scanned = bindings(MemoryStore(GRAPH), tree)
        assert scanned and all(isinstance(row, IdBinding) for row in scanned)
        assert multiset(scanned) == multiset(bindings(IndexedStore(GRAPH), tree))

    def test_ask_on_id_path(self):
        for store in (IndexedStore(GRAPH), MemoryStore(GRAPH)):
            evaluation = IdSpaceEvaluation(store)
            assert evaluation.ask(tree_for("ASK { ?d rdf:type bench:Article }").operand)
            assert not evaluation.ask(tree_for("ASK { ?d rdf:type bench:Journal }").operand)
