"""Tests for the prepared-query / streaming engine API.

Covers the serving-oriented guarantees of the redesign: parse+plan exactly
once per prepared query, LIMIT/OFFSET bounded evaluation that stops
producing early (asserted by producer-count probes on the store access
paths), ASK short-circuiting, parameter pre-binding on both store families,
and mid-stream :class:`QueryTimeout` enforcement.
"""

from collections import Counter

import pytest

from repro.generator import DblpGenerator, GeneratorConfig
from repro.queries import get_query, select_queries
from repro.sparql import (
    ENGINE_PRESETS,
    IN_MEMORY_OPTIMIZED,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    AskCursor,
    Deadline,
    PreparedQuery,
    QueryTimeout,
    SelectCursor,
    SparqlEngine,
    algebra,
    kernels,
)
from repro.rdf import Literal
from repro.sparql.planner import KERNEL


@pytest.fixture(scope="module")
def graph():
    return DblpGenerator(GeneratorConfig(triple_limit=2_000)).graph()


@pytest.fixture(scope="module")
def native(graph):
    return SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)


@pytest.fixture(scope="module")
def memory(graph):
    return SparqlEngine.from_graph(graph, IN_MEMORY_OPTIMIZED)


def probe_counter(store, method_name):
    """Wrap a store access path so every produced item is counted.

    Returns the mutable count holder; restoring is the caller's
    responsibility (tests use try/finally or fixture-scoped engines whose
    wrapped method is removed afterwards).
    """
    counts = {"produced": 0}
    original = getattr(store, method_name)

    def counting(*args, **kwargs):
        for item in original(*args, **kwargs):
            counts["produced"] += 1
            yield item

    setattr(store, method_name, counting)
    counts["restore"] = lambda: delattr(store, method_name)
    return counts


class TestPreparedQuery:
    def test_prepare_returns_prepared_query(self, native):
        prepared = native.prepare(get_query("Q1").text)
        assert isinstance(prepared, PreparedQuery)
        assert prepared.form == "SELECT"
        assert [str(v) for v in prepared.variables] == ["?yr"]

    def test_run_returns_select_cursor(self, native):
        cursor = native.prepare(get_query("Q1").text).run()
        assert isinstance(cursor, SelectCursor)
        assert len(list(cursor)) == 1

    def test_ask_prepares_to_ask_cursor(self, native):
        cursor = native.prepare(get_query("Q12c").text).run()
        assert isinstance(cursor, AskCursor)

    def test_repeated_runs_agree(self, native):
        prepared = native.prepare(get_query("Q5b").text)
        first = prepared.run().all()
        second = prepared.run().all()
        assert first == second
        assert prepared.run_count == 2

    def test_matches_eager_query(self, native):
        text = get_query("Q5b").text
        assert native.prepare(text).run().all() == native.query(text)

    def test_stream_is_prepare_run_shorthand(self, native):
        assert native.stream(get_query("Q1").text).all() == native.query(
            get_query("Q1").text
        )

    def test_unsupported_form_raises(self, native):
        with pytest.raises(Exception):
            native.prepare("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }")

    def test_prepare_cached_memoizes_per_text(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        text = get_query("Q1").text
        assert engine.prepare_cached(text) is engine.prepare_cached(text)
        assert engine.prepare_cached(text) is not engine.prepare(text)

    def test_prepare_cached_is_lru_bounded(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        engine.PREPARED_CACHE_SIZE = 3
        hot = engine.prepare_cached("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1")
        for index in range(5):
            engine.prepare_cached(f"SELECT ?s WHERE {{ ?s ?p ?o }} LIMIT {index + 2}")
            # Re-touching the hot entry keeps it resident across evictions.
            assert engine.prepare_cached(
                "SELECT ?s WHERE { ?s ?p ?o } LIMIT 1") is hot
        assert len(engine._prepared_cache) == 3


class TestLimitPushdown:
    """Bounded queries must stop pulling from the store early."""

    def test_limit_run_option_stops_production_native(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        total = len(engine.store)
        counts = probe_counter(engine.store, "triples_ids")
        try:
            cursor = engine.prepare("SELECT ?s WHERE { ?s ?p ?o }").run(limit=1)
            assert len(list(cursor)) == 1
        finally:
            counts["restore"]()
        assert 0 < counts["produced"] < total / 10

    def test_query_level_limit_stops_production_native(self, generated_graph_medium):
        # On native-cost the pattern streams SPO on the batch kernels: the
        # LIMIT stops it after its first block, and no row comes through the
        # tuple path's triples_ids.
        engine = SparqlEngine.from_graph(generated_graph_medium, NATIVE_COST)
        total = len(engine.store)
        counts = probe_counter(engine.store, "triples_ids")
        try:
            text = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 2"
            assert len(engine.prepare(text).run().all()) == 2
            report = engine.explain(text)
        finally:
            counts["restore"]()
        (step,) = report.plan_steps()
        (bgp,) = algebra.collect_bgps(report.tree)
        assert bgp.plan.access == KERNEL and step.partial
        assert counts["produced"] == 0
        assert 0 < step.actual <= kernels.BLOCK_ROWS < total / 4

    def test_limit_pushdown_term_space_nested_loop(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        counts = probe_counter(engine.store, "triples_ids")
        try:
            first = engine.stream("SELECT ?s WHERE { ?s ?p ?o }").first()
            assert first is not None
        finally:
            counts["restore"]()
        assert counts["produced"] <= 2

    def test_offset_skips_rows(self, native):
        text = "SELECT ?name WHERE { ?p foaf:name ?name } ORDER BY ?name"
        everything = native.prepare(text).run().all().rows()
        window = native.prepare(text).run(limit=3, offset=2).all().rows()
        assert window == everything[2:5]

    @pytest.mark.parametrize("argument", ("limit", "offset"))
    def test_negative_window_is_rejected_by_name(self, native, argument):
        prepared = native.prepare("SELECT ?s WHERE { ?s ?p ?o }")
        with pytest.raises(ValueError, match=f"^{argument} must not be negative"):
            prepared.run(**{argument: -1})
        assert len(list(prepared.run(**{argument: 0}))) == (
            0 if argument == "limit" else len(native.store))

    @pytest.mark.parametrize("argument", ("timeout", "deadline"))
    def test_nan_budget_is_rejected(self, native, argument):
        # NaN compares false with everything, so it would never expire.
        prepared = native.prepare("SELECT ?s WHERE { ?s ?p ?o }")
        with pytest.raises(ValueError, match="NaN"):
            prepared.run(**{argument: float("nan")})

    @pytest.mark.parametrize("query", select_queries(), ids=lambda q: q.identifier)
    @pytest.mark.parametrize("family", ("native", "memory"))
    def test_pages_cover_every_catalog_result_once(self, request, family, query):
        # A client paging one prepared plan with limit/offset sees full-size
        # windows that concatenate to exactly the unbounded run.
        prepared = request.getfixturevalue(family).prepare(query.text)
        full = list(prepared.run())
        size = len(full) // 3 + 1
        starts = range(0, len(full) + size, size)
        pages = [list(prepared.run(limit=size, offset=start)) for start in starts]
        assert [len(page) for page in pages] == [
            max(0, min(size, len(full) - start)) for start in starts]
        assert [row for page in pages for row in page] == full

    def test_full_run_unaffected_by_probe(self, native):
        # Sanity check of the probe itself: an unbounded run produces >= the
        # store size for the all-wildcard scan.
        counts = probe_counter(native.store, "triples_ids")
        try:
            rows = list(native.stream("SELECT ?s WHERE { ?s ?p ?o }"))
        finally:
            counts["restore"]()
        assert counts["produced"] >= len(rows)


class TestAskShortCircuit:
    def test_ask_touches_at_most_one_candidate(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        counts = probe_counter(engine.store, "triples_ids")
        try:
            assert bool(engine.stream("ASK { ?s ?p ?o }"))
        finally:
            counts["restore"]()
        assert counts["produced"] <= 1

    def test_ask_short_circuit_term_space(self, graph):
        # The executor on a plan of probe steps over a scan store: the store's
        # own plans are scans on purpose, since scanning the whole document
        # per pattern is the in-memory cost model the benchmark contrasts
        # against.
        from repro.sparql import IdSpaceEvaluation, parse_query, plan_tree, translate_query
        from repro.sparql.algebra import collect_bgps
        from repro.sparql.planner import PLANNER_NONE, PROBE
        from repro.store import MemoryStore

        store = MemoryStore(graph)
        tree = plan_tree(translate_query(parse_query("ASK { ?s ?p ?o }")), store, PLANNER_NONE)
        for bgp in collect_bgps(tree):
            bgp.plan.access = PROBE
        counts = probe_counter(store, "triples_ids")
        try:
            assert IdSpaceEvaluation(store).ask(tree.operand) is True
        finally:
            counts["restore"]()
        assert counts["produced"] <= 1


class TestPreBinding:
    QUERY = "SELECT ?p ?name WHERE { ?d dc:creator ?p . ?p foaf:name ?name }"

    @pytest.mark.parametrize("config", (NATIVE_OPTIMIZED, NATIVE_COST, IN_MEMORY_OPTIMIZED),
                             ids=lambda c: c.name)
    def test_binding_restricts_results(self, graph, config):
        engine = SparqlEngine.from_graph(graph, config)
        prepared = engine.prepare(self.QUERY)
        everything = prepared.run().all()
        assert len(everything) > 1
        name = everything.rows()[0][1]
        bound = prepared.run(bindings={"name": name}).all()
        assert 0 < len(bound) < len(everything)
        assert all(binding.get("name") == name for binding in bound)

    def test_binding_accepts_variable_syntax(self, native, graph):
        prepared = native.prepare(self.QUERY)
        name = prepared.run().all().rows()[0][1]
        by_name = prepared.run(bindings={"?name": name}).all()
        by_bare = prepared.run(bindings={"name": name}).all()
        assert by_name == by_bare

    def test_unknown_term_yields_empty_on_indexed_store(self, native):
        prepared = native.prepare(self.QUERY)
        result = prepared.run(bindings={"name": Literal("no such author")}).all()
        assert len(result) == 0

    def test_unknown_term_yields_empty_on_memory_store(self, memory):
        prepared = memory.prepare(self.QUERY)
        result = prepared.run(bindings={"name": Literal("no such author")}).all()
        assert len(result) == 0

    def test_unused_variable_is_ignored(self, native):
        prepared = native.prepare(self.QUERY)
        result = prepared.run(bindings={"unused": Literal("whatever")}).all()
        assert result == prepared.run().all()

    #: ?name pre-bound to a term the data does not hold empties the BGP
    #: that uses ?name and nothing else: (query, query giving the rows that
    #: must remain, each then carrying the pre-bound ?name).
    UNKNOWN_TERM_CASES = {
        "union": (
            "SELECT ?name ?t WHERE { { ?p foaf:name ?name } UNION "
            "{ ?j rdf:type bench:Journal . ?j dc:title ?t } }",
            "SELECT ?t WHERE { ?j rdf:type bench:Journal . ?j dc:title ?t }",
        ),
        "optional": (
            "SELECT ?name ?j WHERE { ?j rdf:type bench:Journal "
            "OPTIONAL { ?j dc:creator ?p . ?p foaf:name ?name } }",
            "SELECT ?j WHERE { ?j rdf:type bench:Journal }",
        ),
        "ungrouped aggregate": (
            "SELECT (COUNT(?p) AS ?n) WHERE { ?p foaf:name ?name }",
            None,
        ),
    }

    @pytest.mark.parametrize("case", UNKNOWN_TERM_CASES)
    @pytest.mark.parametrize("config", ENGINE_PRESETS + (NATIVE_COST,),
                             ids=lambda c: c.name)
    def test_unknown_term_empties_only_the_bgps_using_it(self, graph, config, case):
        engine = SparqlEngine.from_graph(graph, config)
        query, remaining = self.UNKNOWN_TERM_CASES[case]
        nobody = Literal("no such author")
        rows = engine.prepare(query).run(bindings={"name": nobody}).all().rows()
        if remaining is None:
            assert rows == [(Literal(0),)]
        else:
            kept = engine.query(remaining).rows()
            assert len(kept) > 1
            assert Counter(rows) == Counter((nobody,) + row for row in kept)

    @pytest.mark.parametrize("names", [("a", "o"), ("o", "a")])
    @pytest.mark.parametrize("config", ENGINE_PRESETS + (NATIVE_COST,),
                             ids=lambda c: c.name)
    def test_two_unknown_terms_read_no_other_terms_rows(self, graph, config, names):
        # Each gets its own stand-in id (-1, -2): the second one, as subject
        # or object of a variable-predicate pattern, must match nothing.
        engine = SparqlEngine.from_graph(graph, config)
        query = ("SELECT ?a ?o ?j WHERE { { ?a ?q ?b } UNION { ?s ?p ?o } "
                 "UNION { ?j rdf:type bench:Journal } }")
        terms = {"a": Literal("no such subject"), "o": Literal("no such object")}
        rows = engine.prepare(query).run(
            bindings={name: terms[name] for name in names}).all().rows()
        journals = engine.query("SELECT ?j WHERE { ?j rdf:type bench:Journal }").rows()
        assert len(journals) > 1
        assert Counter(rows) == Counter((terms["a"], terms["o"]) + row for row in journals)


class TestMidStreamTimeout:
    def test_expired_deadline_interrupts_evaluation(self, native):
        prepared = native.prepare(get_query("Q2").text)
        with pytest.raises(QueryTimeout):
            list(prepared.run(deadline=Deadline(0.0)))

    def test_timeout_seconds_shorthand(self, native):
        prepared = native.prepare(get_query("Q2").text)
        with pytest.raises(QueryTimeout):
            list(prepared.run(timeout=0.0))

    def test_timeout_interrupts_before_full_production(self, graph):
        engine = SparqlEngine.from_graph(graph, NATIVE_OPTIMIZED)
        total = len(engine.store)
        counts = probe_counter(engine.store, "triples_ids")
        try:
            with pytest.raises(QueryTimeout):
                list(engine.stream("SELECT ?s WHERE { ?s ?p ?o }",
                                   deadline=Deadline(0.0)))
        finally:
            counts["restore"]()
        assert counts["produced"] < total

    def test_timeout_interrupts_term_space(self, memory):
        prepared = memory.prepare(get_query("Q2").text)
        with pytest.raises(QueryTimeout):
            list(prepared.run(timeout=0.0))

    def test_ask_timeout_raises_at_run(self, native):
        # ASK evaluates eagerly inside run(), so the timeout surfaces there.
        # (Q12c would legitimately finish instantly — its unknown constant
        # short-circuits before any deadline check — so use an ASK with work.)
        prepared = native.prepare("ASK { ?d dc:creator ?p . ?p foaf:name ?name }")
        with pytest.raises(QueryTimeout):
            prepared.run(timeout=0.0)

    def test_generous_deadline_completes(self, native):
        prepared = native.prepare(get_query("Q1").text)
        result = prepared.run(timeout=60.0).all()
        assert len(result) == 1

    def test_tighter_of_deadline_and_timeout_wins(self, native):
        prepared = native.prepare(get_query("Q2").text)
        with pytest.raises(QueryTimeout):
            list(prepared.run(deadline=Deadline(60.0), timeout=0.0))
        with pytest.raises(QueryTimeout):
            list(prepared.run(deadline=Deadline(0.0), timeout=60.0))
        with pytest.raises(QueryTimeout):
            list(prepared.run(deadline=Deadline(None), timeout=0.0))
