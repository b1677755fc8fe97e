"""The engine matrix is what the five presets vary, and nothing else.

Every preset runs on the one executor over dictionary ids; a BGP's access
path follows from the store (scan/hash steps on a scan store, probe steps on
an indexed one, which the cost planner may run on batch kernels); every BGP
runs from the plan ``prepare()`` attached, and EXPLAIN executes that same
tree.
"""

from collections import Counter
from dataclasses import fields

import pytest

from repro.queries import ALL_QUERIES
from repro.queries.aggregates import AGGREGATE_QUERIES
from repro.sparql import (
    IN_MEMORY_BASELINE,
    IN_MEMORY_OPTIMIZED,
    NATIVE_BASELINE,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    EngineConfig,
    IdBinding,
    algebra,
    load_engines,
)
from repro.sparql.planner import KERNEL, PROBE, SCAN

PRESETS = (IN_MEMORY_BASELINE, IN_MEMORY_OPTIMIZED, NATIVE_BASELINE,
           NATIVE_OPTIMIZED, NATIVE_COST)
QUERIES = tuple(ALL_QUERIES) + tuple(AGGREGATE_QUERIES)


@pytest.fixture(scope="module")
def engines(generated_graph_small):
    return {engine.config.name: engine
            for engine in load_engines(generated_graph_small, PRESETS)}


def test_config_has_exactly_the_fields_the_presets_vary():
    assert [field.name for field in fields(EngineConfig)] == [
        "name", "store_type", "planner", "push_filters",
        "reuse_pattern_results",
    ]


#: preset -> (store family, the access path of its BGPs, and of those
#: the cost planner runs column-at-a-time)
MATRIX = {
    IN_MEMORY_BASELINE: ("memory", {SCAN}),
    IN_MEMORY_OPTIMIZED: ("memory", {SCAN}),
    NATIVE_BASELINE: ("indexed", {PROBE}),
    NATIVE_OPTIMIZED: ("indexed", {PROBE}),
    NATIVE_COST: ("indexed", {PROBE, KERNEL}),
}


@pytest.mark.parametrize("preset", PRESETS, ids=lambda config: config.name)
def test_access_path_follows_from_the_store(engines, preset):
    store_type, access = MATRIX[preset]
    engine = engines[preset.name]
    assert preset.store_type == store_type
    rows = list(engine.stream("SELECT ?s WHERE { ?s rdf:type foaf:Person }"))
    assert rows and all(isinstance(row, IdBinding) for row in rows)
    label = "[scan ]" if store_type == "memory" else "[probe]"
    for query in QUERIES:
        report = engine.explain(query.text)
        assert {bgp.plan.access for bgp in algebra.collect_bgps(report.tree)} <= access
        steps = [line for line in report.render().splitlines()
                 if line.lstrip()[:1].isdigit()]
        assert len(steps) == len(list(report.plan_steps()))
        assert all(label in line for line in steps), query.identifier


def _shape(tree):
    """Operators, BGP pattern order, access paths and filter placement of a tree."""
    shape = []
    for node in algebra.walk(tree):
        entry = [type(node).__name__]
        if isinstance(node, algebra.BGP) and node.patterns:
            plan = node.plan
            assert [step.pattern for step in plan.steps] == node.patterns
            entry += [plan.access] + [step.pattern.n3() for step in plan.steps]
            entry.append(sorted((position, str(expression))
                                for position, expression in plan.filters))
        elif isinstance(node, algebra.Join):
            entry.append(node.plan.strategy)
        shape.append(entry)
    return shape


@pytest.mark.parametrize("query", QUERIES, ids=lambda query: query.identifier)
@pytest.mark.parametrize("preset", PRESETS, ids=lambda config: config.name)
def test_explain_executes_the_tree_prepare_built(engines, preset, query):
    engine = engines[preset.name]
    prepared = engine.prepare(query.text)
    report = engine.explain(query.text)
    assert report.planner == preset.planner
    assert _shape(report.tree) == _shape(prepared.tree)
    cursor = prepared.run()
    if cursor.form == "ASK":
        assert report.result_count == int(bool(cursor))
        return
    rows = Counter(frozenset(row.items()) for row in cursor)
    assert report.result_count == sum(rows.values())
    assert rows == engine.query(query.text).as_multiset()
    # The observed run is the prepared plan: its last operator handed over
    # exactly the rows the cursor delivered.
    assert report.result.actual == report.result_count


#: Q9 and Q10 run their variable predicates over SPO/OSP; the shapes below
#: share a predicate variable, repeat a variable inside one pattern, or bind a
#: predicate variable before a pattern with a constant endpoint.
KERNEL_SHAPES = {query.identifier: query.text for query in QUERIES
                 if query.identifier in ("Q4", "Q9", "Q10")}
KERNEL_SHAPES.update({
    "shared-predicate": """SELECT * WHERE { ?a rdf:type bench:Journal . ?a ?p ?x .
        ?b ?p ?y . ?b rdf:type bench:Proceedings }""",
    "subject-is-object": "SELECT * WHERE { ?a dc:creator ?c . ?x ?p ?x }",
    "predicate-is-object": "SELECT * WHERE { ?x ?p ?p }",
    "bound-predicate-to-constant":
        "SELECT * WHERE { ?j rdf:type bench:Journal . ?j ?p ?o . ?s ?p bench:Journal }",
})


@pytest.mark.parametrize("identifier", KERNEL_SHAPES)
def test_kernels_need_the_cost_planner_sorted_runs(engines, reference, identifier):
    text = KERNEL_SHAPES[identifier]
    cost = engines[NATIVE_COST.name].explain(text)
    assert {bgp.plan.access for bgp in algebra.collect_bgps(cost.tree)} == {KERNEL}
    without = reference.tuple_path(engines[NATIVE_COST.name]).explain(text)
    assert {bgp.plan.access for bgp in algebra.collect_bgps(without.tree)} == {PROBE}
    assert without.planned_patterns() == cost.planned_patterns()
    assert "vectorized=no" in without.render()
    assert "vectorized=yes" not in without.render()
