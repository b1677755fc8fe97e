"""Ablation — the optimization techniques the paper designs its queries for.

Section V of the paper singles out two optimization families and marks which
queries are amenable to them (Table II rows 4-5): triple-pattern reordering
by selectivity and filter pushing.  The ablation compares the baseline and
optimized configurations of the index-backed engine on the queries that the
paper flags, confirming that the flagged queries actually benefit.
"""

import time

import pytest

from repro.queries import get_query
from repro.sparql import NATIVE_BASELINE, NATIVE_OPTIMIZED, SparqlEngine

#: Queries Table II marks as amenable to filter pushing / reordering.
OPTIMIZABLE = ("Q3a", "Q3b", "Q3c", "Q5a", "Q8")
#: Queries where the optimizations must at least not hurt correctness.
NEUTRAL = ("Q1", "Q9", "Q10", "Q11", "Q12c")


@pytest.fixture(scope="module")
def engines(medium_graph):
    return {
        "baseline": SparqlEngine.from_graph(medium_graph, NATIVE_BASELINE),
        "optimized": SparqlEngine.from_graph(medium_graph, NATIVE_OPTIMIZED),
    }


def _timed(engine, query_id):
    start = time.perf_counter()
    result = engine.query(get_query(query_id).text)
    return time.perf_counter() - start, result


def _best_of(engine, query_id, runs=5):
    """Minimum elapsed seconds over ``runs`` executions (noise-robust)."""
    return min(_timed(engine, query_id)[0] for _ in range(runs))


def test_ablation_optimizer_speedup(benchmark, engines):
    """Reordering + filter pushing speed up the Table II flagged queries."""
    benchmark.pedantic(
        lambda: engines["optimized"].query(get_query("Q5a").text), rounds=1, iterations=1
    )

    print("\nAblation — native engine, optimizer off vs on (elapsed seconds)")
    speedups = {}
    for query_id in OPTIMIZABLE:
        baseline_time, baseline_result = _timed(engines["baseline"], query_id)
        optimized_time, optimized_result = _timed(engines["optimized"], query_id)
        speedups[query_id] = baseline_time / max(optimized_time, 1e-6)
        print(f"  {query_id:>4}: off={baseline_time:.3f}s on={optimized_time:.3f}s "
              f"speedup={speedups[query_id]:.1f}x")
        # Optimization must never change the result.
        if baseline_result.form == "SELECT":
            assert baseline_result.as_multiset() == optimized_result.as_multiset()
        else:
            assert bool(baseline_result) == bool(optimized_result)

    # At least one of the flagged queries shows a clear win, and on average
    # the optimizations pay off.
    assert max(speedups.values()) > 1.5
    assert sum(speedups.values()) / len(speedups) > 1.0


def test_ablation_equality_filters_become_access_paths(benchmark, engines, medium_graph):
    """The two equality shapes the paper tests for (Table II "filter pushing").

    Q3a: ``FILTER (?property = swrc:pages)`` becomes a bound pattern, so the
    optimized engine probes one predicate instead of testing every property
    of every article.  Q5a: ``FILTER (?name = ?name2)`` becomes a keyed
    join, so the implicit join costs about what the explicit one (Q5b)
    does, instead of a cross product.
    """
    benchmark.pedantic(
        lambda: engines["optimized"].query(get_query("Q3a").text), rounds=1, iterations=1
    )
    q3a_off = _best_of(engines["baseline"], "Q3a", runs=3)
    q3a_on = _best_of(engines["optimized"], "Q3a")
    q5a = _best_of(engines["optimized"], "Q5a")
    q5b = _best_of(engines["optimized"], "Q5b")
    print("\nAblation — equality filters as access paths (elapsed seconds)")
    print(f"   Q3a: off={q3a_off:.4f}s on={q3a_on:.4f}s speedup={q3a_off / q3a_on:.1f}x")
    print(f"   Q5a: {q5a:.4f}s vs Q5b: {q5b:.4f}s ratio={q5a / q5b:.2f}x")
    # Same policy as the planner-family bench: at smoke scale the timings
    # are fractions of a millisecond and the ratios are scheduler noise.
    if len(medium_graph) >= 5_000:
        assert q3a_off / q3a_on >= 5
        assert q5a <= 3 * q5b


def test_ablation_is_correctness_preserving_on_neutral_queries(benchmark, engines):
    """The optimizer changes nothing for queries it cannot improve."""
    benchmark.pedantic(
        lambda: engines["optimized"].query(get_query("Q10").text), rounds=1, iterations=1
    )
    for query_id in NEUTRAL:
        _time_off, baseline_result = _timed(engines["baseline"], query_id)
        _time_on, optimized_result = _timed(engines["optimized"], query_id)
        if baseline_result.form == "SELECT":
            assert baseline_result.as_multiset() == optimized_result.as_multiset()
        else:
            assert bool(baseline_result) == bool(optimized_result)


def test_ablation_planner_families(benchmark, medium_graph):
    """The cost-based planner beats the greedy reorder on the Q4/Q8 mix.

    Third optimizer family (ISSUE 2): ``planner=cost`` plans in id space with
    live statistics — cardinality propagation, star grouping, per-step
    probe/scan choice, and bind joins for small-left joins (Q8's UNION
    anchored to the single Paul Erdoes solution, Q12b's ASK variant).  The
    ablation compares all three families on the join-heavy mix and asserts
    the cost family wins wall-clock overall without changing any result.
    """
    from repro.sparql import EngineConfig, SparqlEngine as Engine

    mix = ("Q4", "Q5a", "Q8", "Q12b")
    engines = {}
    for family in ("none", "greedy", "cost"):
        config = EngineConfig(
            name=f"native-{family}", store_type="indexed", planner=family,
        )
        engines[family] = Engine.from_graph(medium_graph, config)

    benchmark.pedantic(
        lambda: engines["cost"].query(get_query("Q8").text), rounds=1, iterations=1
    )

    print("\nAblation — planner families on the Q4/Q8-style mix (elapsed seconds)")
    totals = {family: 0.0 for family in engines}
    for query_id in mix:
        times = {}
        results = {}
        for family, engine in engines.items():
            # Warm a first run so allocator effects don't dominate, then take
            # the best of two timed runs (scheduler-noise robustness).
            if query_id == mix[0]:
                engine.query(get_query(query_id).text)
            first, results[family] = _timed(engine, query_id)
            second, _result = _timed(engine, query_id)
            times[family] = min(first, second)
            totals[family] += times[family]
        print(
            f"  {query_id:>5}: none={times['none']:.3f}s "
            f"greedy={times['greedy']:.3f}s cost={times['cost']:.3f}s"
        )
        reference = results["none"]
        for family in ("greedy", "cost"):
            if reference.form == "SELECT":
                assert results[family].as_multiset() == reference.as_multiset()
            else:
                assert bool(results[family]) == bool(reference)
    print(
        f"  mix: none={totals['none']:.3f}s greedy={totals['greedy']:.3f}s "
        f"cost={totals['cost']:.3f}s "
        f"(cost vs greedy speedup={totals['greedy'] / max(totals['cost'], 1e-9):.2f}x)"
    )
    # Acceptance bar: the cost-based plans beat the greedy reorder overall.
    # Only asserted at the default (or larger) document size — at smoke scale
    # the mix totals are a few dozen milliseconds and scheduler noise on a
    # shared CI runner can flip a comparison that holds comfortably at 5k
    if len(medium_graph) >= 5_000:
        assert totals["cost"] < totals["greedy"]


def test_ablation_pattern_reuse(benchmark, medium_graph):
    """Graph-pattern result reuse (Table II row 5) pays off on Q4/Q8-style
    queries for the scan-based engine, without changing results."""
    from repro.sparql import EngineConfig

    no_reuse = EngineConfig(
        name="inmemory-no-reuse", store_type="memory",
        reuse_pattern_results=False,
    )
    with_reuse = EngineConfig(
        name="inmemory-reuse", store_type="memory",
        reuse_pattern_results=True,
    )
    engine_plain = SparqlEngine.from_graph(medium_graph, no_reuse)
    engine_reuse = SparqlEngine.from_graph(medium_graph, with_reuse)

    benchmark.pedantic(
        lambda: engine_reuse.query(get_query("Q4").text), rounds=1, iterations=1
    )

    print("\nAblation — graph-pattern reuse on the scan-based engine")
    for query_id in ("Q4", "Q8", "Q12b"):
        plain_time, plain_result = _timed(engine_plain, query_id)
        reuse_time, reuse_result = _timed(engine_reuse, query_id)
        print(f"  {query_id:>5}: no-reuse={plain_time:.3f}s reuse={reuse_time:.3f}s")
        if plain_result.form == "SELECT":
            assert plain_result.as_multiset() == reuse_result.as_multiset()
        else:
            assert bool(plain_result) == bool(reuse_result)
