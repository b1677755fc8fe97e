"""Figure 5 — the engine behaviours the paper singles out for discussion.

Top row (in-memory engines): Q5a vs Q5b (implicit vs explicit join), Q6/Q7
(negation), Q12a (ASK).  Bottom row (native engines): loading time, Q2
(growing bushy pattern), Q3a vs Q3c (filter selectivity and index choice),
Q10 (constant-time object lookup).

Each check asserts the qualitative relationship visible in the published
plots rather than absolute numbers, on the fastest of the experiment's runs.
"""


from repro.queries import get_query

from conftest import BENCH_DOCUMENT_SIZES, best_elapsed

#: How many times Q1 the negation query Q6 must cost.  The native engines
#: answer Q1 from three index probes, so 10x holds with room to spare; the
#: scan engines pay a pass over the document for Q1 too, and their Q6/Q1
#: ratio sits far lower (DESIGN.md, "The two engine models").
Q6_OVER_Q1 = {"native": 10.0, "inmemory": 5.0}


def test_figure5_q5a_vs_q5b(benchmark, experiment_report, native_engine):
    """Q5a (implicit FILTER join) is costlier than Q5b (explicit join)."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q5b").text), rounds=1, iterations=1
    )
    largest = BENCH_DOCUMENT_SIZES[-1]
    print("\nFigure 5 — Q5a vs Q5b elapsed seconds on the largest document")
    for engine in experiment_report.engine_names():
        q5a = best_elapsed(experiment_report, engine, "Q5a", largest)
        q5b = best_elapsed(experiment_report, engine, "Q5b", largest)
        print(f"  {engine:>20}: Q5a={q5a:.3f}s Q5b={q5b:.3f}s")
    # On the unoptimized engines the implicit join costs clearly more.
    for engine in ("inmemory-baseline", "native-baseline"):
        q5a = best_elapsed(experiment_report, engine, "Q5a", largest)
        q5b = best_elapsed(experiment_report, engine, "Q5b", largest)
        assert q5a > q5b


def test_figure5_negation_queries_are_the_hardest(benchmark, experiment_report, native_engine):
    """Q6 (CWN) dominates the cheap queries by orders of magnitude."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q7").text), rounds=1, iterations=1
    )
    largest = BENCH_DOCUMENT_SIZES[-1]
    print("\nFigure 5 — negation: Q6/Q1 on the largest document")
    for engine in experiment_report.engine_names():
        q6 = best_elapsed(experiment_report, engine, "Q6", largest)
        q1 = best_elapsed(experiment_report, engine, "Q1", largest)
        factor = Q6_OVER_Q1[engine.split("-")[0]]
        print(f"  {engine:>20}: Q6/Q1={q6 / q1:.1f} (needs > {factor:g})")
        assert q6 > factor * q1, engine

    # Q7 touches the sparse citation system, so it stays far below Q6.
    q6 = best_elapsed(experiment_report, "native-optimized", "Q6", largest)
    q7 = best_elapsed(experiment_report, "native-optimized", "Q7", largest)
    print(f"\nFigure 5 — negation: Q6={q6:.3f}s Q7={q7:.3f}s (native-optimized)")
    assert q7 < q6


def test_figure5_q12a_ask_is_cheap(benchmark, experiment_report, native_engine):
    """Q12a finds a witness early; it never approaches Q5a's cost."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q12a").text), rounds=1, iterations=1
    )
    largest = BENCH_DOCUMENT_SIZES[-1]
    for engine in experiment_report.engine_names():
        q12a = best_elapsed(experiment_report, engine, "Q12a", largest)
        q5a = best_elapsed(experiment_report, engine, "Q5a", largest)
        # Scan-based engines materialize the pattern either way, so allow a
        # noise margin there; the index-backed engine must clearly benefit
        # from breaking at the first witness.  Sub-tenth-second timings are
        # dominated by fixed per-query overheads rather than join work, so
        # the ratio is only meaningful above that floor (smoke runs at tiny
        # document sizes would otherwise compare noise against noise).
        assert q12a <= max(q5a, 0.1) * 1.3, engine
    native_q12a = best_elapsed(experiment_report, "native-optimized", "Q12a", largest)
    native_q5a = best_elapsed(experiment_report, "native-optimized", "Q5a", largest)
    # Same noise floor as above: at smoke scale both timings sit in the
    # fixed-overhead regime where a strict comparison is a coin flip.
    assert native_q12a < max(native_q5a, 0.1)


def test_figure5_native_engine_constant_time_queries(benchmark, experiment_report,
                                                     native_engine):
    """Q1/Q3c/Q10 stay flat across document sizes on the index-backed engine,
    while Q2 grows with the document (superlinear result construction)."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q10").text), rounds=1, iterations=1
    )
    smallest, largest = BENCH_DOCUMENT_SIZES[0], BENCH_DOCUMENT_SIZES[-1]
    size_ratio = largest / smallest

    print("\nFigure 5 — native engine scaling (elapsed seconds)")
    for query_id in ("Q1", "Q3c", "Q10", "Q12c", "Q2"):
        series = [
            (best_elapsed(experiment_report, "native-optimized", query_id, size), size)
            for size in BENCH_DOCUMENT_SIZES
        ]
        print(f"  {query_id:>4}: " + "  ".join(f"{t:.4f}s@{s}" for t, s in series))

    # Point lookups answered from the indexes stay (near-)constant: their
    # growth is clearly below the document-size ratio.  (Q10's result itself
    # still grows until Paul Erdoes retires in 1996, and Q3c scans the
    # article class, so — as for the paper's Sesame — those two are checked
    # only against the in-memory engine below.)
    for query_id in ("Q1", "Q12c"):
        small_time = best_elapsed(experiment_report, "native-optimized", query_id, smallest)
        large_time = best_elapsed(experiment_report, "native-optimized", query_id, largest)
        assert large_time < max(small_time, 0.002) * size_ratio * 0.6, query_id

    # The index-backed engine beats the scan-based engine on Q3c and Q10 for
    # the largest document (Figure 5 bottom row).
    for query_id in ("Q3c", "Q10"):
        native_time = best_elapsed(experiment_report, "native-optimized", query_id, largest)
        memory_time = best_elapsed(experiment_report, "inmemory-baseline", query_id, largest)
        assert native_time < memory_time, query_id

    # Q2's result grows with the document, so its cost must grow too.
    q2_small = best_elapsed(experiment_report, "native-optimized", "Q2", smallest)
    q2_large = best_elapsed(experiment_report, "native-optimized", "Q2", largest)
    assert q2_large > q2_small


def test_figure5_inmemory_engines_scale_with_document(benchmark, experiment_report,
                                                      native_engine):
    """On the scan-based engines even Q1/Q10 cost grows with document size.

    (Q12c no longer does: both families answer its unknown constant from the
    dictionary without touching a triple.)
    """
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q12c").text), rounds=1, iterations=1
    )
    smallest, largest = BENCH_DOCUMENT_SIZES[0], BENCH_DOCUMENT_SIZES[-1]
    grew = 0
    for query_id in ("Q1", "Q10", "Q3a"):
        small_time = best_elapsed(experiment_report, "inmemory-baseline", query_id, smallest)
        large_time = best_elapsed(experiment_report, "inmemory-baseline", query_id, largest)
        if large_time > small_time:
            grew += 1
    assert grew >= 2, "scan-based evaluation should grow with document size"
