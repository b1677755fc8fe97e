"""Figures 6-8 — per-query execution time for every query, engine, and size.

The appendix of the paper plots one panel per (query, engine) pair across the
six document sizes.  The bench prints the full matrix from the shared
experiment report and spot-checks the global relationships that hold across
the published panels.
"""


from repro.bench import reporting
from repro.queries import ALL_QUERIES, get_query

from conftest import BENCH_DOCUMENT_SIZES, BENCH_RUNS, best_elapsed


def test_figures6_to_8_per_query_matrix(benchmark, experiment_report, native_engine):
    """Print every per-query series and validate cross-engine relationships."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q11").text), rounds=1, iterations=1
    )

    print("\nFigures 6-8 — elapsed seconds per query / engine / document size")
    for query in ALL_QUERIES:
        print(f"\n[{query.identifier}] {query.description}")
        print(reporting.per_query_table(experiment_report, query.identifier))

    largest = BENCH_DOCUMENT_SIZES[-1]

    # Every (engine, query, size) combination has a measurement.
    engines = experiment_report.engine_names()
    for engine in engines:
        for query in ALL_QUERIES:
            for size in BENCH_DOCUMENT_SIZES:
                assert experiment_report.measurements_for(
                    engine=engine, size=size, query_id=query.identifier
                ), (engine, query.identifier, size)

    # Index-friendly lookups (Q1, Q10) are faster on the native engine than
    # on the scan-based engine for the largest document.  (Q12c is not: both
    # families answer its unknown constant from the dictionary alone.)
    for query_id in ("Q1", "Q10"):
        native = best_elapsed(experiment_report, "native-optimized", query_id, largest)
        memory = best_elapsed(experiment_report, "inmemory-baseline", query_id, largest)
        assert native < memory, query_id

    # Within one engine, the hard join query Q4 costs more than the point
    # lookup Q1 on every size (the consistent ordering across the panels).
    for engine in engines:
        for size in BENCH_DOCUMENT_SIZES:
            q4 = best_elapsed(experiment_report, engine, "Q4", size)
            q1 = best_elapsed(experiment_report, engine, "Q1", size)
            assert q4 > q1


def test_success_and_result_size_summary(benchmark, experiment_report, native_engine):
    """Companion summary: overall success counts per engine."""
    benchmark.pedantic(
        lambda: native_engine.query(get_query("Q3b").text), rounds=1, iterations=1
    )
    print("\nOverall success counts per engine")
    for engine in experiment_report.engine_names():
        rate = experiment_report.success_rate(engine)
        print(f"  {engine:>20}: {rate['counts']}")
        assert rate["total"] == len(ALL_QUERIES) * len(BENCH_DOCUMENT_SIZES) * BENCH_RUNS
