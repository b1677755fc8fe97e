"""Command-line entry points: generate, build, query, serve, loadtest, bench.

Console scripts are installed via ``pyproject.toml``:

``repro``
    The dispatching entry point:
    ``repro {generate|build|query|serve|loadtest|bench|cache} ...``.
    ``repro query --explain`` prints the physical query plan with estimated
    and actual per-step cardinalities; ``repro query`` also accepts ``.sp2b``
    snapshot paths, which skip parsing and store building entirely.  Queries
    run through the prepared/streaming engine API: ``--repeat N`` amortizes
    parse+plan across executions, ``--limit N`` stops evaluation after N
    rows, and ``--format {table,json,xml,csv,tsv}`` selects the rendering
    (json/xml/csv/tsv are the W3C SPARQL-results serializations).  Query
    failures print the machine-readable error payload (the same JSON shape
    the server returns) to stderr.
    ``repro serve`` exposes a document or snapshot as a W3C SPARQL Protocol
    endpoint (``GET/POST /sparql``) on a thread worker pool; ``repro
    loadtest`` replays a weighted closed-loop query mix against a running
    endpoint (``--url``) or in-process against a document, reporting
    sustained QpS and p50/p95/p99 latency.  ``repro serve --metrics``
    enables the telemetry registry and ``GET /metrics`` Prometheus
    exposition (``--access-log``/``--slow-query-ms`` add JSON request and
    slow-query logs); ``repro loadtest --scrape-metrics`` diffs the
    server's metrics across the run.  ``repro query --profile`` prints the
    traced plan with per-stage and per-step timings.
    ``repro build`` fills the dataset cache; ``repro cache {list,clear,key}``
    administers it (``key`` prints the composite key CI uses for
    ``actions/cache``).
``sp2bench-generate``
    Generate a DBLP-like document and write it as N-Triples
    (``--save-snapshot`` additionally writes the built ``.sp2b`` store).
``sp2bench-query``
    Run one benchmark query (or an ad-hoc query file) against a document.
``sp2bench-bench``
    Run the full benchmark harness and print the paper's result tables;
    documents resolve through the dataset cache unless ``--no-cache``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .bench.harness import DEFAULT_DOCUMENT_SIZES, ExperimentConfig, BenchmarkHarness
from .bench import reporting
from .bench.workload import WorkloadMix, run_engine_workload, run_http_workload
from .cache import DatasetCache, combined_cache_key, dataset_key, default_cache_dir
from .generator.config import GeneratorConfig
from .generator.generator import DblpGenerator
from .queries.catalog import ALL_QUERIES, get_query
from .rdf.ntriples import load_into, serialize_triple
from .sparql.engine import (
    ENGINE_PRESETS,
    NATIVE_COST,
    NATIVE_OPTIMIZED,
    SparqlEngine,
)
from .sparql.errors import SparqlError, error_payload
from .sparql.serializers import FORMATS as RESULT_FORMATS
from .store import IndexedStore, load_snapshot

#: Engine configurations selectable from the command line: the paper's four
#: presets plus the cost-based planner profile.
CLI_ENGINE_CONFIGS = ENGINE_PRESETS + (NATIVE_COST,)

#: File suffix identifying store snapshots on the command line.
SNAPSHOT_SUFFIX = ".sp2b"


def generate_main(argv=None):
    """Entry point of ``sp2bench-generate``."""
    parser = argparse.ArgumentParser(description="Generate SP2Bench DBLP-like RDF data.")
    parser.add_argument("output", help="output N-Triples file path")
    parser.add_argument("--triples", type=int, default=10_000,
                        help="triple count limit (default: 10000)")
    parser.add_argument("--end-year", type=int, default=None,
                        help="simulate up to this year instead of a triple limit")
    parser.add_argument("--seed", type=int, default=GeneratorConfig.seed,
                        help="random seed (default: %(default)s)")
    parser.add_argument("--save-snapshot", action="store_true",
                        help="also write a <output stem>.sp2b store snapshot "
                             "next to the document so later `repro query` "
                             "runs skip parsing and loading")
    args = parser.parse_args(argv)

    config = GeneratorConfig(
        triple_limit=None if args.end_year else args.triples,
        end_year=args.end_year,
        seed=args.seed,
    )
    generator = DblpGenerator(config)
    start = time.perf_counter()
    if args.save_snapshot:
        # Tee one generator pass into both the document and a built store.
        store = IndexedStore()
        count = 0
        with open(args.output, "w", encoding="utf-8") as handle:
            for triple in generator.triples():
                handle.write(serialize_triple(triple))
                handle.write("\n")
                store.add(triple)
                count += 1
    else:
        count = generator.write(args.output)
    elapsed = time.perf_counter() - start
    stats = generator.statistics.as_dict()
    print(f"wrote {count} triples to {args.output} in {elapsed:.2f}s "
          f"(data up to {stats['data_up_to_year']})")
    if args.save_snapshot:
        snapshot_path = _snapshot_path_for(args.output)
        store.save(snapshot_path, metadata={"statistics": stats})
        print(f"saved store snapshot to {snapshot_path}")
    return 0


def _snapshot_path_for(output):
    return str(Path(output).with_suffix(SNAPSHOT_SUFFIX))


def build_main(argv=None):
    """Entry point of ``repro build``: fill the dataset cache."""
    parser = argparse.ArgumentParser(
        description="Build dataset snapshots into the cache (generate once, "
                    "load everywhere)."
    )
    parser.add_argument("--triples", type=int, nargs="+",
                        default=list(DEFAULT_DOCUMENT_SIZES),
                        help="document sizes to build (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=GeneratorConfig.seed,
                        help="generator seed (default: %(default)s)")
    parser.add_argument("--store", choices=("indexed", "memory"), default="indexed",
                        help="store family to snapshot (default: indexed)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: $SP2B_CACHE_DIR or "
                             "~/.cache/sp2bench)")
    parser.add_argument("--force", action="store_true",
                        help="rebuild entries even when already cached")
    args = parser.parse_args(argv)

    cache = DatasetCache(args.cache_dir)
    for size in args.triples:
        config = GeneratorConfig(triple_limit=size, seed=args.seed)
        if args.force:
            cache.remove(config, args.store)
        resolved = cache.resolve(config, args.store)
        verb = "cached" if resolved.hit else "built "
        print(f"{verb} {size:>9} triples in {resolved.elapsed:6.2f}s -> {resolved.path}")
    return 0


def cache_main(argv=None):
    """Entry point of ``repro cache``: list/clear/key the dataset cache."""
    parser = argparse.ArgumentParser(description="Administer the dataset cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list cached dataset snapshots")
    clear_parser = sub.add_parser("clear", help="delete all cached snapshots")
    key_parser = sub.add_parser(
        "key", help="print the composite cache key for a set of document sizes "
                    "(used to key the CI actions/cache step)"
    )
    prune_parser = sub.add_parser(
        "prune", help="delete snapshots not matching the given sizes (CI runs "
                      "this so restore-keys fallbacks cannot grow the saved "
                      "cache without bound)"
    )
    for sub_parser in (list_parser, clear_parser, key_parser, prune_parser):
        sub_parser.add_argument("--cache-dir", default=None,
                                help="cache directory (default: $SP2B_CACHE_DIR "
                                     "or ~/.cache/sp2bench)")
    for sub_parser in (key_parser, prune_parser):
        sub_parser.add_argument("--sizes",
                                default=",".join(map(str, DEFAULT_DOCUMENT_SIZES)),
                                help="comma-separated document sizes "
                                     "(default: %(default)s)")
        sub_parser.add_argument("--seed", type=int, default=GeneratorConfig.seed,
                                help="generator seed (default: %(default)s)")
        sub_parser.add_argument("--store", choices=("indexed", "memory"),
                                default="indexed",
                                help="store family (default: indexed)")
    args = parser.parse_args(argv)

    cache = DatasetCache(args.cache_dir)
    if args.command == "list":
        entries = cache.entries()
        if not entries:
            print(f"cache {cache.root} is empty")
            return 0
        total = 0
        for entry in entries:
            triples = entry.metadata.get("triples", "?")
            total += entry.size_bytes
            print(f"  {entry.key:<40} {triples:>9} triples "
                  f"{entry.size_bytes / 1e6:8.2f} MB")
        print(f"{len(entries)} snapshot(s), {total / 1e6:.2f} MB in {cache.root}")
        return 0
    if args.command == "clear":
        removed = cache.clear()
        print(f"removed {removed} snapshot(s) from {cache.root}")
        return 0
    sizes = [int(size) for size in str(args.sizes).replace(",", " ").split()]
    configs = [GeneratorConfig(triple_limit=size, seed=args.seed) for size in sizes]
    if args.command == "prune":
        keep = [dataset_key(config, args.store) for config in configs]
        removed = cache.prune(keep)
        print(f"pruned {removed} snapshot(s) from {cache.root} "
              f"(kept up to {len(keep)})")
        return 0
    # args.command == "key"
    print(combined_cache_key(configs, args.store))
    return 0


#: Rows the table format prints when no ``--limit`` bounds the query.
TABLE_PREVIEW_ROWS = 20


def _build_engine(document, engine_name):
    """Load a document (N-Triples or ``.sp2b`` snapshot) into an engine."""
    config = next(c for c in CLI_ENGINE_CONFIGS if c.name == engine_name)
    if document.endswith(SNAPSHOT_SUFFIX):
        # The fast path: rebuild the store from its snapshot — no parsing,
        # no per-triple loading.
        return SparqlEngine.from_store(load_snapshot(document), config)
    engine = SparqlEngine(config)
    load_into(engine.store, document)
    return engine


def _print_error_payload(error):
    """Print the machine-readable error payload (shared with the server)."""
    json.dump(error_payload(error), sys.stderr)
    sys.stderr.write("\n")


def query_main(argv=None):
    """Entry point of ``sp2bench-query``.

    Queries execute through the prepared/streaming path: the query is
    prepared once, ``--repeat`` re-runs the prepared plan (reporting per-run
    and amortized times), ``--limit`` is pushed into the cursor so bounded
    queries stop evaluating early, and ``--format`` selects the table
    rendering or a W3C SPARQL-results serialization (json/xml/csv/tsv)
    written to stdout (timings then go to stderr, keeping stdout a valid
    document).  Failures (parse errors, timeouts) print the structured
    error payload — the same JSON shape the SPARQL Protocol server returns
    — to stderr, never a traceback.
    """
    parser = argparse.ArgumentParser(description="Run SP2Bench queries on an RDF document.")
    parser.add_argument("document",
                        help="N-Triples file (or .sp2b store snapshot) to query")
    parser.add_argument("--query", default="Q1",
                        help="benchmark query id (Q1..Q12c) or path to a SPARQL file")
    parser.add_argument("--engine", default=NATIVE_OPTIMIZED.name,
                        choices=[config.name for config in CLI_ENGINE_CONFIGS],
                        help="engine preset to use")
    parser.add_argument("--format", choices=("table",) + RESULT_FORMATS,
                        default="table",
                        help="output format: human-readable table or a W3C "
                             "SPARQL-results serialization (default: table)")
    parser.add_argument("--limit", type=int, default=None,
                        help="LIMIT pushed into evaluation: the query stops "
                             "producing after N rows (default: unbounded; the "
                             f"table format then previews {TABLE_PREVIEW_ROWS} rows)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="execute the prepared query N times and report "
                             "per-run and amortized times (default: 1)")
    parser.add_argument("--explain", action="store_true",
                        help="print the physical query plan with estimated "
                             "and actual per-step cardinalities and their "
                             "q-error (qerr=max(est/actual, actual/est))")
    parser.add_argument("--profile", action="store_true",
                        help="execute once under per-stage tracing and print "
                             "the timed plan: parse/plan/execute stage "
                             "timings plus per-step time= self-times "
                             "alongside the EXPLAIN cardinalities")
    args = parser.parse_args(argv)

    # Resolve the query before loading the document, so a mistyped id fails
    # in milliseconds with the list of known ids.
    label = args.query
    try:
        query_text = get_query(args.query).text
    except KeyError as unknown:
        try:
            with open(args.query, "r", encoding="utf-8") as handle:
                query_text = handle.read()
        except (OSError, UnicodeDecodeError):
            parser.error(f"{unknown.args[0]} (and no readable query file "
                         f"of that name)")

    engine = _build_engine(args.document, args.engine)

    try:
        if args.explain or args.profile:
            # Both flags share the traced-explain path: the report carries
            # per-step est/actual cardinalities, per-step time= self-times,
            # and the parse/plan/execute stage line.
            report = engine.explain(query_text)
            print(f"{label}:")
            print(report.render())
            return 0

        repeat = max(args.repeat, 1)
        prepare_start = time.perf_counter()
        prepared = engine.prepare(query_text)
        prepare_time = time.perf_counter() - prepare_start

        run_times = []
        for index in range(repeat):
            final_run = index == repeat - 1
            start = time.perf_counter()
            cursor = prepared.run(limit=args.limit)
            if not final_run:
                # Warm repetition: drain for timing, print nothing.
                for _binding in cursor:
                    pass
                run_times.append(time.perf_counter() - start)
                continue
            if args.format == "table":
                _print_table(label, cursor, args.limit, start)
            else:
                cursor.write(sys.stdout, args.format)
                if args.format in ("json", "xml"):
                    sys.stdout.write("\n")
            run_times.append(time.perf_counter() - start)
    except SparqlError as error:
        # Parse errors, timeouts, evaluation failures: the structured
        # payload (shared with the server's HTTP responses), not a
        # traceback.
        _print_error_payload(error)
        return 1

    timing_out = sys.stdout if args.format == "table" else sys.stderr
    if repeat > 1:
        amortized = (prepare_time + sum(run_times)) / repeat
        print(f"{label}: prepare {prepare_time * 1e3:.2f}ms; "
              f"{repeat} runs: first {run_times[0] * 1e3:.2f}ms, "
              f"min {min(run_times) * 1e3:.2f}ms, "
              f"mean {sum(run_times) / repeat * 1e3:.2f}ms; "
              f"amortized {amortized * 1e3:.2f}ms/run",
              file=timing_out)
    elif args.format != "table":
        print(f"{label}: prepare {prepare_time * 1e3:.2f}ms, "
              f"run {run_times[0] * 1e3:.2f}ms", file=timing_out)
    return 0


def _print_table(label, cursor, limit, start):
    """Render one cursor in the human-readable table format.

    The table is a summary view, so the cursor is drained first (the
    count-and-time header line comes before the rows); the streaming output
    paths are the W3C serialization formats.
    """
    if cursor.form == "ASK":
        elapsed = time.perf_counter() - start
        print(f"{label}: {'yes' if cursor else 'no'} ({elapsed:.3f}s)")
        return
    preview = TABLE_PREVIEW_ROWS if limit is None else None
    shown = []
    count = 0
    for row in cursor.rows():
        count += 1
        if preview is None or len(shown) < preview:
            shown.append(row)
    elapsed = time.perf_counter() - start
    print(f"{label}: {count} results ({elapsed:.3f}s)")
    for row in shown:
        print("  " + "\t".join("-" if value is None else value.n3() for value in row))


def serve_main(argv=None):
    """Entry point of ``repro serve``: the SPARQL Protocol endpoint.

    Loads a document (or, much faster, a ``.sp2b`` snapshot) once and
    serves ``GET/POST /sparql`` plus ``POST /update`` on a thread worker
    pool until interrupted.  By default the store is wrapped in an MVCC
    facade so updates commit as atomically-published snapshots while
    readers keep their pinned generation; ``--read-only`` rejects updates
    with 403 instead.  ``/health`` reports readiness, uptime, and worker
    occupancy.  ``--metrics`` enables the in-process registry and exposes
    it at ``GET /metrics``; ``--access-log`` and ``--slow-query-ms`` add
    structured JSON request/slow-query logs.
    """
    parser = argparse.ArgumentParser(
        description="Serve a document over the W3C SPARQL Protocol."
    )
    parser.add_argument("document",
                        help="N-Triples file (or .sp2b store snapshot) to serve")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8008,
                        help="port to bind; 0 picks an ephemeral port "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker threads executing queries (default: 4)")
    parser.add_argument("--engine", default=NATIVE_COST.name,
                        choices=[config.name for config in CLI_ENGINE_CONFIGS],
                        help="engine preset to serve with (default: native-cost)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="default per-request deadline in seconds; "
                             "requests may lower it with ?timeout= "
                             "(default: 30)")
    parser.add_argument("--max-timeout", type=float, default=None,
                        help="cap on client-requested timeouts "
                             "(default: the --timeout value)")
    parser.add_argument("--read-only", action="store_true",
                        help="reject POST /update with 403 instead of "
                             "serving writes")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logging")
    parser.add_argument("--metrics", action="store_true",
                        help="enable the metrics registry and expose "
                             "Prometheus text exposition at GET /metrics")
    parser.add_argument("--access-log", default=None, metavar="PATH",
                        help="write one JSON line per request (query hash, "
                             "status, stage timings, budget consumed) to "
                             "PATH; '-' means stderr")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log queries slower than MS milliseconds with "
                             "their full text, EXPLAIN plan, and stage "
                             "breakdown (to the access log, else stderr)")
    args = parser.parse_args(argv)

    from .server import SparqlServer
    from .store import MvccStore

    start = time.perf_counter()
    engine = _build_engine(args.document, args.engine)
    if not args.read_only:
        # Writable serving: snapshot-isolate the store so updates publish
        # atomically under concurrent readers.
        engine.store = MvccStore(engine.store)
    elapsed = time.perf_counter() - start
    telemetry = None
    if args.metrics or args.access_log or args.slow_query_ms is not None:
        from .obs import ServerTelemetry, enable_metrics
        from .obs.logs import open_log_stream

        if args.metrics:
            enable_metrics()
        telemetry = ServerTelemetry(
            access_logger=open_log_stream(args.access_log)
            if args.access_log else None,
            slow_query_seconds=args.slow_query_ms / 1e3
            if args.slow_query_ms is not None else None,
            metrics_endpoint=args.metrics,
        )
    server = SparqlServer(
        engine,
        host=args.host,
        port=args.port,
        workers=args.workers,
        default_timeout=args.timeout,
        max_timeout=args.max_timeout,
        verbose=not args.quiet,
        read_only=args.read_only,
        telemetry=telemetry,
    )
    print(f"loaded {len(engine.store)} triples in {elapsed:.2f}s "
          f"({engine.config.name} engine)")
    mode = "read-only" if args.read_only else "read/write"
    print(f"serving SPARQL Protocol ({mode}) at {server.url} "
          f"({args.workers} workers, {args.timeout:g}s default timeout); "
          f"updates at {server.update_url}; health at {server.health_url}",
          flush=True)
    if args.metrics:
        print(f"metrics at {server.metrics_url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if telemetry is not None:
            telemetry.close()
    return 0


def _parse_mix(spec, update_fraction):
    """Build the workload mix from ``--mix Q1=4,Q3a=2`` and
    ``--update-fraction``; a bare id weighs 1.  Raises ``KeyError`` or
    ``ValueError`` naming the bad value."""
    weights = {}
    for part in (spec or "").replace(",", " ").split():
        identifier, _equals, weight = part.partition("=")
        try:
            weights[identifier] = float(weight) if weight else 1.0
        except ValueError:
            raise ValueError(f"mix weight of {identifier} must be a positive "
                             f"number, not {weight!r}") from None
    return WorkloadMix.from_catalog(weights, update_fraction=update_fraction)


def loadtest_main(argv=None):
    """Entry point of ``repro loadtest``: closed-loop multi-client load.

    Replays a weighted mix of catalog queries from N concurrent clients —
    over HTTP against a running endpoint (``--url``), or in-process against
    a document/snapshot — and reports sustained QpS with p50/p95/p99
    latency per query and overall.
    """
    parser = argparse.ArgumentParser(
        description="Run a closed-loop multi-client SPARQL workload."
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url",
                        help="SPARQL Protocol endpoint to load "
                             "(e.g. http://127.0.0.1:8008/sparql)")
    target.add_argument("--document",
                        help="N-Triples file or .sp2b snapshot to load-test "
                             "in-process (no HTTP)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop clients (default: 4)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds each client issues queries (default: 5)")
    parser.add_argument("--mix", default=None,
                        help="weighted mix, e.g. 'Q1=4,Q3a=2,Q2' (a bare id "
                             "weighs 1; default: the log-study mix)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-query deadline in seconds")
    parser.add_argument("--engine", default=NATIVE_COST.name,
                        choices=[config.name for config in CLI_ENGINE_CONFIGS],
                        help="engine preset for in-process runs")
    parser.add_argument("--seed", type=int, default=97,
                        help="base seed of the per-client query streams")
    parser.add_argument("--update-fraction", type=float, default=0.0,
                        help="fraction of operations that are SPARQL updates "
                             "(canary-pair writes, plus probes that detect "
                             "torn reads; default: 0 = read-only)")
    parser.add_argument("--scrape-metrics", action="store_true",
                        help="scrape the server's /metrics before and after "
                             "the run (--url runs only; requires the server "
                             "to run with --metrics) and print a server-side "
                             "telemetry report alongside the client view")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of a table")
    parser.add_argument("--fail-on-error", action="store_true",
                        help="exit non-zero when any request is classified "
                             "as an error or a torn read")
    args = parser.parse_args(argv)

    if args.clients < 1:
        parser.error(f"--clients must be at least 1, not {args.clients}")
    try:
        mix = _parse_mix(args.mix, args.update_fraction)
    except (KeyError, ValueError) as error:
        parser.error(error.args[0])
    scrape_before = None
    if args.scrape_metrics:
        if not args.url:
            parser.error("--scrape-metrics requires --url (it reads the "
                         "server's /metrics endpoint)")
        from .obs import scrape as scrape_module

        metrics_url = scrape_module.metrics_url_for(args.url)
        try:
            scrape_before = scrape_module.scrape(metrics_url)
        except OSError as error:
            # Best-effort: a server without --metrics (404) or an
            # unreachable one should not abort the load test itself.
            print(f"warning: could not scrape {metrics_url}: {error}",
                  file=sys.stderr)
    options = dict(mix=mix, clients=args.clients, duration=args.duration,
                   timeout=args.timeout, seed=args.seed)
    if args.url:
        report = run_http_workload(args.url, **options)
    else:
        engine = _build_engine(args.document, args.engine)
        report = run_engine_workload(engine, **options)

    if args.json:
        json.dump(report.as_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(reporting.workload_summary(report))
        print(reporting.workload_table(report))
    if scrape_before is not None:
        try:
            scrape_after = scrape_module.scrape(metrics_url)
        except OSError as error:
            print(f"warning: could not scrape {metrics_url}: {error}",
                  file=sys.stderr)
        else:
            print(scrape_module.format_server_report(scrape_before,
                                                     scrape_after))
    if args.fail_on_error and (report.errors or report.torn):
        print(f"loadtest failed: {report.errors} request(s) classified as "
              f"errors, {report.torn} torn read(s)", file=sys.stderr)
        return 1
    return 0


def bench_main(argv=None):
    """Entry point of ``sp2bench-bench``."""
    parser = argparse.ArgumentParser(description="Run the full SP2Bench benchmark harness.")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_DOCUMENT_SIZES),
                        help="document sizes in triples (default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-query timeout in seconds (default: 30)")
    parser.add_argument("--queries", nargs="+", default=None,
                        help="subset of query ids to run (default: all 17)")
    parser.add_argument("--runs", type=int, default=1, help="runs per query (default: 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="dataset cache directory (default: $SP2B_CACHE_DIR "
                             "or ~/.cache/sp2bench)")
    parser.add_argument("--no-cache", action="store_true",
                        help="regenerate documents instead of using the dataset cache")
    args = parser.parse_args(argv)

    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = str(args.cache_dir or default_cache_dir())
    queries = ALL_QUERIES if args.queries is None else tuple(
        get_query(identifier) for identifier in args.queries
    )
    config = ExperimentConfig(
        document_sizes=tuple(args.sizes),
        queries=queries,
        timeout=args.timeout,
        runs=args.runs,
        cache_dir=cache_dir,
    )
    report = BenchmarkHarness(config).run()
    print(reporting.full_report(report))
    return 0


def main(argv=None):
    """Dispatching entry point (``repro <command>`` / ``python -m repro.cli``)."""
    commands = {
        "generate": generate_main,
        "build": build_main,
        "query": query_main,
        "serve": serve_main,
        "loadtest": loadtest_main,
        "bench": bench_main,
        "cache": cache_main,
    }
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in commands:
        print("usage: repro {generate|build|query|serve|loadtest|bench|cache} "
              "[options]", file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
