"""The server-side telemetry bundle: metric handles + loggers + policy.

One :class:`ServerTelemetry` instance is attached to a
:class:`~repro.server.http.SparqlServer` and used by every worker thread.
It owns the request-level metric families (request counter/histogram,
stage-timing histogram, queue wait, in-flight gauge, slow-query counter),
the JSON access logger, and the slow-query threshold, and turns one
finished request — its :class:`~repro.obs.tracing.QueryTrace` plus outcome
fields — into metric observations and log records in a single call.

Constructing a telemetry bundle registers its families on the registry but
records nothing while the registry is disabled, so the default server
configuration (no ``--metrics``) pays only the disabled-registry branch.
"""

from __future__ import annotations

import sys

from . import get_registry
from .logs import JsonLinesLogger, access_record, slow_query_record

__all__ = ["ServerTelemetry"]


class ServerTelemetry:
    """Metric handles and logging policy shared by all server workers."""

    def __init__(self, registry=None, access_logger=None, slow_logger=None,
                 slow_query_seconds=None, metrics_endpoint=False):
        if slow_query_seconds is not None and not slow_query_seconds >= 0:
            # NaN would log nothing (``total >= nan`` is false) and a
            # negative threshold every request.
            raise ValueError("slow_query_seconds must be a non-negative number "
                             f"of seconds, not {slow_query_seconds!r}")
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        #: Whether the server exposes ``GET /metrics``.
        self.metrics_endpoint = metrics_endpoint
        self.access_logger = access_logger
        self.slow_query_seconds = slow_query_seconds
        if slow_logger is None and slow_query_seconds is not None:
            # Slow-query records ride the access log when one is configured,
            # else they go to stderr — a threshold silently logging nowhere
            # would be worse than noisy.
            slow_logger = access_logger or JsonLinesLogger(sys.stderr)
        self.slow_logger = slow_logger

        self.requests_total = registry.counter(
            "sp2b_http_requests_total",
            "HTTP requests served, by endpoint and response status.",
            labels=("endpoint", "status"),
        )
        self.request_seconds = registry.histogram(
            "sp2b_http_request_seconds",
            "Server-side request latency (queue wait included), by endpoint.",
            labels=("endpoint",),
        )
        self.stage_seconds = registry.histogram(
            "sp2b_query_stage_seconds",
            "Per-request stage wall time "
            "(queue/parse/plan/execute/serialize).",
            labels=("stage",),
        )
        self.queue_wait_seconds = registry.histogram(
            "sp2b_server_queue_wait_seconds",
            "Time a request waited in the worker-pool queue before a "
            "worker picked it up.",
        )
        self.inflight = registry.gauge(
            "sp2b_server_inflight_requests",
            "Requests currently being handled by worker threads.",
        )
        self.result_rows_total = registry.counter(
            "sp2b_http_result_rows_total",
            "SELECT result rows serialized into successful responses.",
        )
        self.slow_queries_total = registry.counter(
            "sp2b_slow_queries_total",
            "Queries whose total time exceeded the slow-query threshold.",
        )

    def observe_request(self, trace, *, endpoint, method, status,
                        query_text=None, format=None, form=None, rows=None,
                        budget_seconds=None, budget_consumed_seconds=None,
                        cache_hit=None, plan_renderer=None, extra=None):
        """Record one finished request: metrics + access log + slow log.

        ``plan_renderer`` is a zero-argument callable producing the rendered
        EXPLAIN text; it is only invoked when the request actually crosses
        the slow-query threshold, so the fast path never renders a plan.
        """
        total = trace.total()
        self.requests_total.labels(endpoint=endpoint,
                                   status=str(status)).inc()
        self.request_seconds.labels(endpoint=endpoint).observe(total)
        for stage, seconds in trace.stages.items():
            self.stage_seconds.labels(stage=stage).observe(seconds)
        queue_wait = trace.stages.get("queue")
        if queue_wait is not None:
            self.queue_wait_seconds.observe(queue_wait)
        if rows:
            self.result_rows_total.inc(rows)
        if self.access_logger is not None:
            self.access_logger.log(access_record(
                endpoint=endpoint, method=method, status=status, trace=trace,
                query_text=query_text, format=format, form=form, rows=rows,
                budget_seconds=budget_seconds,
                budget_consumed_seconds=budget_consumed_seconds,
                cache_hit=cache_hit, extra=extra,
            ))
        if (self.slow_query_seconds is not None
                and query_text is not None
                and total >= self.slow_query_seconds):
            self.slow_queries_total.inc()
            plan = None
            if plan_renderer is not None:
                try:
                    plan = plan_renderer()
                except Exception:  # noqa: BLE001 - diagnostics must not fail
                    plan = None
            if self.slow_logger is not None:
                self.slow_logger.log(slow_query_record(
                    threshold_seconds=self.slow_query_seconds, trace=trace,
                    query_text=query_text, plan=plan, status=status,
                    rows=rows,
                ))

    def close(self):
        """Close owned log streams (the serve CLI calls this on shutdown)."""
        if self.access_logger is not None:
            self.access_logger.close()
        if (self.slow_logger is not None
                and self.slow_logger is not self.access_logger):
            self.slow_logger.close()
