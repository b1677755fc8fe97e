"""Observability: metrics registry, tracing, structured logs, exposition.

The package is self-contained (it imports nothing from the rest of
``repro``), so every layer — engine, stores, dataset cache, HTTP
server — can import it without cycles.  All instrumented code records
into one process-wide :class:`~repro.obs.registry.MetricsRegistry` obtained
via :func:`get_registry`.  The global registry starts **disabled**: every
``inc``/``observe``/``set`` is a no-op branch until something (normally
``repro serve --metrics``, or :func:`enable_metrics`) switches it on, so
instrumentation is cheap enough to ship on every code path.

Metric handles may be cached at construction time — enabling the registry
later activates them, because the enabled check happens at record time, not
at registration time.
"""

from __future__ import annotations

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricError",
    "MetricsRegistry",
    "NULL_TRACE",
    "QueryTrace",
    "ServerTelemetry",
    "disable_metrics",
    "enable_metrics",
    "get_registry",
]

#: The process-wide registry every instrumented subsystem records into.
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry():
    """The process-wide metrics registry (disabled until switched on)."""
    return _REGISTRY


def enable_metrics():
    """Switch the global registry on; returns it."""
    _REGISTRY.enable()
    return _REGISTRY


def disable_metrics():
    """Switch the global registry off (instrumentation becomes no-ops)."""
    _REGISTRY.disable()
    return _REGISTRY


from .tracing import NULL_TRACE, QueryTrace  # noqa: E402  (uses nothing above)
from .telemetry import ServerTelemetry  # noqa: E402  (imports get_registry)
