"""A thread-safe, dependency-free metrics registry.

Three instrument kinds — monotonic counters, gauges, and fixed-bucket
histograms — organized as *families* (one metric name + HELP text + label
names) of *children* (one concrete label-value combination each).  The
shapes and naming rules follow the Prometheus data model so the registry
can be rendered straight into text exposition format (``exposition.py``)
without an adapter layer.

Design constraints, in order:

* **Correct under concurrency.**  Every child guards its state with its own
  small lock; N threads incrementing the same counter produce the exact
  total.  Family child-creation is memoized under a family lock, so two
  threads racing on the same label set get the same child object.
* **Free when disabled.**  Recording methods check the owning registry's
  ``enabled`` flag first and return immediately — instrument handles can be
  cached at object construction time (engines, servers, pools live long)
  and still respect a registry that is switched on later, e.g. by
  ``repro serve --metrics``.  A disabled registry costs one attribute load
  and one branch per call site.
* **Cheap when enabled.**  Recording is a lock acquire plus an add (and a
  bisect for histograms); there is no string formatting or allocation on
  the hot path.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]

#: Valid Prometheus metric names (exposition format 0.0.4).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Valid Prometheus label names (``__``-prefixed names are reserved).
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default buckets for request/stage latency histograms, in seconds.
#: 50us..10s covers everything from a parse stage or a whole point lookup
#: (~0.5 ms over HTTP) to a deadline-bounded worst case; the log-ish spacing
#: keeps quantile estimates useful at both ends without per-metric tuning.
DEFAULT_LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Invalid metric/label name, kind clash, or label mismatch."""


class _Child:
    """Shared shell: every child records through its own lock."""

    __slots__ = ("_registry", "_lock")

    def __init__(self, registry):
        self._registry = registry
        self._lock = threading.Lock()


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, registry):
        super().__init__(registry)
        self._value = 0.0

    def inc(self, amount=1.0):
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge(_Child):
    """A value that can go up and down (pool occupancy, sizes)."""

    __slots__ = ("_value",)

    def __init__(self, registry):
        super().__init__(registry)
        self._value = 0.0

    def set(self, value):
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount=1.0):
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount=1.0):
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram(_Child):
    """Observations bucketed into fixed upper bounds (plus ``+Inf``)."""

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, registry, bounds):
        super().__init__(registry)
        self._bounds = bounds
        # One slot per finite bound plus the implicit +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value):
        if not self._registry.enabled:
            return
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def bounds(self):
        return self._bounds

    def snapshot(self):
        """``(per-bucket counts, sum, count)`` — a consistent copy."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q):
        """Estimate the q-quantile (0..1) from the bucket counts.

        Uses the conventional Prometheus ``histogram_quantile`` linear
        interpolation inside the target bucket; observations in the +Inf
        bucket clamp to the largest finite bound.  Returns ``None`` when
        the histogram is empty.
        """
        counts, _sum, total = self.snapshot()
        return estimate_quantile(self._bounds, counts, total, q)


def estimate_quantile(bounds, counts, total, q):
    """Shared quantile estimator (also used on scraped bucket data)."""
    if total <= 0:
        return None
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):          # +Inf bucket: clamp
                return bounds[-1] if bounds else None
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index]
            return lower + (upper - lower) * ((rank - seen) / count)
        seen += count
    return bounds[-1] if bounds else None


class MetricFamily:
    """One metric name: HELP text, label names, and memoized children.

    A family declared with no labels acts as its own single child: the
    recording methods (``inc``/``set``/``observe``/...) delegate to the
    unlabelled child, so call sites write ``family.inc()`` directly.
    Labelled families hand out children via :meth:`labels`.
    """

    def __init__(self, registry, kind, name, help, label_names, bounds=None):
        self.registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = bounds
        self._children = {}
        self._lock = threading.Lock()
        if not self.label_names:
            self._children[()] = self._new_child()

    def _new_child(self):
        if self.kind == "counter":
            return Counter(self.registry)
        if self.kind == "gauge":
            return Gauge(self.registry)
        return Histogram(self.registry, self.bounds)

    def labels(self, *values, **named):
        """The child for one label-value combination (created on demand)."""
        if named:
            if values:
                raise MetricError("pass label values either positionally "
                                  "or by name, not both")
            try:
                values = tuple(str(named.pop(name))
                               for name in self.label_names)
            except KeyError as error:
                raise MetricError(
                    f"{self.name}: missing label {error.args[0]!r}"
                ) from None
            if named:
                raise MetricError(
                    f"{self.name}: unknown labels {sorted(named)}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name} expects labels {list(self.label_names)}, "
                f"got {len(values)} value(s)"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = self._children[values] = self._new_child()
        return child

    def _sole_child(self):
        if self.label_names:
            raise MetricError(
                f"{self.name} is labelled by {list(self.label_names)}; "
                "use .labels(...) to pick a child"
            )
        return self._children[()]

    # Unlabelled-family conveniences ---------------------------------------

    def inc(self, amount=1.0):
        self._sole_child().inc(amount)

    def dec(self, amount=1.0):
        self._sole_child().dec(amount)

    def set(self, value):
        self._sole_child().set(value)

    def observe(self, value):
        self._sole_child().observe(value)

    @property
    def value(self):
        return self._sole_child().value

    def quantile(self, q):
        return self._sole_child().quantile(q)

    def snapshot(self):
        return self._sole_child().snapshot()

    def children(self):
        """Snapshot of ``(label values tuple, child)`` pairs, sorted."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Registration plus the global on/off switch for all its instruments.

    ``counter``/``gauge``/``histogram`` are idempotent: re-declaring a name
    with the same kind and labels returns the existing family (so modules
    can declare their handles independently), while clashing declarations
    raise :class:`MetricError`.
    """

    def __init__(self, enabled=True):
        self._enabled = enabled
        self._families = {}
        self._lock = threading.Lock()

    # -- the switch --------------------------------------------------------

    @property
    def enabled(self):
        return self._enabled

    def enable(self):
        self._enabled = True

    def disable(self):
        self._enabled = False

    # -- registration ------------------------------------------------------

    def counter(self, name, help="", labels=()):
        return self._register("counter", name, help, labels)

    def gauge(self, name, help="", labels=()):
        return self._register("gauge", name, help, labels)

    def histogram(self, name, help="", labels=(),
                  buckets=DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        return self._register("histogram", name, help, labels, bounds=bounds)

    def _register(self, kind, name, help, labels, bounds=None):
        if not METRIC_NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise MetricError(f"{name}: invalid label name {label!r}")
        if kind == "histogram" and "le" in label_names:
            raise MetricError(f"{name}: label 'le' is reserved for buckets")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (family.kind != kind
                        or family.label_names != label_names
                        or (bounds is not None and family.bounds != bounds)):
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels "
                        f"{list(family.label_names)}"
                    )
                return family
            family = MetricFamily(self, kind, name, help, label_names,
                                  bounds=bounds)
            self._families[name] = family
            return family

    def families(self):
        """All registered families, sorted by metric name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def expose(self):
        """Render everything in Prometheus text exposition format 0.0.4."""
        from .exposition import render
        return render(self)
