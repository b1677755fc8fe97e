"""Registry correctness: kinds, labels, validation, and concurrency.

The registry is the foundation every instrumented subsystem writes through,
so these tests pin its contract: registration is idempotent, disabled
registries are no-ops that later *enable in place* (handles cached at
import time must start recording), and concurrent writers lose no updates.
"""

import threading

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
    estimate_quantile,
)


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("t_total", "help")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_is_rejected(self, registry):
        counter = registry.counter("t_total", "help")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labelled_children_are_memoized(self, registry):
        family = registry.counter("req_total", "help",
                                  labels=("endpoint", "status"))
        child = family.labels("/sparql", "200")
        child.inc()
        assert family.labels(endpoint="/sparql", status="200") is child
        assert child.value == 1.0

    def test_label_count_mismatch_is_rejected(self, registry):
        family = registry.counter("req_total", "help", labels=("endpoint",))
        with pytest.raises(MetricError):
            family.labels("/sparql", "extra")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("inflight", "help")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        histogram = registry.histogram("lat_seconds", "help",
                                       buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        counts, observed_sum, count = histogram.snapshot()
        assert counts == [1, 2, 1]          # <=0.1, <=1.0, +Inf overflow
        assert observed_sum == pytest.approx(6.05)
        assert count == 4

    def test_quantile_estimate(self, registry):
        histogram = registry.histogram("lat_seconds", "help",
                                       buckets=(0.1, 1.0))
        for _ in range(100):
            histogram.observe(0.05)
        assert histogram.quantile(0.5) <= 0.1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == \
            sorted(DEFAULT_LATENCY_BUCKETS)

    def test_default_buckets_resolve_sub_millisecond_latencies(self, registry):
        # A whole point lookup over HTTP takes ~0.5 ms; 0.2 ms and 0.7 ms
        # must not share a bucket.
        histogram = registry.histogram("lookup_seconds", "help")
        histogram.observe(0.0002)
        histogram.observe(0.0007)
        counts, _sum, _count = histogram.snapshot()
        assert sorted(counts, reverse=True)[:2] == [1, 1]


class TestEstimateQuantile:
    def test_empty_histogram_is_none(self):
        assert estimate_quantile([0.1, 1.0], [0, 0, 0], 0, 0.99) is None

    def test_overflow_clamps_to_largest_bound(self):
        assert estimate_quantile([0.1, 1.0], [0, 0, 10], 10, 0.99) == 1.0

    def test_interpolates_within_bucket(self):
        value = estimate_quantile([0.1, 1.0], [10, 0, 0], 10, 0.5)
        assert 0.0 < value <= 0.1


class TestRegistration:
    def test_same_name_returns_same_family(self, registry):
        first = registry.counter("x_total", "help")
        assert registry.counter("x_total", "help") is first

    def test_kind_clash_is_rejected(self, registry):
        registry.counter("x_total", "help")
        with pytest.raises(MetricError):
            registry.gauge("x_total", "help")

    def test_label_clash_is_rejected(self, registry):
        registry.counter("x_total", "help", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", "help", labels=("b",))

    def test_invalid_metric_name_is_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("bad-name", "help")

    def test_invalid_label_name_is_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("x_total", "help", labels=("bad-label",))

    def test_families_sorted_by_name(self, registry):
        registry.counter("z_total", "help")
        registry.counter("a_total", "help")
        assert [f.name for f in registry.families()] == \
            ["a_total", "z_total"]


class TestEnablement:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total", "help")
        counter.inc()
        assert counter.value == 0.0

    def test_enable_activates_existing_handles(self):
        # The server caches handles at construction; enabling later must
        # turn exactly those handles on.
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total", "help")
        histogram = registry.histogram("y_seconds", "help")
        counter.inc()
        registry.enable()
        counter.inc()
        histogram.observe(0.5)
        assert counter.value == 1.0
        assert histogram.snapshot()[2] == 1
        registry.disable()
        counter.inc()
        assert counter.value == 1.0


class TestConcurrency:
    def test_concurrent_counter_increments_are_exact(self, registry):
        counter = registry.counter("c_total", "help")
        family = registry.counter("l_total", "help", labels=("worker",))
        threads, per_thread = 8, 2_000

        def work(index):
            child = family.labels(str(index % 2))
            for _ in range(per_thread):
                counter.inc()
                child.inc()

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == threads * per_thread
        assert sum(child.value for _labels, child in family.children()) == \
            threads * per_thread

    def test_concurrent_histogram_observations_are_exact(self, registry):
        histogram = registry.histogram("h_seconds", "help", buckets=(0.5,))
        threads, per_thread = 8, 2_000

        def work():
            for _ in range(per_thread):
                histogram.observe(0.25)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        counts, observed_sum, count = histogram.snapshot()
        assert count == threads * per_thread
        assert counts[0] == threads * per_thread
        assert observed_sum == pytest.approx(0.25 * threads * per_thread)
