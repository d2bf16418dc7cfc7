"""Tests for the metric primitives and the registry."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge()
        gauge.set(4.2)
        assert gauge.value == 4.2

    def test_pull_callback_read_at_collection_time(self):
        backing = {"value": 1.0}
        gauge = Gauge()
        gauge.set_function(lambda: backing["value"])
        assert gauge.value == 1.0
        backing["value"] = 9.0
        assert gauge.value == 9.0

    def test_set_clears_pull_callback(self):
        gauge = Gauge()
        gauge.set_function(lambda: 7.0)
        gauge.set(1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)   # lands in the first bucket (<= 1.0)
        hist.observe(1.5)   # second bucket
        hist.observe(99.0)  # overflow (+Inf) bucket
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.cumulative_counts() == [(1.0, 1), (2.0, 2), (math.inf, 3)]

    def test_count_sum_mean_min_max(self):
        hist = Histogram(buckets=(10.0,))
        for value in (1.0, 3.0, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 9.0
        assert hist.mean == 3.0
        assert hist.min == 1.0
        assert hist.max == 5.0

    def test_empty_histogram_quantile_and_mean_are_zero(self):
        hist = Histogram(buckets=(1.0,))
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0

    def test_quantile_interpolates_within_bucket(self):
        hist = Histogram(buckets=(0.0, 10.0))
        for value in (2.0, 4.0, 6.0, 8.0, 10.0):  # all in the (0, 10] bucket
            hist.observe(value)
        # rank 2.5/5 -> halfway through the (0, 10] bucket: 0 + 10 * 0.5
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(1.0) == 10.0

    def test_overflow_quantile_returns_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(42.0)
        assert hist.quantile(0.99) == 42.0

    def test_single_sample_quantiles_are_the_sample(self):
        # p99 of one observation is that observation — not an
        # interpolated point inside its bucket.
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(3.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 3.0

    def test_all_equal_samples_quantiles_are_the_sample(self):
        hist = Histogram(buckets=(1.0, 10.0))
        for _ in range(100):
            hist.observe(7.0)
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == 7.0

    def test_quantiles_never_exceed_observed_max(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(2.0)
        hist.observe(2.5)
        assert hist.quantile(0.99) <= hist.max

    def test_quantile_order_property_random_samples(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=1,
                max_size=40,
            )
        )
        def check(samples):
            hist = Histogram(buckets=(0.5, 1.0, 5.0, 10.0, 50.0))
            for sample in samples:
                hist.observe(sample)
            p50 = hist.quantile(0.50)
            p95 = hist.quantile(0.95)
            p99 = hist.quantile(0.99)
            assert not math.isnan(p50)
            assert p50 <= p95 <= p99 <= hist.max

        check()

    def test_bucket_index_equals_the_linear_scan(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        bounds = (-1.0, 0.0, 0.1, 0.25, 1.0, 55.0)

        def linear_scan(value):
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return len(bounds)

        specials = [math.nan, math.inf, -math.inf, -0.0, *bounds]
        specials += [math.nextafter(b, math.inf) for b in bounds]
        specials += [math.nextafter(b, -math.inf) for b in bounds]

        @settings(max_examples=200, deadline=None)
        @given(st.one_of(st.sampled_from(specials), st.floats()))
        def check(value):
            hist = Histogram(buckets=bounds)
            hist.observe(value)
            expected = [0] * (len(bounds) + 1)
            expected[linear_scan(value)] = 1
            assert hist.bucket_counts == expected

        check()

    def test_quantile_bounds_validated(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0,)).quantile(1.5)

    def test_bucket_bounds_must_strictly_increase(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram(buckets=())


class TestMetricsRegistry:
    def test_same_name_and_labels_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("spear_events_total", kind="generate")
        second = registry.counter("spear_events_total", kind="generate")
        assert first is second
        other = registry.counter("spear_events_total", kind="check")
        assert other is not first

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("c", x="1", y="2")
        b = registry.counter("c", y="2", x="1")
        assert a is b

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ObservabilityError):
            registry.gauge("m")

    def test_sum_counter_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("tokens", prompt="a").inc(10)
        registry.counter("tokens", prompt="b").inc(5)
        assert registry.sum_counter("tokens") == 15.0
        assert registry.sum_counter("missing") == 0.0

    def test_sum_counter_rejects_non_counters(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        with pytest.raises(ObservabilityError):
            registry.sum_counter("g")

    def test_collect_yields_sorted_families(self):
        registry = MetricsRegistry()
        registry.counter("zzz")
        registry.gauge("aaa")
        names = [name for name, _, _, _ in registry.collect()]
        assert names == ["aaa", "zzz"]

    def test_get_returns_none_for_unknown(self):
        registry = MetricsRegistry()
        assert registry.get("nope") is None
        registry.counter("yes", k="v").inc()
        assert registry.get("yes", k="v").value == 1.0
        assert registry.get("yes", k="other") is None

    def test_help_text_kept_from_first_non_empty(self):
        registry = MetricsRegistry()
        registry.counter("m")
        registry.counter("m", "Described later.")
        family = next(iter(registry.collect()))
        assert family[2] == "Described later."
