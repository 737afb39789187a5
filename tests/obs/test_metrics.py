"""Metrics registry semantics: instrument behavior, get-or-create
stability, snapshots, in-place reset, and the drain/merge round trip
that repatriates a process worker's metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshot_delta,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == {"type": "counter", "value": 5}

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7
        assert g.snapshot() == {"type": "gauge", "value": 7}


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["buckets"] == {"1.0": 1, "10.0": 2, "100.0": 3, "+Inf": 4}
        assert snap["count"] == 4
        assert snap["min"] == 0.5
        assert snap["max"] == 500.0
        assert snap["sum"] == 555.5

    def test_boundary_observation_counts_into_its_bucket(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.snapshot()["buckets"]["1.0"] == 1

    def test_boundaries_are_sorted_and_deduped(self):
        h = Histogram("h", buckets=(10.0, 1.0, 10.0))
        assert h.boundaries == (1.0, 10.0)

    def test_empty_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_mean_and_quantiles(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        assert h.quantile(0.5) is None
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value)
        assert h.mean == pytest.approx(1.65)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_inf_bucket_quantile_reports_largest_boundary(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(1.0) == 1.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.floats(0, 10_000), max_size=50))
    def test_cumulative_buckets_are_monotone_and_end_at_count(self, values):
        h = Histogram("h")
        for value in values:
            h.observe(value)
        buckets = h.snapshot()["buckets"]
        counts = list(buckets.values())
        assert counts == sorted(counts)
        assert counts[-1] == len(values)
        assert h.boundaries == tuple(sorted(set(DEFAULT_BUCKETS_MS)))


class TestRegistry:
    def test_get_or_create_returns_stable_objects(self):
        registry = MetricsRegistry()
        first = registry.counter("x")
        assert registry.counter("x") is first
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zebra").inc()
        registry.gauge("alpha").set(3)
        snap = registry.snapshot()
        assert list(snap) == ["alpha", "zebra"]
        assert snap["alpha"] == {"type": "gauge", "value": 3}

    def test_snapshot_prefix_filters_instruments(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(2)
        registry.gauge("serve.queue_depth").set(1)
        registry.counter("engine.checks").inc()
        snap = registry.snapshot(prefix="serve.")
        assert list(snap) == ["serve.queue_depth", "serve.requests"]
        assert registry.snapshot(prefix="nothing.") == {}
        # No prefix keeps the full registry view.
        assert set(registry.snapshot()) == {
            "serve.requests",
            "serve.queue_depth",
            "engine.checks",
        }

    def test_reset_zeroes_in_place(self):
        """Hoisted handles must survive a reset — the hot-path contract."""
        registry = MetricsRegistry()
        hoisted = registry.counter("hits")
        hist = registry.histogram("lat", buckets=(1.0,))
        hoisted.inc(7)
        hist.observe(0.5)
        registry.reset()
        assert hoisted.value == 0
        assert hist.count == 0 and hist.min is None
        hoisted.inc()
        assert registry.counter("hits") is hoisted
        assert registry.snapshot()["hits"]["value"] == 1


class TestDrain:
    def test_returns_exactly_the_instruments_that_moved(self):
        registry = MetricsRegistry()
        registry.counter("moved").inc(3)
        registry.counter("idle")
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        registry.histogram("quiet", buckets=(1.0,))
        window = registry.drain()
        assert set(window) == {"moved", "lat"}
        assert window["moved"] == {"type": "counter", "value": 3}
        assert window["lat"]["count"] == 1
        assert window["lat"]["min"] == window["lat"]["max"] == 0.5

    def test_zeroes_in_place_so_held_handles_keep_counting(self):
        registry = MetricsRegistry()
        hoisted = registry.counter("hits")
        hist = registry.histogram("lat", buckets=(1.0,))
        hoisted.inc(2)
        hist.observe(5.0)
        registry.drain()
        assert hoisted.value == 0
        assert hist.count == 0 and hist.min is None and hist.max is None
        hoisted.inc()
        hist.observe(0.25)
        window = registry.drain()
        assert registry.counter("hits") is hoisted
        assert window["hits"]["value"] == 1
        # The second window carries only its own bounds, not the 5.0
        # the first window saw.
        assert window["lat"]["min"] == window["lat"]["max"] == 0.25

    def test_leaves_gauges_alone(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(4)
        assert registry.drain() == {}
        assert registry.gauge("depth").value == 4

    def test_returns_empty_when_nothing_moved(self):
        registry = MetricsRegistry()
        assert registry.drain() == {}
        registry.counter("x").inc()
        registry.drain()
        assert registry.drain() == {}

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        counters=st.dictionaries(
            st.sampled_from(["c1", "c2", "c3"]), st.integers(0, 1000), max_size=3
        ),
        observations=st.dictionaries(
            st.sampled_from(["h1", "h2"]),
            st.lists(st.floats(0, 20_000, allow_nan=False), max_size=20),
            max_size=2,
        ),
    )
    def test_merge_into_fresh_registry_reproduces_the_window(
        self, counters, observations
    ):
        source = MetricsRegistry()
        for name, amount in counters.items():
            source.counter(name).inc(amount)
        for name, values in observations.items():
            for value in values:
                source.histogram(name).observe(value)
        before = source.snapshot()
        target = MetricsRegistry()
        merge_snapshot_delta(source.drain(), target)
        after = target.snapshot()
        for name, amount in counters.items():
            if amount:
                assert after[name]["value"] == amount
            else:
                assert name not in after
        for name, values in observations.items():
            if not values:
                assert name not in after
                continue
            for key in ("count", "sum", "min", "max", "buckets"):
                assert after[name][key] == before[name][key], key


class TestDefaultRegistry:
    def test_module_accessors_share_one_registry(self):
        from repro.obs.metrics import counter, metrics_snapshot, reset_metrics

        handle = counter("test.only.probe")
        before = handle.value
        handle.inc()
        assert metrics_snapshot()["test.only.probe"]["value"] == before + 1
        reset_metrics()
        assert metrics_snapshot()["test.only.probe"]["value"] == 0

    def test_engine_populates_default_metrics(self):
        from repro.cache import clear_caches
        from repro.core.engine import check_containment
        from repro.obs.metrics import metrics_snapshot, reset_metrics
        from repro.rpq.rpq import RPQ

        reset_metrics()
        clear_caches()
        check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        check_containment(RPQ.parse("a"), RPQ.parse("a|b"))
        snap = metrics_snapshot()
        assert snap["engine.checks"]["value"] == 2
        assert snap["engine.cache_hits"]["value"] == 1
        assert snap["engine.check_ms"]["count"] == 1
        assert snap["engine.verdict.holds"]["value"] == 1
        reset_metrics()
