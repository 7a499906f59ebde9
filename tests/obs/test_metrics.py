"""Metrics instruments: counters, gauges, histograms, the registry."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_MAX_SERIES,
    OTHER_LABEL_VALUE,
    SERIES_DROPPED_METRIC,
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    escape_label_value,
    series_key,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increments(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_add_and_reset(self):
        g = Gauge("depth")
        g.set(7)
        assert g.value == 7
        g.add(-3)
        assert g.value == 4
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_default_bounds_are_sorted_and_span_1us_to_10s(self):
        assert list(DEFAULT_LATENCY_BOUNDS) == \
            sorted(DEFAULT_LATENCY_BOUNDS)
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BOUNDS[-1] == pytest.approx(10.0)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_count_sum_min_max(self):
        h = Histogram("h")
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(0.006)
        assert s["min"] == pytest.approx(0.001)
        assert s["max"] == pytest.approx(0.003)
        assert s["mean"] == pytest.approx(0.002)

    def test_quantile_is_conservative_upper_bound(self):
        h = Histogram("h")
        for _ in range(100):
            h.observe(0.0009)  # falls in the (0.0005, 0.001] bucket
        # The estimate is the bucket's upper bound, clamped to max.
        assert h.quantile(0.5) == pytest.approx(0.0009)
        h.observe(5.0)
        assert h.quantile(0.99) <= 5.0

    def test_empty_quantile_is_none(self):
        h = Histogram("h")
        assert h.quantile(0.5) is None
        assert h.summary()["p50"] is None

    def test_quantile_range_checked(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_reset(self):
        h = Histogram("h")
        h.observe(1.0)
        h.reset()
        assert h.count == 0
        assert h.summary()["max"] is None

    def test_single_observation_quantiles_are_exact(self):
        # Pinned: one sample must come back exactly, never interpolated
        # against a bucket bound (or the overflow bucket's upper edge).
        h = Histogram("h")
        h.observe(0.0123)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.0123)
            assert h.percentile(q) == pytest.approx(0.0123)

    def test_single_overflow_observation_is_exact(self):
        # A sole sample above the last bound lands in the +Inf bucket;
        # both estimators must still return the sample, not infinity.
        h = Histogram("h")
        h.observe(99.5)
        assert h.quantile(0.5) == pytest.approx(99.5)
        assert h.percentile(0.99) == pytest.approx(99.5)

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(0.5) is None

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("h")
        for v in (0.011, 0.012, 0.013):
            h.observe(v)
        p99 = h.percentile(0.99)
        assert 0.011 <= p99 <= 0.013


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_snapshot_maps_values_and_summaries(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1

    def test_names_and_get(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert reg.get("a") is not None
        assert reg.get("missing") is None

    def test_reset_all(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.snapshot()["c"] == 0
        assert reg.snapshot()["h"]["count"] == 0


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_series_key_shape(self):
        key = series_key("rules.fired", ("tenant", "shard"), ("acme", "3"))
        assert key == 'rules.fired{tenant="acme",shard="3"}'


class TestFamilies:
    def test_labels_returns_same_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("rules.fired", labels=("tenant", "shard"))
        assert isinstance(fam, CounterFamily)
        child = fam.labels("acme", "3")
        assert fam.labels("acme", "3") is child
        assert fam.labels(tenant="acme", shard="3") is child
        child.inc(2)
        assert child.value == 2

    def test_registry_returns_same_family(self):
        reg = MetricsRegistry()
        fam = reg.histogram("h", labels=("script",))
        assert reg.histogram("h", labels=("script",)) is fam
        assert isinstance(fam, HistogramFamily)

    def test_plain_vs_labelled_name_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.counter("a", labels=("tenant",))
        reg.counter("b", labels=("tenant",))
        with pytest.raises(ValueError):
            reg.counter("b")

    def test_label_set_is_frozen(self):
        reg = MetricsRegistry()
        reg.counter("a", labels=("tenant",))
        with pytest.raises(ValueError):
            reg.counter("a", labels=("tenant", "shard"))

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a", labels=("tenant",))
        with pytest.raises(ValueError):
            reg.gauge("a", labels=("tenant",))

    def test_wrong_arity_and_unknown_keyword(self):
        reg = MetricsRegistry()
        fam = reg.counter("a", labels=("tenant", "shard"))
        with pytest.raises(ValueError):
            fam.labels("only-one")
        with pytest.raises(ValueError):
            fam.labels(tenant="t", bogus="x")
        with pytest.raises(ValueError):
            fam.labels("positional", tenant="named")

    def test_values_coerced_to_str(self):
        reg = MetricsRegistry()
        fam = reg.gauge("g", labels=("shard",))
        assert fam.labels(7) is fam.labels("7")

    def test_governor_collapses_into_other(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("tenant",), max_series=2)
        fam.labels("a").inc()
        fam.labels("b").inc()
        other = fam.labels("c")
        assert other is fam.labels("d")
        other.inc(2)
        assert fam.series_count == 3  # a, b + reserved other
        series = fam.series()
        assert series[(OTHER_LABEL_VALUE,)].value == 2
        dropped = reg.get(SERIES_DROPPED_METRIC)
        assert dropped.value == 2  # one per collapsed resolution

    def test_governor_reuses_explicit_other_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("tenant",), max_series=2)
        explicit = fam.labels(OTHER_LABEL_VALUE)
        fam.labels("a")
        overflow = fam.labels("z")
        assert overflow is explicit
        assert fam.series_count == 2

    def test_default_cap_applies(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("tenant",))
        assert fam.max_series == DEFAULT_MAX_SERIES

    def test_fuzz_10k_tenants_is_bounded(self):
        reg = MetricsRegistry()
        fam = reg.counter("rules.fired", labels=("tenant",),
                          max_series=32)
        for i in range(10_000):
            fam.labels(f"tenant-{i}").inc()
        assert fam.series_count == 33  # 32 admitted + reserved other
        dropped = reg.get(SERIES_DROPPED_METRIC)
        assert dropped.value == 10_000 - 32
        # Every fire landed somewhere: the total is conserved.
        assert sum(c.value for c in fam.series().values()) == 10_000

    def test_snapshot_uses_flat_series_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", labels=("tenant",)).labels("acme").inc(3)
        reg.histogram("h", labels=("script",)).labels("DAYS").observe(0.01)
        snap = reg.snapshot()
        assert snap['c{tenant="acme"}'] == 3
        assert snap['h{script="DAYS"}']["count"] == 1

    def test_family_reset_keeps_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("tenant",))
        fam.labels("acme").inc(5)
        reg.reset()
        assert fam.labels("acme").value == 0
        assert fam.series_count == 1

    def test_series_dropped_absent_until_first_family(self):
        reg = MetricsRegistry()
        reg.counter("plain")
        assert reg.get(SERIES_DROPPED_METRIC) is None
        reg.counter("fam", labels=("tenant",))
        assert reg.get(SERIES_DROPPED_METRIC) is not None

    def test_concurrent_label_resolution_under_cap(self):
        import threading

        reg = MetricsRegistry()
        fam = reg.counter("c", labels=("tenant",), max_series=8)
        errors = []

        def hammer(seed):
            try:
                for i in range(500):
                    fam.labels(f"tenant-{(seed + i) % 20}").inc()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert fam.series_count <= 9  # cap + reserved other
        assert sum(c.value for c in fam.series().values()) == 8 * 500
