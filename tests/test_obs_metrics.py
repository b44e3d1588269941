"""The metrics registry: counters, gauges, histograms, snapshots."""

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_float_increments(self):
        counter = Counter("seconds")
        counter.inc(0.25)
        counter.inc(0.5)
        assert counter.value == pytest.approx(0.75)

    def test_rejects_decrease(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        assert gauge.value == 12


class TestHistogram:
    def test_edge_values_land_in_their_bucket(self):
        # Inclusive upper bounds: a value equal to a bound counts there.
        hist = Histogram("h", (1, 5, 10))
        for value in (0, 1, 2, 5, 10, 11):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]   # {0,1}, {2,5}, {10}
        assert hist.overflow == 1          # {11}
        assert hist.total == 6
        assert hist.sum == 29.0
        assert hist.mean == pytest.approx(29.0 / 6)

    def test_empty_mean_is_zero(self):
        assert Histogram("h", (1,)).mean == 0.0

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (5, 1))
        with pytest.raises(ValueError):
            Histogram("h", (1, 1, 2))

    def test_as_dict_keys_are_strings(self):
        hist = Histogram("h", (1, 2))
        hist.observe(1)
        snapshot = hist.as_dict()
        assert snapshot["buckets"] == {"1": 1, "2": 0}
        assert snapshot["count"] == 1

    def test_quantile_returns_bucket_upper_bounds(self):
        hist = Histogram("h", (1, 5, 10))
        for value in (0, 1, 2, 5, 10, 10):
            hist.observe(value)
        assert hist.quantile(0.5) == 5
        assert hist.quantile(0.25) == 1
        assert hist.quantile(1.0) == 10

    def test_quantile_overflow_and_empty(self):
        hist = Histogram("h", (1,))
        assert hist.quantile(0.5) is None
        hist.observe(100)
        assert hist.quantile(0.5) == float("inf")
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestRegistry:
    def test_lookup_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", (1, 2)) is \
            registry.histogram("h", (1, 2))

    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x", (1,))
        registry.histogram("h", (1,))
        with pytest.raises(TypeError):
            registry.counter("h")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", (1, 3))

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.gauge("pvn").set(0.4)
        snapshot = registry.as_dict()
        assert snapshot["runs"] == {"kind": "counter", "value": 3}
        assert snapshot["pvn"] == {"kind": "gauge", "value": 0.4}

    def test_write_json_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.histogram("h", (1, 5)).observe(3)
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == registry.as_dict()

    def test_container_protocol(self):
        registry = MetricsRegistry()
        registry.counter("a")
        assert registry.names() == ["a"]
        assert registry.get("a").kind == "counter"
        assert registry.get("b") is None


class TestThreadSafety:
    """Satellite: one lock around mutation and render."""

    def test_concurrent_increments_are_not_lost(self):
        import threading

        registry = MetricsRegistry()
        threads_n, per_thread = 8, 2000
        start = threading.Barrier(threads_n)

        def worker():
            start.wait(timeout=5)
            for _ in range(per_thread):
                registry.counter("hits").inc()
                registry.gauge("level").inc()
                registry.histogram("lat", (0.5, 1.0)).observe(0.25)

        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        expected = threads_n * per_thread
        assert registry.get("hits").value == expected
        assert registry.get("level").value == expected
        assert registry.get("lat").total == expected
        assert registry.get("lat").counts[0] == expected

    def test_render_during_concurrent_mutation(self):
        import threading

        registry = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def mutate():
            while not stop.is_set():
                registry.counter("spin").inc()
                registry.histogram("h", (1.0,)).observe(0.5)

        def render():
            from repro.obs.metrics import parse_openmetrics

            try:
                while not stop.is_set():
                    parse_openmetrics(registry.render_openmetrics())
                    registry.as_dict()
            except Exception as exc:  # noqa: BLE001 — test harness
                errors.append(exc)

        threads = [threading.Thread(target=mutate) for _ in range(4)]
        threads += [threading.Thread(target=render) for _ in range(2)]
        for thread in threads:
            thread.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert errors == []

    def test_standalone_instruments_have_their_own_lock(self):
        counter = Counter("lone")
        gauge = Gauge("lone_g")
        histogram = Histogram("lone_h", (1.0,))
        counter.inc()
        gauge.set(2)
        histogram.observe(0.5)
        assert counter.value == 1
        assert gauge.value == 2
        assert histogram.total == 1

    def test_merge_snapshot_under_the_registry_lock(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        snapshot = registry.as_dict()
        registry.merge_snapshot(snapshot)
        assert registry.get("c").value == 4


class TestOpenMetricsEdgeCases:
    """Satellite: empty histograms, zero-sample quantiles, escaping."""

    def test_empty_histogram_render_parse_round_trip(self):
        from repro.obs.metrics import parse_openmetrics

        registry = MetricsRegistry()
        registry.histogram("empty_latency", (0.1, 1.0))
        snapshot = parse_openmetrics(registry.render_openmetrics())
        parsed = snapshot["empty_latency"]
        assert parsed["kind"] == "histogram"
        assert parsed["count"] == 0
        assert parsed["sum"] == 0.0
        assert all(c == 0 for c in parsed["buckets"].values())
        other = MetricsRegistry()
        other.merge_snapshot(snapshot)
        assert other.get("empty_latency").total == 0

    def test_quantile_on_zero_samples_is_none(self):
        histogram = Histogram("h", (0.5, 1.0))
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(0.0) is None
        assert histogram.quantile(1.0) is None

    def test_help_escaping_keeps_the_format_line_oriented(self):
        from repro.obs.metrics import escape_help

        registry = MetricsRegistry()
        registry.counter(
            "tricky", help="line one\nline two \\ backslash").inc()
        text = registry.render_openmetrics()
        assert "line one\\nline two \\\\ backslash" in text
        assert all(
            line.startswith(("#", "tricky"))
            for line in text.splitlines() if "tricky" in line
        )
        assert escape_help("a\nb\\c") == "a\\nb\\\\c"
