"""Unit tests for the metrics registry (counters, histograms, collectors)."""

from repro.obs import Counter, Histogram, MetricsRegistry, metrics
from repro.obs.metrics import pipeline_stats, reset_pipeline_stats


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_exact_aggregates(self):
        hist = Histogram("h")
        for value in (2.0, 8.0, 5.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.total == 15.0
        assert hist.min == 2.0
        assert hist.max == 8.0
        assert hist.mean == 5.0

    def test_percentiles_over_known_distribution(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.record(float(value))
        # Nearest-rank estimates land within one sample of the exact value.
        assert 50.0 <= hist.percentile(50) <= 51.0
        assert 95.0 <= hist.percentile(95) <= 96.0
        assert 99.0 <= hist.percentile(99) <= 100.0
        summary = hist.summary()
        assert summary["p50"] == hist.percentile(50)
        assert summary["p95"] == hist.percentile(95)
        assert summary["p99"] == hist.percentile(99)
        assert summary["count"] == 100

    def test_window_bounds_percentiles_but_not_count(self):
        hist = Histogram("h", window=10)
        for value in range(1, 101):
            hist.record(float(value))
        # Exact aggregates see all 100 samples...
        assert hist.count == 100
        assert hist.min == 1.0
        # ...percentiles only the last 10 (91..100).
        assert hist.percentile(0) == 91.0

    def test_empty_summary(self):
        assert Histogram("h").summary() == {"count": 0}
        assert Histogram("h").percentile(50) == 0.0

    def test_empty_window_contract_is_explicit(self):
        """count > 0 but every sample already fell out of the deque:
        percentiles are 0.0, never an IndexError."""
        hist = Histogram("h", window=4)
        for value in (1.0, 2.0, 3.0):
            hist.record(value)
        hist._window.clear()  # simulate the ring buffer draining
        assert hist.count == 3
        assert hist.percentile(50) == 0.0
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["p50"] == 0.0

    def test_bucket_counts_are_cumulative(self):
        hist = Histogram("h")
        hist.record(0.5)   # below the first bound -> le="1"
        hist.record(3.0)   # le="4.642"
        hist.record(5e8)   # above the last bound -> +Inf only
        buckets = hist.buckets()
        assert buckets["1"] == 1
        assert buckets["4.642"] == 2
        assert buckets["10000"] == 2
        assert buckets["+Inf"] == 3
        counts = list(buckets.values())
        assert counts == sorted(counts)

    def test_buckets_survive_window_eviction_and_reset(self):
        hist = Histogram("h", window=2)
        for _ in range(10):
            hist.record(3.0)
        # Window holds only 2 samples but buckets count all 10.
        assert hist.buckets()["+Inf"] == 10
        assert hist.summary()["buckets"]["+Inf"] == 10
        hist.reset()
        assert hist.buckets()["+Inf"] == 0
        assert "buckets" not in hist.summary()  # empty stays {"count": 0}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_snapshot_flattens_everything(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").record(7.0)
        external = {"widgets": 2}
        registry.register_collector("ext", lambda: dict(external))
        snap = registry.snapshot()
        assert snap["hits"] == 3
        assert snap["lat"]["count"] == 1
        assert snap["ext.widgets"] == 2

    def test_reset_zeroes_instruments_and_collectors(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("lat").record(1.0)
        state = {"n": 5}
        registry.register_collector(
            "ext", lambda: dict(state), lambda: state.update(n=0)
        )
        registry.reset()
        snap = registry.snapshot()
        assert snap["hits"] == 0
        assert snap["lat"] == {"count": 0}
        assert snap["ext.n"] == 0

    def test_counters_view(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(2)
        assert registry.counters() == {"x": 2}


class TestPipelineStatsRehoming:
    def test_reset_returns_the_shared_instance(self):
        pipeline_stats.group_commits += 3
        returned = reset_pipeline_stats()
        assert returned is pipeline_stats
        assert pipeline_stats.group_commits == 0

    def test_registry_snapshot_includes_pipeline_counters(self):
        reset_pipeline_stats()
        pipeline_stats.group_commits += 2
        pipeline_stats.wal_syncs += 1
        snap = metrics.snapshot()
        assert snap["pipeline.group_commits"] == 2
        assert snap["pipeline.wal_syncs"] == 1

    def test_registry_reset_clears_pipeline_counters(self):
        pipeline_stats.consumer_cache_hits += 9
        metrics.reset()
        assert pipeline_stats.consumer_cache_hits == 0


class TestConcurrentBumps:
    """The single-writer contract is retired: bumps from N threads must

    not lose counts.  (Satellite of the concurrent-engine PR — these
    exact interleavings are what the old contract declared undefined.)"""

    def test_counter_concurrent_incs_lose_nothing(self):
        import threading

        counter = Counter("hammered")
        n_threads, per_thread = 8, 5000
        start = threading.Barrier(n_threads)

        def bump():
            start.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread

    def test_histogram_concurrent_records_lose_nothing(self):
        import threading

        hist = Histogram("hammered_h", window=256)
        n_threads, per_thread = 6, 2000
        start = threading.Barrier(n_threads)

        def bump(base):
            start.wait()
            for i in range(per_thread):
                hist.record(float(base + i))

        threads = [
            threading.Thread(target=bump, args=(t * per_thread,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        summary = hist.summary()
        assert summary["count"] == n_threads * per_thread
        assert summary["min"] == 0.0
        assert summary["max"] == float(n_threads * per_thread - 1)

    def test_registry_get_or_create_race_yields_one_instrument(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        start = threading.Barrier(8)

        def grab():
            start.wait()
            seen.append(registry.counter("contended"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1
        for counter in set(seen):
            counter.inc()
        assert registry.counter("contended").value == 1
