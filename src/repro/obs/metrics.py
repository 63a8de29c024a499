"""Named counters and latency histograms for the pipeline and the OODB.

The PR-1 optimizations introduced ad-hoc process-wide counters
(:class:`PipelineStats`); this module generalizes them into a
:class:`MetricsRegistry` — named :class:`Counter` and :class:`Histogram`
instruments that the tracer, the benchmarks, and the tools all read from
one place.  ``PipelineStats`` itself is re-homed here (the hot paths keep
bumping plain integer attributes on it — one ``int`` add, no indirection)
and is exposed through the registry as a *collector*, so
``metrics.snapshot()`` includes the fast-path counters alongside
everything else.

This module must not import ``repro.core`` or ``repro.oodb`` — both feed
metrics into it.

Thread-safety contract: **concurrent writers, concurrent readers**.  The
original single-writer contract was retired when the engine grew a
decoupled-rule worker pool and a rule server: counters and histograms
are now bumped from many threads at once.  Each instrument guards its
mutation with a per-instrument lock (one uncontended acquire — tens of
nanoseconds — on paths that are already doing dict lookups and float
math), so no increment is ever lost and no histogram invariant
(``count`` vs ``sum`` vs buckets) is ever torn by a racing writer.
:meth:`MetricsRegistry.snapshot` and :meth:`Histogram.summary` take
copies under a registry lock and may be called from any thread; the
metrics exporter's HTTP thread does exactly that.  Readers can still
observe a value mid-batch (a count bumped before its sum), never a torn
structure.  ``PipelineStats`` keeps plain unlocked attribute bumps: its
counters are advisory throughput indicators on the hottest paths, and a
rare lost bump there trades against every event paying for a lock.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Callable, Deque

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "BUCKET_BOUNDS",
    "PipelineStats",
    "pipeline_stats",
    "reset_pipeline_stats",
]

#: How many recent samples a histogram keeps for percentile estimation.
#: Count/sum/min/max stay exact beyond the window; percentiles are over
#: the most recent samples (a sliding reservoir, not a decaying sketch).
DEFAULT_WINDOW = 4096

_PERCENTILES = (50.0, 95.0, 99.0)

#: Log-spaced cumulative bucket upper bounds (microseconds): three per
#: decade from 1µs to 10s.  Unlike the windowed percentiles, bucket
#: counts are exact over the histogram's whole lifetime, so external
#: scrapers can aggregate them across processes (the exporter renders
#: them as an OpenMetrics ``histogram`` family with ``le`` labels).
BUCKET_BOUNDS = tuple(round(10 ** (e / 3.0), 3) for e in range(22))


class Counter:
    """A monotonically increasing named counter (multi-writer safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        # ``value += amount`` alone can lose updates between the LOAD and
        # the STORE when another thread is bumping too; the per-instrument
        # lock makes the read-modify-write atomic.
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """A latency histogram: exact count/sum/min/max/buckets, windowed
    percentiles.

    **Empty-window contract** (the telemetry collector scrapes idle
    registries constantly, so this is explicit): with no samples
    recorded, :meth:`percentile` returns ``0.0`` and :meth:`summary`
    returns exactly ``{"count": 0}``.  If samples exist but the
    percentile window is empty (``window=0``, or a reset race), the
    percentiles are ``0.0`` rather than an error — never whatever falls
    out of an empty sort.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "_window", "_buckets", "_lock"
    )

    def __init__(self, name: str, window: int = DEFAULT_WINDOW) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window: Deque[float] = deque(maxlen=window)
        # One slot per bound plus the +Inf overflow; exact, not windowed.
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._window.append(value)
            self._buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank) over the sample window.

        ``0.0`` when the window holds no samples (see the class
        docstring's empty-window contract).
        """
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = min(len(ordered) - 1, int(p / 100.0 * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    def buckets(self) -> dict[str, int]:
        """Cumulative ``le`` bucket counts (``"+Inf"`` equals ``count``)."""
        out: dict[str, int] = {}
        running = 0
        counts = list(self._buckets)
        for bound, bucket in zip(BUCKET_BOUNDS, counts):
            running += bucket
            out[format(bound, "g")] = running
        out["+Inf"] = running + counts[-1]
        return out

    def summary(self) -> dict[str, Any]:
        """Count/sum/mean/min/max, windowed percentiles, bucket counts.

        Safe to call from a reader thread while the engine records:
        ``sorted`` copies the window in one C-level pass under the GIL,
        so a concurrent append cannot corrupt the read (the sample it
        adds lands in the next summary).  With no samples the summary is
        exactly ``{"count": 0}`` — no sum/percentiles/buckets keys.
        """
        count = self.count
        if not count:
            return {"count": 0}
        ordered = sorted(self._window)

        def at(p: float) -> float:
            if not ordered:  # window emptier than count (window=0 / reset race)
                return 0.0
            rank = min(len(ordered) - 1, int(p / 100.0 * (len(ordered) - 1) + 0.5))
            return ordered[rank]

        total = self.total
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": self.min,
            "max": self.max,
            **{f"p{int(p)}": at(p) for p in _PERCENTILES},
            "buckets": self.buckets(),
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = float("-inf")
            self._window.clear()
            self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Creates, caches, and snapshots named instruments.

    ``counter(name)`` / ``histogram(name)`` are get-or-create: callers can
    hold the returned instrument and bump it directly (no per-update dict
    lookup on hot paths).  *Collectors* adapt externally-owned counter
    structs (``PipelineStats``) into the snapshot under a name prefix.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[
            str, tuple[Callable[[], dict[str, Any]], Callable[[], None] | None]
        ] = {}
        # Guards the instrument *dicts* (creation, enumeration) against a
        # concurrent reader thread.  Bumping an existing instrument never
        # locks: the get-or-create hit path below is lock-free too, so hot
        # callers holding an instrument pay nothing.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, window: int = DEFAULT_WINDOW) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(name, window)
        return histogram

    def register_collector(
        self,
        prefix: str,
        snapshot: Callable[[], dict[str, Any]],
        reset: Callable[[], None] | None = None,
    ) -> None:
        """Expose an external counter struct under ``prefix.*`` (idempotent)."""
        with self._lock:
            self._collectors[prefix] = (snapshot, reset)

    def unregister_collector(self, prefix: str) -> None:
        """Remove a collector registered under ``prefix`` (missing ok)."""
        with self._lock:
            self._collectors.pop(prefix, None)

    # ------------------------------------------------------------------
    # Reading and resetting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Every instrument's current value, flat, keyed by name.

        Safe to call from any thread: the instrument dicts are copied
        under the registry lock (so the engine creating a new instrument
        mid-snapshot cannot break iteration), then read without it.
        """
        with self._lock:
            counters = list(self._counters.items())
            histograms = list(self._histograms.items())
            collectors = list(self._collectors.items())
        out: dict[str, Any] = {name: counter.value for name, counter in counters}
        for name, histogram in histograms:
            out[name] = histogram.summary()
        for prefix, (collect, _reset) in collectors:
            for key, value in collect().items():
                out[f"{prefix}.{key}"] = value
        return out

    def counters(self) -> dict[str, int]:
        with self._lock:
            items = list(self._counters.items())
        return {name: c.value for name, c in items}

    def reset(self) -> None:
        """Zero every instrument (benchmark/test setup)."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors.values())
        for counter in counters:
            counter.reset()
        for histogram in histograms:
            histogram.reset()
        for _collect, reset in collectors:
            if reset is not None:
                reset()


#: The process-wide registry.  Like ``pipeline_stats`` before it, one
#: shared instance: both ``repro.core`` and ``repro.oodb`` feed it.
metrics = MetricsRegistry()


# ----------------------------------------------------------------------
# PipelineStats — the PR-1 fast-path counters
# ----------------------------------------------------------------------
@dataclass(slots=True)
class PipelineStats:
    """Process-wide counters for the optimized hot paths.

    Hot paths bump attributes directly (one integer add; no indirection)
    rather than going through :class:`Counter` objects — the registry
    reads them through a collector instead.
    """

    #: consumer-snapshot cache on Reactive instances
    consumer_cache_hits: int = 0
    consumer_cache_misses: int = 0
    consumer_cache_invalidations: int = 0
    #: serializer: objects whose attributes were all plain scalars
    serializer_fast_objects: int = 0
    serializer_slow_objects: int = 0
    #: serializer: decoded records whose stored attributes were all scalars
    serializer_fast_decodes: int = 0
    serializer_slow_decodes: int = 0
    #: WAL group commit
    group_commits: int = 0
    group_commit_records: int = 0
    wal_syncs: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The process-wide instance.
pipeline_stats = PipelineStats()

metrics.register_collector(
    "pipeline", pipeline_stats.snapshot, pipeline_stats.reset
)


def reset_pipeline_stats() -> PipelineStats:
    """Zero every counter (benchmark/test setup) and return the instance."""
    pipeline_stats.reset()
    return pipeline_stats
