"""``repro.obs`` — observability for the event→rule pipeline and the OODB.

The passive half is deliberately free of imports from ``repro.core`` and
``repro.oodb`` (they feed *into* this package, never the reverse):

* :mod:`repro.obs.metrics` — a process-wide registry of named counters
  and latency histograms (p50/p95/p99).  The PR-1 fast-path counters
  (``PipelineStats``) live here too.
* :mod:`repro.obs.tracer` — a causality tracer: lightweight spans linking
  method invocation → bom/eom occurrence → detector evaluation → rule
  condition → action (and, on the OODB side, transaction commits and WAL
  writes), recorded into a bounded ring buffer with JSONL export; an
  ``enable(sample=N)`` knob records one chain in every N.
* :mod:`repro.obs.signals` — the dependency-free hub engine layers emit
  health signals into.
* :mod:`repro.obs.audit` — the durable, size-rotated JSONL audit trail
  of rule firings (queried by ``python -m repro.tools.audit``), and the
  rotating JSONL writer it shares with the slow-op log.
* :mod:`repro.obs.slowlog` — the threshold-driven slow-operation log:
  slow queries (with their analyzed plans), slow rule bodies, slow WAL
  fsyncs, and long transactions, as rotated JSONL.
* :mod:`repro.obs.flight` — the always-on flight recorder: a bounded
  ring of the last N transactions/queries/firings/errors, snapshotted
  automatically when something goes wrong (``python -m
  repro.tools.doctor`` bundles it).
* :mod:`repro.obs.slo` — declarative service-level objectives with
  multi-window burn-rate thresholds, evaluated over telemetry history.
* :mod:`repro.obs.tsdb` — continuous telemetry: a background collector
  scraping the registry into a crash-safe on-disk time-series store
  (append-only delta-encoded segments, size/age retention, range/rate
  read API; ``python -m repro.tools.tsdb`` inspects it), raising SLO
  breaches as ``slo_breach`` sysmon events.

The operational half builds *on top of* the engine and is therefore
imported lazily (``repro.obs.sysmon`` needs ``repro.core``, which itself
imports the tracer — an eager import here would be a cycle):

* :mod:`repro.obs.sysmon` — the ``SystemMonitor`` reactive object that
  turns engine signals into first-class events for ECA rules.
* :mod:`repro.obs.exporter` — OpenMetrics/``/healthz``/``/vars`` HTTP
  exporter on a background thread.

Instrumented code checks one flag (``tracer.enabled``, ``signals.active``,
``audit_log.enabled``) and takes a single guarded branch; with everything
off the hot paths pay an attribute load per instrumented function.
``benchmarks/test_bench_obs.py`` holds that cost to ≤5% of the committed
per-event overhead baseline, and holds 1-in-16 sampled tracing to ≤1.5×
the disabled-mode figure.
"""

from .audit import AuditLog, audit_log
from .flight import FlightRecorder, flight_recorder
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    PipelineStats,
    metrics,
    pipeline_stats,
    reset_pipeline_stats,
)
from .signals import SIGNAL_KINDS, EngineSignals, engine_signals
from .slo import DEFAULT_BURN_WINDOWS, SLO, SLOStatus, Window, evaluate_slo
from .slowlog import SlowOpLog, slow_op_log
from .tracer import CausalityTracer, Span, tracer
from .tsdb import (
    Telemetry,
    TelemetryCollector,
    TimeSeriesStore,
    flatten_snapshot,
    telemetry,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "PipelineStats",
    "pipeline_stats",
    "reset_pipeline_stats",
    "CausalityTracer",
    "Span",
    "tracer",
    "AuditLog",
    "audit_log",
    "EngineSignals",
    "engine_signals",
    "SIGNAL_KINDS",
    "SlowOpLog",
    "slow_op_log",
    "FlightRecorder",
    "flight_recorder",
    "SLO",
    "SLOStatus",
    "Window",
    "evaluate_slo",
    "DEFAULT_BURN_WINDOWS",
    "TimeSeriesStore",
    "TelemetryCollector",
    "Telemetry",
    "telemetry",
    "flatten_snapshot",
    # lazy (see __getattr__):
    "SystemMonitor",
    "occurrence_from_sysmon",
    "ObservabilityServer",
    "render_openmetrics",
]

_LAZY = {
    "SystemMonitor": "sysmon",
    "occurrence_from_sysmon": "sysmon",
    "ObservabilityServer": "exporter",
    "render_openmetrics": "exporter",
    "build_checks": "exporter",
    "run_checks": "exporter",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module_name}", __name__), name)
