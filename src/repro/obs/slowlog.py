"""Threshold-driven slow-operation log: the outliers, durably, as JSONL.

Metrics say *how slow on average*; the tracer says *why*, but only for
chains you sampled while it was on.  The slow-op log captures the tail
the moment it happens: any query, rule body, WAL fsync, or transaction
that overruns its threshold is appended — with enough context to
reproduce it — to a size-rotated JSONL file.  One entry per line::

    {"ts": 1754380800.123, "kind": "query", "duration_us": 84210.0,
     "threshold_us": 50000.0, "class": "Emp", "access_path": "extent_scan",
     "rows": 4021, "plan": {...analyzed plan with actuals...}}

Entry kinds and their context:

``query``   class, access path, rows returned, and the full analyzed
            plan (estimates next to actuals — see ``Query.explain``).
            While the log is open, query executions (``count()`` and
            ``exists()`` row fallbacks included) run with stage timing
            on so the plan evidence exists to attach.
``rule``    rule name, phase (``condition``/``action``), occurrence
            seq, coupling.
``fsync``   WAL path and the fsync latency.
``txn``     transaction id, change count, final status.

Thresholds live on the singleton (``slow_query_us`` etc.) and are set
through :meth:`Sentinel.enable_slow_log`.  Every recorded breach also
bumps ``slow_ops_total{kind=...}`` and — when a :class:`SystemMonitor`
is attached — emits a sysmon signal (``query_slow``, ``rule_slow``,
``txn_long``; slow fsyncs already emit ``wal_fsync_slow``), so rules
can react to slowness the way they react to errors.

Like the audit log, the slow-op log is opt-in and its call sites are
one-flag guarded (``if _slowlog.enabled:``); closed, it costs an
attribute load.  The file itself is the audit log's writer
(:class:`repro.obs.audit.RotatingJsonlLog`): the same rotation, and the
same mutex, so any thread may record a breach — the WAL syncer, rule
workers and server threads all do.  The audit-log readers
(:func:`repro.obs.audit.read_entries` /
:func:`repro.obs.audit.tail_entries`) work on slow-op files unchanged.
"""

from __future__ import annotations

import time
from typing import Any

from .audit import RotatingJsonlLog
from .metrics import metrics
from .signals import engine_signals

__all__ = ["SlowOpLog", "slow_op_log", "SLOW_OP_KINDS"]

#: The operation kinds a breach can be recorded under.
SLOW_OP_KINDS = ("query", "rule", "fsync", "txn")

#: Default thresholds, generous enough that an idle system logs nothing.
DEFAULT_THRESHOLDS = {
    "slow_query_us": 50_000.0,   # 50 ms
    "slow_rule_us": 10_000.0,    # 10 ms per condition/action body
    "slow_fsync_us": 20_000.0,   # 20 ms per WAL fsync
    "long_txn_us": 1_000_000.0,  # 1 s begin→commit/abort
}


class SlowOpLog(RotatingJsonlLog):
    """Append-only, size-rotated JSONL log of threshold breaches."""

    __slots__ = ("slow_query_us", "slow_rule_us", "slow_fsync_us",
                 "long_txn_us")

    def __init__(self) -> None:
        super().__init__()
        self.reset_thresholds()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(
        self,
        path: str,
        max_bytes: int = 1 << 20,
        keep: int = 3,
        **thresholds: float,
    ) -> "SlowOpLog":
        """Start logging breaches to ``path`` (appends if it exists).

        Keyword thresholds (``slow_query_us``, ``slow_rule_us``,
        ``slow_fsync_us``, ``long_txn_us``) override the defaults.
        """
        self.configure(**thresholds)
        super().open(path, max_bytes, keep)
        return self

    def configure(self, **thresholds: float) -> "SlowOpLog":
        """Set thresholds by keyword; unknown names raise."""
        for name, value in thresholds.items():
            if name not in DEFAULT_THRESHOLDS:
                raise ValueError(
                    f"unknown slow-op threshold {name!r}; expected one of "
                    f"{sorted(DEFAULT_THRESHOLDS)}"
                )
            setattr(self, name, float(value))
        return self

    def reset_thresholds(self) -> None:
        for name, value in DEFAULT_THRESHOLDS.items():
            setattr(self, name, value)

    # ------------------------------------------------------------------
    # Writing (any thread; call sites guard on ``enabled``)
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        duration_us: float,
        threshold_us: float,
        signal: str | None = None,
        signal_payload: dict[str, Any] | None = None,
        **context: Any,
    ) -> None:
        """Append one breach entry; optionally raise it as a sysmon signal."""
        written = self.append(
            {
                "ts": round(time.time(), 3),
                "kind": kind,
                "duration_us": round(duration_us, 1),
                "threshold_us": round(threshold_us, 1),
                **context,
            }
        )
        if not written:
            return
        metrics.counter(f"slow_ops_total{{kind={kind}}}").inc()
        if signal is not None and engine_signals.active:
            engine_signals.emit(signal, **(signal_payload or {}))


#: The process-wide slow-op log.  Engine modules bind this to a local
#: (``from ..obs.slowlog import slow_op_log as _slowlog``) and guard
#: call sites with ``if _slowlog.enabled:``.
slow_op_log = SlowOpLog()
