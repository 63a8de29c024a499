"""Durable audit trail: every rule firing, append-only, as JSONL.

Traces are sampled and ring-buffered; metrics are aggregates.  Neither
answers "what did rule X actually do at 14:02?".  The audit log does: the
scheduler appends one JSON object per rule execution — fired, rejected by
its condition, errored, or aborted by its own transaction — regardless of
trace sampling, to a size-rotated file that survives the process.

One entry per line::

    {"ts": 1754380800.123, "rule": "audit_salary", "seq": 42,
     "coupling": "immediate", "condition": true, "outcome": "fired",
     "error": null, "latency_us": 18.4}

``outcome`` is one of :data:`OUTCOMES`; ``error`` carries the exception
repr for ``error`` outcomes and the abort reason for ``aborted`` ones.

Rotation is by size: when an append pushes the file past ``max_bytes``
the file is renamed to ``<path>.1`` (existing ``.1`` → ``.2``, …) and a
fresh file is started; at most ``keep`` rotated generations are retained.
Entries are flushed per append (the log is crash-readable up to the last
line), not fsynced (that budget belongs to the WAL).

Like the other hot-path observability hooks, the scheduler guards its
call site with one flag load (``if _audit.enabled:``); an unopened log
costs nothing.  Appends are serialized by an internal mutex, so rule
workers audit from any thread; entries written off the main thread carry
a ``thread`` field naming the worker that ran the rule.

``python -m repro.tools.audit`` queries the log (filters, tail, summary).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import IO, Any, Iterator

__all__ = [
    "AuditLog",
    "RotatingJsonlLog",
    "audit_log",
    "OUTCOMES",
    "read_entries",
    "tail_entries",
]

#: The verdicts a rule execution can audit as.
OUTCOMES = ("fired", "rejected", "error", "aborted")


class RotatingJsonlLog:
    """Append-only, size-rotated JSONL file, safe for concurrent writers.

    The writer both durable logs share: :class:`AuditLog` here and
    :class:`~repro.obs.slowlog.SlowOpLog` add only their entry shapes.
    Appends, rotation and close serialize on one mutex.
    """

    __slots__ = ("enabled", "path", "max_bytes", "keep", "_handle", "_size",
                 "_lock")

    def __init__(self) -> None:
        self.enabled = False
        self.path: str | None = None
        self.max_bytes = 1 << 20
        self.keep = 3
        self._handle: IO[str] | None = None
        self._size = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(
        self, path: str, max_bytes: int = 1 << 20, keep: int = 3
    ) -> "RotatingJsonlLog":
        """Start writing to ``path`` (appends if it already exists)."""
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.close()
        with self._lock:
            self.path = path
            self.max_bytes = max_bytes
            self.keep = keep
            self._handle = open(path, "a", encoding="utf-8")
            self._size = self._handle.tell()
            self.enabled = True
        return self

    def close(self) -> None:
        self.enabled = False
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # ------------------------------------------------------------------
    # Writing (any thread; appends serialize on the mutex)
    # ------------------------------------------------------------------
    def append(self, entry: dict[str, Any]) -> bool:
        """Write ``entry`` as one line; False when the log is closed."""
        line = json.dumps(entry, default=str)
        with self._lock:
            handle = self._handle
            if handle is None:
                return False
            handle.write(line)
            handle.write("\n")
            handle.flush()
            self._size += len(line) + 1
            if self._size >= self.max_bytes:
                self._rotate()
        return True

    def _rotate(self) -> None:
        assert self.path is not None and self._handle is not None
        self._handle.close()
        oldest = f"{self.path}.{self.keep}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for i in range(self.keep - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0


class AuditLog(RotatingJsonlLog):
    """Append-only, size-rotated JSONL log of rule firings."""

    __slots__ = ()

    def record(
        self,
        rule: str,
        seq: int,
        coupling: str,
        condition: bool,
        outcome: str,
        error: str | None = None,
        latency_us: float = 0.0,
    ) -> None:
        """Append one firing entry (call sites guard on :attr:`enabled`)."""
        entry = {
            "ts": round(time.time(), 3),
            "rule": rule,
            "seq": seq,
            "coupling": coupling,
            "condition": condition,
            "outcome": outcome,
            "error": error,
            "latency_us": round(latency_us, 1),
        }
        current = threading.current_thread()
        if current is not threading.main_thread():
            entry["thread"] = current.name
        self.append(entry)


def read_entries(
    path: str, include_rotated: bool = True
) -> Iterator[dict[str, Any]]:
    """Yield audit entries oldest-first, rotated generations included.

    Unparseable lines (a torn final line after a crash) are skipped.
    """
    paths: list[str] = []
    if include_rotated:
        generation = 1
        rotated = []
        while os.path.exists(f"{path}.{generation}"):
            rotated.append(f"{path}.{generation}")
            generation += 1
        paths.extend(reversed(rotated))
    if os.path.exists(path):
        paths.append(path)
    for name in paths:
        with open(name, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue


def tail_entries(
    path: str, count: int, include_rotated: bool = True
) -> list[dict[str, Any]]:
    """The last ``count`` entries, oldest-first, spanning rotations.

    Walks generations newest-first (``path``, then ``.1``, ``.2``, …)
    and stops as soon as enough entries are collected, so a short tail
    over a heavily-rotated log reads only the files it needs.
    """
    if count <= 0:
        return []
    paths = [path] if os.path.exists(path) else []
    if include_rotated:
        generation = 1
        while os.path.exists(f"{path}.{generation}"):
            paths.append(f"{path}.{generation}")
            generation += 1
    collected: list[dict[str, Any]] = []
    for name in paths:  # newest generation first
        entries: list[dict[str, Any]] = []
        with open(name, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    continue
        # Prepend this (older) generation's contribution.
        needed = count - len(collected)
        collected = entries[-needed:] + collected
        if len(collected) >= count:
            break
    return collected


#: The process-wide audit log; the scheduler binds this to a local and
#: branches on ``_audit.enabled``.
audit_log = AuditLog()
