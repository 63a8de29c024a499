"""Per-layer spans, recorded from outside the engine.

The engine is not edited: :func:`install` wraps the entry point of each
layer (listed in :data:`TARGETS`) with a timing shim.  Spans live in
memory as tuples ``(request, layer, parent_layer, start, end,
self_time)`` and are written out only when the benchmark asks.  A span's self time is its duration minus the time
its nested spans on the same thread cover, computed as spans close.

Every span of one request shares the request id: the server's dispatch
(or the in-process harness, once per transaction) opens a request, and
work handed to the decoupled worker pool carries the id of the request
that submitted it.

In the rule server the module is activated by ``bankapp`` when
``PERFBENCH_TRACE_OUT`` names an output file; the benchmark then sends
``SIGUSR1`` to start recording (acknowledged by ``<file>.on``) and
``SIGUSR2`` to stop and write the file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "TARGETS", "Recorder", "install", "install_server_tracing"]


#: (layer, module, class, method) of every wrapped entry point.  The
#: server's is ``RuleServer._dispatch``: its request handler class is
#: local to ``RuleServer.__init__``, and every request passes here.
TARGETS = [
    ("server", "repro.server.server", "RuleServer", "_dispatch"),
    ("oodb.versions", "repro.oodb.database", "Snapshot", "record"),
    ("oodb.query", "repro.oodb.query", "Query", "all"),
    ("oodb.query", "repro.oodb.query", "Query", "count"),
    ("oodb.locks", "repro.oodb.locks", "LockManager", "acquire"),
    ("oodb.txn", "repro.oodb.transactions", "TransactionManager", "commit"),
    ("oodb.codec", "repro.oodb.serializer", "Serializer", "encode_packed_payload"),
    ("oodb.wal", "repro.oodb.storage.wal", "WriteAheadLog", "log_transaction"),
    ("core.events.notify", "repro.core.reactive", "Reactive", "notify_consumers"),
    ("core.events.detector", "repro.core.events.detector", "EventDetector", "feed"),
    ("core.rules", "repro.core.rules", "Rule", "fire"),
]

#: The traced layers, in report order.
LAYERS = list(dict.fromkeys(layer for layer, *_rest in TARGETS))


class Recorder:
    """In-memory span store plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.recording = False
        self.spans: list[tuple[int, str, str, float, float, float]] = []
        #: Decoupled jobs: (request, submitted, started).
        self.jobs: list[tuple[int, float, float]] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()

    # -- request ids ---------------------------------------------------
    def new_request(self) -> int:
        request = next(self._ids)
        self._local.request = request
        return request

    def current_request(self) -> int:
        return getattr(self._local, "request", 0)

    def bump(self, name: str, n: int = 1) -> None:
        if self.recording:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + n

    # -- spans ---------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        opens_request: bool = False,
        rows: "Callable[[Any], int] | None" = None,
    ) -> Any:
        """``fn`` timed as a span of ``layer``; ``rows(result)``, when
        given, is added to the ``<layer>.rows`` count."""
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            if opens_request:
                self.new_request()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent = ""
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append(
                    (
                        getattr(local, "request", 0),
                        layer,
                        parent,
                        start,
                        end,
                        duration - frame[1],
                    )
                )
            if rows is not None:
                self.bump(layer + ".rows", rows(result))
            return result

        return shim

    def wrap_submit(self, submit: Callable[..., Any]) -> Any:
        """Carry the request id and the submit time into pool jobs."""
        local = self._local
        jobs = self.jobs

        @functools.wraps(submit)
        def shim(pool: Any, job: Callable[[], None], label: str = "") -> bool:
            if not self.recording:
                return submit(pool, job, label)
            request = getattr(local, "request", 0)
            submitted = perf_counter()

            def traced_job() -> None:
                jobs.append((request, submitted, perf_counter()))
                local.request = request
                job()

            accepted = submit(pool, traced_job, label)
            if accepted:
                self.bump("jobs_submitted")
            return accepted

        return shim

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)

    def export(self) -> dict[str, Any]:
        return {
            "spans": list(self.spans),
            "jobs": list(self.jobs),
            "counts": dict(self.counts),
        }


def _row_count(result: Any) -> int:
    """Rows a query returned: ``Query.all`` gives a list, ``count`` an int."""
    return len(result) if isinstance(result, list) else int(result)


def install(recorder: Recorder, server_requests: bool) -> None:
    """Wrap every layer entry point; ``server_requests`` makes the
    server's dispatch open a new request per call."""
    from http.server import ThreadingHTTPServer

    from repro.core.workers import RuleWorkerPool

    for layer, module, class_name, name in TARGETS:
        cls = getattr(importlib.import_module(module), class_name)
        opens = server_requests and layer == "server"
        rows = _row_count if layer == "oodb.query" else None
        setattr(cls, name, recorder.wrap(layer, getattr(cls, name), opens, rows))
    RuleWorkerPool.submit = recorder.wrap_submit(RuleWorkerPool.submit)

    accept = ThreadingHTTPServer.process_request

    def process_request(server: Any, request: Any, client_address: Any) -> Any:
        recorder.bump("connections")
        return accept(server, request, client_address)

    ThreadingHTTPServer.process_request = process_request


def install_server_tracing(out_path: str) -> Recorder:
    """Server-process tracing, driven by SIGUSR1 (start) / SIGUSR2 (dump).

    Must run before the server starts its threads: both signals are
    blocked here, every later thread inherits the mask, and one watcher
    thread takes them with ``sigwait``.  A Python-level handler would run
    only in the main thread, which ``tools.serve`` parks in a long sleep
    that a signal delivered to another thread does not interrupt.
    """
    import os
    import signal

    recorder = Recorder()
    install(recorder, server_requests=True)
    controls = {signal.SIGUSR1, signal.SIGUSR2}
    signal.pthread_sigmask(signal.SIG_BLOCK, controls)

    def watch() -> None:
        while True:
            if signal.sigwait(controls) == signal.SIGUSR1:
                recorder.recording = True
                with open(out_path + ".on", "w"):
                    pass  # tells the benchmark that recording has begun
                continue
            recorder.recording = False
            tmp = out_path + ".tmp"
            recorder.dump(tmp)
            os.replace(tmp, out_path)

    threading.Thread(target=watch, name="perfbench-trace", daemon=True).start()
    return recorder
