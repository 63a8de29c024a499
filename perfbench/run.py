#!/usr/bin/env python3
"""End-to-end benchmark of the Sentinel rule server and embedded rules.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --smoke                 # self-test, a few seconds each

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice, untraced then traced, and reports
the per-layer metrics (see README.md).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a human-readable report with the workload's own
metrics, the failure breakdown and the host fingerprint.

The preloaded store is generated once into ``.bench_build/perfbench``
(not timed, not counted in ``setup_s``); every run works on a fresh copy.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import harness
import layertrace
import store

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve_read", "serve_query", "serve_write", "embed_rules")
#: The operation whose latency is ``op_p50_us`` / ``op_p99_us`` per workload.
PRIMARY = {
    "serve_read": "read",
    "serve_query": "sweep",
    "serve_write": "write",
    "embed_rules": "txn",
}
#: Server launches (or in-process opens) per run; ``setup_s`` is their median.
SETUP_TRIALS = 3
WARMUP_S = 1.0
#: CPU per operation, throughput and latency are medians over windows of
#: this length ...
WINDOW_S = 1.0
#: ... when every window can hold at least this many operations.
WINDOW_MIN_OPS = 200

END_TO_END = {
    "setup_s": "s",
    "user_cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "server.handle_us": "us",
    "server.transport_us": "us",
    "server.connections_per_request": "count",
    "oodb.versions.record_us": "us",
    "oodb.buffer.hit_rate": "ratio",
    "oodb.buffer.misses_per_op": "count",
    "oodb.query.exec_us": "us",
    "oodb.query.rows_examined_per_returned": "ratio",
    "oodb.query.index_share": "ratio",
    "oodb.locks.acquires_per_txn": "count",
    "oodb.locks.wait_us": "us",
    "oodb.txn.commit_us": "us",
    "oodb.txn.retries_per_txn": "ratio",
    "oodb.codec.encode_us": "us",
    "oodb.wal.append_us": "us",
    "oodb.wal.bytes_per_txn": "B",
    "oodb.wal.txns_per_fsync": "ratio",
    "core.events.notify_us": "us",
    "core.events.detector_feed_us": "us",
    "core.rules.fire_us": "us",
    "core.scheduler.firings_per_txn": "count",
    "core.workers.queue_wait_ms": "ms",
    "core.workers.inline_fallback_share": "ratio",
    "core.workers.retries_per_job": "ratio",
    "trace.overhead_share": "ratio",
}
# Self time of every traced layer, per operation.
for _layer in layertrace.LAYERS:
    PER_LAYER[f"{_layer}.self_us_per_op"] = "us"


@dataclass
class Phase:
    """One measured window of one workload."""

    results: list = field(default_factory=list)
    elapsed: float = 0.0
    #: (wall s, engine CPU s) of each set-up trial.
    setups: list = field(default_factory=list)
    #: CPU seconds of the load generator over the measured window.
    client_cpu_s: float = 0.0
    #: (time, engine user CPU s, engine system CPU s), every WINDOW_S.
    cpu_samples: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    ledger: Any = None
    disk_bytes: int = 0
    lags: list = field(default_factory=list)
    scrape_before: dict = field(default_factory=dict)
    scrape_after: dict = field(default_factory=dict)
    wal_bytes: int = 0
    trace: "dict | None" = None


class Bench:
    def __init__(
        self, seed: int, seconds: float, warmup: float = WARMUP_S, trials: int = SETUP_TRIALS
    ) -> None:

        self.seed = seed
        self.seconds = seconds
        self.warmup = warmup
        self.trials = trials
        self.cache = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(self.cache, exist_ok=True)
        self.pristine, self.oracle = store.ensure(self.cache)
        self.run_dir = os.path.join(self.cache, f"run-{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def fresh_store(self) -> str:

        return store.fresh_copy(self.pristine, os.path.join(self.run_dir, "store"))

    def rng(self, *tags: object) -> random.Random:
        return random.Random("/".join(str(t) for t in (self.seed,) + tags))

    # ------------------------------------------------------------------
    def server_phase(
        self, workload: str, trials: int, trace_out: "str | None", name: str
    ) -> Phase:
        from repro.server import RuleClient

        phase = Phase(ledger=harness.Ledger())
        path = self.fresh_store()
        for _ in range(trials - 1):
            probe = harness.Server(ROOT, path, self.run_dir)
            phase.setups.append((probe.setup_wall_s, probe.setup_cpu_s))
            probe.stop(kill=True)
        server = harness.Server(ROOT, path, self.run_dir, trace_out)
        phase.setups.append((server.setup_wall_s, server.setup_cpu_s))
        refs = itertools.count(1)
        clients = harness.CLIENTS[workload]
        timeout = 120.0 if workload == "serve_query" else 30.0

        def make_ops(tag: str):
            def ops(i: int):
                return harness.server_ops(
                    workload, self.oracle, self.rng(name, tag, i), phase.ledger, refs
                )
            return ops

        client = lambda: RuleClient(server.url, timeout=timeout)  # noqa: E731
        wal = os.path.join(path, "wal.log")
        try:
            harness.closed_loop(clients, self.warmup, client, make_ops("warm"), phase.errors)
            phase.scrape_before = server.scrape()
            wal_start = os.path.getsize(wal)
            if trace_out:
                server.signal(signal.SIGUSR1)
                _await_file(trace_out + ".on")
            client_cpu = sum(harness.own_cpu_times())
            sampler = harness.CpuSampler(server.cpu_times, WINDOW_S)
            phase.results, phase.elapsed = harness.closed_loop(
                clients, self.seconds, client, make_ops("run"), phase.errors
            )
            phase.cpu_samples = sampler.stop()
            phase.client_cpu_s = sum(harness.own_cpu_times()) - client_cpu
            if trace_out:
                server.signal(signal.SIGUSR2)
                _await_file(trace_out)
                with open(trace_out) as handle:
                    phase.trace = json.load(handle)
            phase.wal_bytes = os.path.getsize(wal) - wal_start
            phase.scrape_after = server.scrape()
            phase.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop(kill=workload == "serve_write")
        if workload == "serve_write":
            phase.disk_bytes = store.dir_bytes(path) - store.dir_bytes(self.pristine)
            phase.problems += self.reopen_and_check(path, phase.ledger)
        return phase

    def reopen_and_check(self, path: str, ledger: Any) -> list:
        """After SIGKILL: every acknowledged deposit must be durable."""
        import bankapp  # noqa: F401 - registers the classes to decode
        from repro.oodb import Database

        db = Database(path)
        try:
            return harness.check_store(db.fetch, self.oracle, ledger, drained=False)
        finally:
            db.close()

    # ------------------------------------------------------------------
    def embed_phases(self, trace: bool) -> "tuple[Phase, Phase | None]":
        """The untraced phase, and with ``trace`` a traced one after it."""
        from repro.obs.exporter import render_openmetrics
        from repro.obs.metrics import metrics

        path = self.fresh_store()
        setups = []
        trials = 1 if trace else self.trials
        for trial in range(trials):
            engine = harness.Embedded(path)
            setups.append((engine.setup_wall_s, engine.setup_cpu_s))
            if trial + 1 < trials:
                engine.close()
                del engine
                gc.collect()
        ledger = harness.Ledger()
        refs = itertools.count(1)
        committed: dict = {}
        recorder = layertrace.Recorder()
        scrape = lambda: harness.parse_openmetrics(render_openmetrics(metrics.snapshot()))  # noqa: E731
        wal = os.path.join(path, "wal.log")

        def run(tag: str, seconds: float, traced: bool) -> Phase:
            phase = Phase(ledger=ledger, setups=setups)
            ops = engine.ops(self.oracle, self.rng("embed", tag), ledger, refs, committed,
                             recorder.new_request if traced else None)
            phase.scrape_before = scrape()
            wal_start = os.path.getsize(wal)
            recorder.recording = traced
            sampler = harness.CpuSampler(harness.own_cpu_times, WINDOW_S)
            phase.results, phase.elapsed = harness.closed_loop(
                1, seconds, lambda: None, lambda _i: ops, phase.errors
            )
            phase.cpu_samples = sampler.stop()
            recorder.recording = False
            phase.wal_bytes = os.path.getsize(wal) - wal_start
            phase.scrape_after = scrape()
            return phase

        traced_phase = None
        try:
            run("warm", self.warmup, False)
            measured = run("run", self.seconds, False)
            window = (
                min((r.start for r in measured.results), default=0.0),
                max((r.start + r.latency for r in measured.results), default=0.0),
            )
            if trace:
                layertrace.install(recorder, server_requests=False)
                traced_phase = run("traced", self.seconds, True)
                traced_phase.trace = recorder.export()
            if not engine.sentinel.drain_decoupled(timeout=60):
                measured.problems.append("decoupled rules did not drain within 60 s")
            measured.problems += engine.check(self.oracle, ledger, drained=True)
            measured.lags = [
                engine.finished[ref] - done
                for ref, done in committed.items()
                if window[0] <= done <= window[1] and ref in engine.finished
            ]
            measured.peak_rss_mb = harness.peak_rss_mb()
            # Before close: its checkpoint truncates the log.
            measured.disk_bytes = store.dir_bytes(path) - store.dir_bytes(self.pristine)
        finally:
            engine.close()
        return measured, traced_phase


def _await_file(path: str, timeout: float = 60.0) -> None:
    """Wait until the traced server has written ``path``."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"the traced server did not write {path}")
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _pct(values: list, q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ok(phase: Phase, kind: "str | None" = None) -> list:
    return [r for r in phase.results if r.failure is None and (kind is None or r.kind == kind)]


def windows(phase: Phase) -> "list[list]":
    """The measured results split into :data:`WINDOW_S` windows by
    completion time; a single window when there are too few results for
    each window to hold :data:`WINDOW_MIN_OPS`."""
    if not phase.results:
        return []
    start = min(r.start for r in phase.results)
    count = min(int(phase.elapsed / WINDOW_S), len(phase.results) // WINDOW_MIN_OPS)
    if count <= 1:
        return [phase.results]
    out: list = [[] for _ in range(count)]
    for r in phase.results:
        out[min(int((r.start + r.latency - start) / WINDOW_S), count - 1)].append(r)
    return out


def end_to_end(phase: Phase) -> dict:
    """The bounded metrics: CPU-based, because wall-clock times on a
    shared VM drift with the other tenants' load (see README.md)."""
    return {
        "setup_s": statistics.median(cpu for _wall, cpu in phase.setups),
        "user_cpu_us_per_op": cpu_per_op(phase) * 1e6,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def windowed(workload: str, phase: Phase) -> dict:
    """Wall-clock throughput and primary-operation latency: medians over
    the windows of each window's value, so a burst of host noise moves a
    few windows, not the median."""
    parts = windows(phase)
    rates, p50, p99 = [], [], []
    for i, part in enumerate(parts):
        if len(parts) == 1:
            span = phase.elapsed
        elif i == len(parts) - 1:
            span = phase.elapsed - WINDOW_S * i
        else:
            span = WINDOW_S
        rates.append(len(part) / span)
        primary = [r.latency for r in part if r.failure is None and r.kind == PRIMARY[workload]]
        if primary:
            p50.append(_pct(primary, 0.50) * 1e6)
            p99.append(_pct(primary, 0.99) * 1e6)
    return {
        "ops_per_s": (statistics.median(rates) if rates else 0.0, "ops/s"),
        "op_p50_us": (statistics.median(p50) if p50 else 0.0, "us"),
        "op_p99_us": (statistics.median(p99) if p99 else 0.0, "us"),
    }


def cpu_per_op(phase: Phase, field: int = 1) -> float:
    """Engine CPU seconds per completed operation: user (``field=1``) or
    system (``field=2``) time.  The median over the sampling intervals
    when each holds :data:`WINDOW_MIN_OPS` operations on average, else
    the whole window."""
    ends = sorted(r.start + r.latency for r in phase.results)
    samples = phase.cpu_samples
    if not ends or len(samples) < 2:
        return 0.0
    if len(ends) >= WINDOW_MIN_OPS * (len(samples) - 1):
        shares = []
        for a, b in zip(samples, samples[1:]):
            done = bisect.bisect_left(ends, b[0]) - bisect.bisect_left(ends, a[0])
            if done:
                shares.append((b[field] - a[field]) / done)
        if shares:
            return statistics.median(shares)
    return (samples[-1][field] - samples[0][field]) / len(ends)


def workload_report(workload: str, phase: Phase) -> dict:
    """The workload's own metrics by name, as listed in README.md."""
    report: dict = windowed(workload, phase)
    reads = [r.latency for r in _ok(phase, "read")]
    writes = [r.latency for r in _ok(phase, PRIMARY[workload])] if workload in ("serve_write", "embed_rules") else []
    parts = [lat for r in _ok(phase, "sweep") for _kind, lat in r.parts]
    if reads:
        report["read_p50_us"] = (_pct(reads, 0.5) * 1e6, "us")
        report["read_p99_us"] = (_pct(reads, 0.99) * 1e6, "us")
    if writes:
        report["write_p50_us"] = (_pct(writes, 0.5) * 1e6, "us")
        report["write_p99_us"] = (_pct(writes, 0.99) * 1e6, "us")
    if parts:
        report["query_p50_us"] = (_pct(parts, 0.5) * 1e6, "us")
        report["query_p90_us"] = (_pct(parts, 0.9) * 1e6, "us")
    if phase.lags:
        report["decoupled_lag_p50_ms"] = (_pct(phase.lags, 0.5) * 1e3, "ms")
        report["decoupled_lag_p99_ms"] = (_pct(phase.lags, 0.99) * 1e3, "ms")
    attempted = len(phase.results)
    failed = sum(1 for r in phase.results if r.failure)
    report["failed_share"] = (failed / attempted if attempted else 0.0, "ratio")
    if phase.ledger is not None and phase.ledger.writes() and phase.disk_bytes:
        report["disk_bytes_per_write"] = (phase.disk_bytes / phase.ledger.writes(), "B")
    report["peak_rss_mb"] = (phase.peak_rss_mb, "MB")
    report["setup_wall_s"] = (statistics.median(wall for wall, _cpu in phase.setups), "s")
    report["setup_cpu_s"] = (statistics.median(cpu for _wall, cpu in phase.setups), "s")
    report["engine_user_cpu_us_per_op"] = (cpu_per_op(phase, 1) * 1e6, "us")
    report["engine_sys_cpu_us_per_op"] = (cpu_per_op(phase, 2) * 1e6, "us")
    if phase.client_cpu_s:
        report["client_cpu_us_per_op"] = (phase.client_cpu_s / attempted * 1e6, "us")
    return report


def per_layer(workload: str, phase: Phase, untraced: Phase) -> dict:
    """Per-layer metrics of a traced phase (README.md defines each)."""
    trace = phase.trace or {"spans": [], "jobs": [], "counts": {}}
    spans, jobs, counts = trace["spans"], trace["jobs"], trace["counts"]
    n: dict = {}
    incl: dict = {}
    own: dict = {}
    for _req, layer, _parent, start, end, self_time in spans:
        n[layer] = n.get(layer, 0) + 1
        incl[layer] = incl.get(layer, 0.0) + (end - start)
        own[layer] = own.get(layer, 0.0) + self_time
    before, after = phase.scrape_before, phase.scrape_after

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean_us(layer: str) -> float:
        return ratio(incl.get(layer, 0.0), n.get(layer, 0)) * 1e6

    ops = len(phase.results)
    commits = n.get("oodb.txn", 0)

    writes = len(_ok(phase, "write")) + len(_ok(phase, "txn")) * harness.DEPOSITS_PER_TXN
    requests = sum(max(1, len(r.parts)) for r in phase.results)
    client_mean = ratio(sum(r.latency for r in phase.results), requests)
    handle_us = ratio(delta("server_request_us_sum"), delta("server_request_us_count"))
    examined = sum(1 for s in spans if s[1] == "oodb.versions" and s[2] == "oodb.query")
    hits, misses = delta("buffer_pool_hits_total"), delta("buffer_pool_misses_total")
    executions = {
        name: delta(name) for name in after if name.startswith("query_executions_total{")
    }
    indexed = sum(v for name, v in executions.items() if "index" in name)
    submitted = counts.get("jobs_submitted", 0)
    rejected = delta("worker_pool_rejections_total")
    traced_rate = ratio(len(phase.results), phase.elapsed)
    untraced_rate = ratio(len(untraced.results), untraced.elapsed)
    metrics = {
        "server.handle_us": handle_us,
        "server.transport_us": client_mean * 1e6 - handle_us if handle_us else 0.0,
        "server.connections_per_request": ratio(counts.get("connections", 0), n.get("server", 0)),
        "oodb.versions.record_us": mean_us("oodb.versions"),
        "oodb.buffer.hit_rate": ratio(hits, hits + misses),
        "oodb.buffer.misses_per_op": ratio(misses, ops),
        "oodb.query.exec_us": mean_us("oodb.query"),
        "oodb.query.rows_examined_per_returned": ratio(examined, counts.get("oodb.query.rows", 0)),
        "oodb.query.index_share": ratio(indexed, sum(executions.values())),
        "oodb.locks.acquires_per_txn": ratio(n.get("oodb.locks", 0), commits),
        "oodb.locks.wait_us": mean_us("oodb.locks"),
        "oodb.txn.commit_us": mean_us("oodb.txn"),
        "oodb.txn.retries_per_txn": ratio(delta("txn_retries_total"), commits),
        "oodb.codec.encode_us": mean_us("oodb.codec"),
        "oodb.wal.append_us": mean_us("oodb.wal"),
        "oodb.wal.bytes_per_txn": ratio(phase.wal_bytes, n.get("oodb.wal", 0)),
        "oodb.wal.txns_per_fsync": ratio(
            delta("pipeline_group_commits_total"), delta("pipeline_wal_syncs_total")
        ),
        "core.events.notify_us": mean_us("core.events.notify"),
        "core.events.detector_feed_us": mean_us("core.events.detector"),
        "core.rules.fire_us": mean_us("core.rules"),
        "core.scheduler.firings_per_txn": ratio(n.get("core.rules", 0), writes),
        "core.workers.queue_wait_ms": ratio(
            sum(started - sub for _r, sub, started in jobs), len(jobs)
        ) * 1e3,
        "core.workers.inline_fallback_share": ratio(rejected, submitted + rejected),
        "core.workers.retries_per_job": ratio(delta("decoupled_retries_total"), submitted),
        "trace.overhead_share": 1.0 - ratio(traced_rate, untraced_rate),
    }
    for layer in layertrace.LAYERS:
        metrics[f"{layer}.self_us_per_op"] = ratio(own.get(layer, 0.0), ops) * 1e6
    return metrics


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def fingerprint(bench: Bench, workload: str) -> dict:
    import inspect

    from repro.oodb import Database
    from repro.oodb.storage.pages import PAGE_SIZE

    pool_pages = inspect.signature(Database).parameters["buffer_capacity"].default
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_ms": round(calibration_ms(), 3),
        "fsync": harness.FSYNC_POLICY,
        "store_bytes": store.dir_bytes(bench.pristine),
        "buffer_pool_bytes": pool_pages * PAGE_SIZE,
        "accounts": store.N_ACCOUNTS,
        "store_seed": store.STORE_SEED,
        "workload": workload,
        "seed": bench.seed,
        "clients": harness.CLIENTS[workload],
        "workers": harness.WORKERS,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(bench: Bench, workload: str, trace: bool) -> dict:
    """Run one workload; returns the result object of the last line."""
    if workload == "embed_rules":
        measured, traced = bench.embed_phases(trace)
    else:
        trials = 1 if trace else bench.trials
        measured = bench.server_phase(workload, trials, None, "run")
        traced = None
        if trace:
            out = os.path.join(bench.run_dir, "trace.json")
            traced = bench.server_phase(workload, 1, out, "traced")
    phases = [p for p in (measured, traced) if p is not None]
    attempted = sum(len(p.results) for p in phases)
    by_kind = {kind: 0 for kind in harness.FAILURE_KINDS}
    notes: dict = {}
    for p in phases:
        for r in p.results:
            if r.failure:
                by_kind[r.failure] += 1
            if r.note:
                notes[r.note] = notes.get(r.note, 0) + 1
    failed = sum(by_kind.values())
    problems = [msg for p in phases for msg in p.problems]
    wrong = by_kind["wrong_answer"] + len(problems)
    report = {
        "workload": workload,
        "known_defects_seen": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in workload_report(workload, measured).items()},
        "failures": by_kind,
        "problems": problems[:20],
        "errors": [e for p in phases for e in p.errors][:20],
        "host": fingerprint(bench, workload),
    }
    print("report " + json.dumps(report, sort_keys=True))
    if traced is not None:
        values = per_layer(workload, traced, measured)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(measured)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": wrong == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="self-test mode (see selftest.py)")
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    # On SIGTERM, unwind through the finally blocks that stop the server.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.smoke:
        import selftest

        return selftest.main(args.seed)
    bench = Bench(args.seed, args.seconds)
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(bench, w, bool(args.trace)) for w in workloads]
    finally:
        bench.close()
    for workload, result in zip(workloads, results):
        if len(results) > 1:
            print(f"{workload} " + json.dumps(result, sort_keys=True))
    if len(results) == 1:
        print(json.dumps(results[0], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
