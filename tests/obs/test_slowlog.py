"""The slow-op log: thresholds, rotation, engine hooks, sysmon signals."""

import json
import os
import sys
import threading
import time

import pytest

from repro.core.reactive import Reactive
from repro.core.system import Sentinel
from repro.obs.audit import read_entries, tail_entries
from repro.obs.metrics import metrics
from repro.obs.slowlog import DEFAULT_THRESHOLDS, SlowOpLog, slow_op_log


class Thing(Reactive):
    __event_interface__ = {"poke": "end"}

    def poke(self):
        return "poked"


def _entries(path):
    return [json.loads(line) for line in open(path)]


class TestLifecycle:
    def test_closed_by_default(self):
        log = SlowOpLog()
        assert not log.enabled
        log.record("query", 1.0, 0.0)  # no handle: silently ignored

    def test_open_sets_thresholds(self, tmp_path):
        log = SlowOpLog()
        log.open(str(tmp_path / "s.jsonl"), slow_query_us=123.0)
        try:
            assert log.enabled
            assert log.slow_query_us == 123.0
            assert log.slow_rule_us == DEFAULT_THRESHOLDS["slow_rule_us"]
        finally:
            log.close()
        assert not log.enabled

    def test_unknown_threshold_rejected(self, tmp_path):
        log = SlowOpLog()
        with pytest.raises(ValueError, match="unknown slow-op threshold"):
            log.open(str(tmp_path / "s.jsonl"), slow_commit_us=1.0)

    def test_open_validates_rotation_params(self, tmp_path):
        log = SlowOpLog()
        with pytest.raises(ValueError):
            log.open(str(tmp_path / "s.jsonl"), max_bytes=0)
        with pytest.raises(ValueError):
            log.open(str(tmp_path / "s.jsonl"), keep=0)

    def test_reset_thresholds(self):
        log = SlowOpLog()
        log.configure(slow_query_us=1.0)
        log.reset_thresholds()
        assert log.slow_query_us == DEFAULT_THRESHOLDS["slow_query_us"]


class TestRecord:
    def test_entry_shape_and_counter(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = SlowOpLog()
        log.open(path)
        log.record("fsync", 31234.5678, 20000.0, path="/x/wal.log")
        log.close()
        (entry,) = _entries(path)
        assert entry["kind"] == "fsync"
        assert entry["duration_us"] == 31234.6
        assert entry["threshold_us"] == 20000.0
        assert entry["path"] == "/x/wal.log"
        assert entry["ts"] > 0
        assert metrics.snapshot()["slow_ops_total{kind=fsync}"] == 1

    def test_rotation_and_audit_readers(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        log = SlowOpLog()
        log.open(path, max_bytes=200, keep=2)
        for i in range(20):
            log.record("query", 100.0 + i, 50.0, seq=i)
        log.close()
        # The audit-log readers work on slow-op files unchanged.
        everything = list(read_entries(path, include_rotated=True))
        assert [e["seq"] for e in everything] == sorted(
            e["seq"] for e in everything
        )
        newest = tail_entries(path, 5)
        assert [e["seq"] for e in newest] == [e["seq"]
                                              for e in everything[-5:]]

    def test_signal_emission(self, tmp_path):
        with Sentinel() as s:
            monitor = s.system_monitor()
            s.enable_slow_log(str(tmp_path / "s.jsonl"))
            try:
                slow_op_log.record(
                    "query", 99.0, 1.0,
                    signal="query_slow",
                    signal_payload={
                        "class_name": "Emp", "access_path": "extent_scan",
                        "micros": 99.0, "threshold_us": 1.0,
                    },
                )
            finally:
                s.disable_slow_log()
            assert monitor.slow_queries == 1
            monitor.detach()


class TestConcurrentWriters:
    def test_threads_rotate_without_errors_or_loss(self, tmp_path):
        """The WAL syncer, rule workers and server threads all record
        breaches: rotation under concurrent appends must lose nothing."""
        threads, per_thread = 4, 500
        path = str(tmp_path / "s.jsonl")
        log = SlowOpLog()
        # ~100-byte lines: about 50 rotations, every generation retained.
        log.open(path, max_bytes=4096, keep=100)
        failures = []
        start = threading.Barrier(threads)

        def writer(worker):
            start.wait(timeout=10)
            for i in range(per_thread):
                try:
                    log.record("query", 100.0, 50.0, worker=worker, i=i)
                except Exception as exc:  # the defect under test
                    failures.append(exc)

        pool = [threading.Thread(target=writer, args=(w,))
                for w in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave appends and rotations
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        log.close()
        assert not any(thread.is_alive() for thread in pool)
        assert failures == []
        written = {(e["worker"], e["i"]) for e in read_entries(path)}
        assert len(written) == threads * per_thread
        assert os.path.exists(path + ".1")  # rotation really happened


class TestEngineHooks:
    def test_slow_rule_action_logged_with_phase(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with Sentinel() as s:
            s.enable_slow_log(path, slow_rule_us=0.0)
            try:
                rule = s.create_rule(
                    name="slow_action", event="end Thing::poke()",
                    condition=lambda ctx: True,
                    action=lambda ctx: time.sleep(0.001),
                )
                thing = Thing()
                thing.subscribe(rule)
                thing.poke()
            finally:
                s.disable_slow_log()
        phases = {(e["rule"], e["phase"]) for e in _entries(path)}
        assert ("slow_action", "condition") in phases
        assert ("slow_action", "action") in phases

    def test_erroring_slow_action_still_logged(self, tmp_path):
        path = str(tmp_path / "s.jsonl")

        def boom(ctx):
            time.sleep(0.001)
            raise ValueError("late failure")

        with Sentinel() as s:
            s.enable_slow_log(path, slow_rule_us=0.0)
            try:
                rule = s.create_rule(
                    name="slow_boom", event="end Thing::poke()", action=boom,
                )
                thing = Thing()
                thing.subscribe(rule)
                with pytest.raises(ValueError):
                    thing.poke()
            finally:
                s.disable_slow_log()
        actions = [e for e in _entries(path) if e["phase"] == "action"]
        assert actions and actions[0]["rule"] == "slow_boom"

    def test_traced_path_also_logs_slow_phases(self, tmp_path):
        from repro.obs import tracer

        path = str(tmp_path / "s.jsonl")
        tracer.enable()
        with Sentinel() as s:
            s.enable_slow_log(path, slow_rule_us=0.0)
            try:
                rule = s.create_rule(
                    name="slow_traced", event="end Thing::poke()",
                    action=lambda ctx: time.sleep(0.001),
                )
                thing = Thing()
                thing.subscribe(rule)
                thing.poke()
            finally:
                s.disable_slow_log()
        assert any(e["phase"] == "action" for e in _entries(path))

    def test_fast_rule_not_logged(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with Sentinel() as s:
            s.enable_slow_log(path)  # default thresholds: generous
            try:
                rule = s.create_rule(
                    name="fast_rule", event="end Thing::poke()",
                    action=lambda ctx: None,
                )
                thing = Thing()
                thing.subscribe(rule)
                thing.poke()
            finally:
                s.disable_slow_log()
        assert _entries(path) == []

    def test_slow_query_logged_with_plan(self, tmp_path):
        from repro.oodb.database import Database
        from repro.oodb.schema import Persistent

        class Row(Persistent):
            def __init__(self, n=0):
                super().__init__()
                self.n = n

        path = str(tmp_path / "s.jsonl")
        db = Database(str(tmp_path / "db"))
        try:
            with db.transaction():
                for i in range(10):
                    db.add(Row(i))
            slow_op_log.open(path, slow_query_us=0.0)
            try:
                rows = list(db.query(Row).where_op("n", ">", 4))
            finally:
                slow_op_log.close()
                slow_op_log.reset_thresholds()
            assert len(rows) == 5
        finally:
            db.close()
        queries = [e for e in _entries(path) if e["kind"] == "query"]
        assert queries
        entry = queries[-1]
        assert entry["class"] == "Row"
        assert entry["access_path"] == "extent_scan"
        assert entry["rows"] == 5
        assert entry["plan"]["plan"]["class_name"] == "Row"
        assert entry["plan"]["actual"]["returned"] == 5

    @pytest.mark.parametrize(
        "terminal, expected",
        [
            ("count_in_snapshot", 10),
            ("count_with_residual", 5),
            ("exists_with_residual", True),
        ],
    )
    def test_count_and_exists_row_fallbacks_profiled(
        self, tmp_path, terminal, expected
    ):
        """count()/exists() that cannot answer from an index run the rows
        through the same profiled path as iteration."""
        from repro.oodb.database import Database
        from repro.oodb.query import AnalyzedPlan
        from repro.oodb.schema import Persistent

        class Row(Persistent):
            def __init__(self, n=0):
                super().__init__()
                self.n = n

        path = str(tmp_path / "s.jsonl")
        db = Database(str(tmp_path / "db"), profile_queries=True)
        try:
            with db.transaction():
                for i in range(10):
                    db.add(Row(i))
            slow_op_log.open(path, slow_query_us=0.0)
            try:
                if terminal == "count_in_snapshot":
                    with db.snapshot():
                        result = db.query(Row).count()
                elif terminal == "count_with_residual":
                    result = db.query(Row).where(lambda r: r.n >= 5).count()
                else:
                    result = db.query(Row).where(lambda r: r.n >= 5).exists()
            finally:
                slow_op_log.close()
                slow_op_log.reset_thresholds()
            profile = db.last_query_profile
        finally:
            db.close()
        assert result == expected
        (entry,) = [e for e in _entries(path) if e["kind"] == "query"]
        assert entry["class"] == "Row"
        assert isinstance(profile, AnalyzedPlan)
        assert entry["plan"] == profile.to_json()
        returned = 1 if terminal.startswith("exists") else expected
        assert profile.stats.returned == returned
        assert entry["rows"] == returned

    def test_long_txn_logged(self, tmp_path):
        from repro.oodb.database import Database
        from repro.oodb.schema import Persistent

        class Row(Persistent):
            def __init__(self, n=0):
                super().__init__()
                self.n = n

        path = str(tmp_path / "s.jsonl")
        db = Database(str(tmp_path / "db"))
        try:
            slow_op_log.open(path, long_txn_us=0.0)
            try:
                with db.transaction():
                    db.add(Row(1))
            finally:
                slow_op_log.close()
                slow_op_log.reset_thresholds()
        finally:
            db.close()
        txns = [e for e in _entries(path) if e["kind"] == "txn"]
        assert txns and txns[0]["status"] == "committed"
        assert txns[0]["changes"] >= 1

    def test_slow_fsync_logged(self, tmp_path):
        from repro.oodb.database import Database
        from repro.oodb.schema import Persistent

        class Row(Persistent):
            def __init__(self, n=0):
                super().__init__()
                self.n = n

        path = str(tmp_path / "s.jsonl")
        db = Database(str(tmp_path / "db"))
        try:
            slow_op_log.open(path, slow_fsync_us=0.0)
            try:
                with db.transaction():
                    db.add(Row(1))
            finally:
                slow_op_log.close()
                slow_op_log.reset_thresholds()
        finally:
            db.close()
        fsyncs = [e for e in _entries(path) if e["kind"] == "fsync"]
        assert fsyncs and fsyncs[0]["path"].endswith("wal.log")
