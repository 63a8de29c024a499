"""One rule-firing path: attached sinks never change what a firing does.

A rule's outcome — ``fire()``'s result, the rule and scheduler counters,
the scheduler trace, the exception the trigger sees — must not depend on
which observers are watching.  The ``rule_firings`` counter is part of
that one path, so it is bumped with no audit log or sysmon attached.
"""

from __future__ import annotations

import dataclasses
import json
import urllib.error
import urllib.request
from contextlib import ExitStack

import pytest

from repro.core.reactive import Reactive
from repro.core.rules import Rule
from repro.core.system import Sentinel
from repro.obs import audit_log, flight_recorder, metrics, tracer


class Thing(Reactive):
    __event_interface__ = {"poke": "end"}

    def poke(self):
        return "poked"


class RecordingRule(Rule):
    """Notes every ``fire()`` result, or the exception it raised."""

    def fire(self, occurrence):
        try:
            fired = super().fire(occurrence)
        except Exception as exc:
            self.results.append(("raised", type(exc).__name__))
            raise
        self.results.append(("returned", fired))
        return fired


def _raise(exc):
    raise exc


#: Scenario name -> (condition, action, max_cascade_depth).
SCENARIOS = {
    "fires": (lambda ctx: True, lambda ctx: None, 32),
    "rejected": (lambda ctx: False, lambda ctx: None, 32),
    "condition_raises": (lambda ctx: _raise(ValueError("bad")), None, 32),
    "action_raises": (None, lambda ctx: _raise(KeyError("gone")), 32),
    "aborts": (None, lambda ctx: ctx.abort("stop"), 32),
    "cascades": (None, lambda ctx: ctx.source.poke(), 3),
}

SINK_SETS = {
    "none": (),
    "tracer": ("tracer",),
    "slowlog": ("slowlog",),
    "audit": ("audit",),
    "sysmon": ("sysmon",),
    "all": ("tracer", "slowlog", "audit", "sysmon"),
}


def _attach(sinks, stack, sentinel, directory):
    if "tracer" in sinks:
        tracer.enable()
        stack.callback(tracer.clear)
        stack.callback(tracer.disable)
    if "slowlog" in sinks:
        sentinel.enable_slow_log(str(directory / "slow.jsonl"),
                                 slow_rule_us=0.0)
        stack.callback(sentinel.disable_slow_log)
    if "audit" in sinks:
        sentinel.enable_audit(str(directory / "audit.jsonl"))
        stack.callback(audit_log.close)
    if "sysmon" in sinks:
        sentinel.system_monitor()


def _run(scenario, policy, sinks, directory):
    """Everything a firing does that a sink could perturb."""
    condition, action, depth = SCENARIOS[scenario]
    flight_recorder.clear()
    with Sentinel(error_policy=policy, max_cascade_depth=depth,
                  adopt_class_rules=False) as s, ExitStack() as stack:
        stack.callback(s.close)
        _attach(sinks, stack, s, directory)
        s.scheduler.enable_tracing()
        rule = RecordingRule(name="subject", event="end Thing::poke()",
                             condition=condition, action=action,
                             scheduler=s.scheduler)
        rule.results = []
        thing = Thing()
        thing.subscribe(rule)
        raised = None
        try:
            thing.poke()
        except Exception as exc:
            raised = (type(exc).__name__, str(exc))
        stats = dataclasses.asdict(s.scheduler.stats)
        stats["errors"] = [repr(e) for e in s.scheduler.stats.errors]
        return {
            "fire": rule.results,
            "counts": (rule.times_triggered, rule.times_fired),
            "stats": stats,
            "trace": [
                (e.rule_name, e.event_name, e.depth, e.fired, e.error)
                for e in s.scheduler.trace()
            ],
            "raised": raised,
            "dumps": [d["reason"] for d in flight_recorder.snapshot_dumps()],
        }


@pytest.mark.parametrize("sinks", list(SINK_SETS), ids=list(SINK_SETS))
@pytest.mark.parametrize("policy", ["propagate", "isolate"])
def test_sinks_do_not_change_firing(sinks, policy, tmp_path):
    for scenario in SCENARIOS:
        bare = _run(scenario, policy, (), tmp_path)
        watched = _run(scenario, policy, SINK_SETS[sinks], tmp_path)
        assert watched == bare, scenario


def test_scenarios_cover_each_outcome(tmp_path):
    """Pin the bare results, so the comparison above is not vacuous."""
    run = {
        (scenario, policy): _run(scenario, policy, (), tmp_path)
        for scenario in SCENARIOS
        for policy in ("propagate", "isolate")
    }
    assert run["fires", "propagate"]["fire"] == [("returned", True)]
    assert run["rejected", "propagate"]["fire"] == [("returned", False)]
    assert run["rejected", "propagate"]["counts"] == (1, 0)
    assert run["condition_raises", "propagate"]["raised"][0] == "ValueError"
    assert run["condition_raises", "isolate"]["raised"] is None
    assert run["condition_raises", "isolate"]["stats"]["errors"] == [
        "ValueError('bad')"
    ]
    assert run["action_raises", "propagate"]["counts"] == (1, 1)
    assert run["action_raises", "propagate"]["dumps"] == ["rule_error"]
    for policy in ("propagate", "isolate"):
        assert run["aborts", policy]["raised"] == ("TransactionAborted",
                                                  "stop")
    cascade = run["cascades", "propagate"]
    assert cascade["raised"][0] == "CascadeError"
    assert cascade["stats"]["max_depth_seen"] == 3
    # One auto-dump, at the raise site — not one per unwinding frame.
    assert cascade["dumps"] == ["rule_cascade"]
    assert run["cascades", "isolate"]["raised"] is None


def test_rule_firings_counted_without_audit_or_sysmon():
    """With no audit log and no sysmon attached, errored firings still
    reach ``rule_firings`` and so the ``/healthz`` error-rate check."""
    with Sentinel(error_policy="isolate", adopt_class_rules=False) as s:
        try:
            rule = s.create_rule(
                name="flaky", event="end Thing::poke()",
                action=lambda ctx: 1 / 0,
            )
            thing = Thing()
            thing.subscribe(rule)
            for _ in range(3):
                thing.poke()
            counters = metrics.counters()
            assert counters["rule_firings{rule=flaky,outcome=error}"] == 3
            server = s.serve_metrics()
            with pytest.raises(urllib.error.HTTPError) as failure:
                urllib.request.urlopen(server.url + "/healthz")
            assert failure.value.code == 503
            check = json.loads(failure.value.read())["checks"]["error_rate"]
            assert not check["ok"]
            assert check["detail"] == "3/3 firings errored"
        finally:
            s.close()


def test_raising_sink_still_unwinds_the_cascade():
    """An immediate meta-rule on a sysmon signal runs inside the firing's
    observation; when it raises under ``propagate`` the error reaches the
    trigger and the depth still unwinds, so later firings see no stale
    cascade (and no false CascadeError after ``max_depth`` such events)."""
    with Sentinel(error_policy="propagate", max_cascade_depth=3,
                  adopt_class_rules=False) as s:
        try:
            monitor = s.system_monitor()
            thing = Thing()
            s.monitor([thing], on="end Thing::poke()",
                      action=lambda ctx: None, name="domain")
            failing = [True]

            def meta(ctx):
                if failing[0]:
                    raise RuntimeError("meta boom")

            s.monitor(
                [monitor],
                on="end SystemMonitor::rule_fired(rule, seq, coupling, "
                   "latency_us)",
                action=meta,
                name="meta",
            )
            for _ in range(5):
                with pytest.raises(RuntimeError, match="meta boom"):
                    thing.poke()
                assert s.scheduler.current_cascade() == []
            failing[0] = False
            thing.poke()
            assert s.scheduler.current_cascade() == []
            # The meta-rule runs nested in the domain firing's observation.
            assert s.scheduler.stats.max_depth_seen == 2
        finally:
            s.close()


def test_interrupted_firing_is_not_counted_as_rejected():
    """A BaseException escaping ``fire`` (here KeyboardInterrupt) reached
    no verdict: it propagates, unwinds the cascade, and bumps no
    ``rule_firings`` outcome."""
    with Sentinel(error_policy="isolate", adopt_class_rules=False) as s:
        try:
            thing = Thing()
            s.monitor([thing], on="end Thing::poke()",
                      action=lambda ctx: _raise(KeyboardInterrupt()),
                      name="interrupted")
            with pytest.raises(KeyboardInterrupt):
                thing.poke()
            assert s.scheduler.current_cascade() == []
            assert not [
                name for name in metrics.counters()
                if name.startswith("rule_firings{rule=interrupted,")
            ]
        finally:
            s.close()
