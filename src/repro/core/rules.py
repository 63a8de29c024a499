"""ECA rules as first-class notifiable objects (§3.4, §4.4, Fig 7).

A :class:`Rule` bundles an **E**\\ vent (any :class:`~repro.core.events.base.Event`,
primitive or composite), a **C**\\ ondition, and an **A**\\ ction, plus a
coupling mode, a priority for conflict resolution, and an enabled flag.
Rules are:

* **notifiable** — they subscribe to reactive objects and feed the
  occurrences they receive into their event tree (Fig 2: "rules receive
  events from reactive objects, send them to their local event detector");
* **reactive** — their own ``enable``/``disable``/``fire`` methods are
  event generators, so *rules can be monitored by other rules* ("treatment
  of events and rules as objects ... permits specification of rules on any
  set of objects, including rules themselves");
* **persistent-capable** — create, modify, delete, persist like any
  object, under the same transaction semantics.

Conditions and actions are callables taking a :class:`RuleContext`.  The
context exposes the triggering occurrence, its merged parameters, the
source object(s), and ``abort()`` — the paper's transaction-aborting rule
action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..obs.slowlog import slow_op_log as _slowlog
from ..obs.tracer import tracer as _tracer
from ..oodb.errors import TransactionAborted
from .coupling import Coupling
from .events.base import Event
from .generations import bump_class_generation
from .events.primitive import Primitive
from .notifiable import Notifiable
from .occurrence import Occurrence
from .reactive import Reactive
from .runtime import current_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import RuleScheduler

__all__ = ["Rule", "RuleContext", "RuleError"]

Condition = Callable[["RuleContext"], bool]
Action = Callable[["RuleContext"], Any]

_anonymous_rules = itertools.count(1)


class RuleError(Exception):
    """Structural misuse of a rule (bad event, missing action...)."""


@dataclass(slots=True)
class RuleContext:
    """Everything a condition or action can see about the triggering event."""

    rule: "Rule"
    occurrence: Occurrence
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def sources(self) -> list[Any]:
        """The reactive objects whose events built this occurrence."""
        return self.occurrence.sources()

    @property
    def source(self) -> Any:
        """The object that produced the terminating constituent (or None)."""
        constituents = self.occurrence.constituents
        if not constituents:
            return None
        last = max(constituents, key=lambda c: c.seq)
        return last.source

    @property
    def result(self) -> Any:
        """Return value of the (last) triggering method, for eom events."""
        constituents = self.occurrence.constituents
        if not constituents:
            return None
        return max(constituents, key=lambda c: c.seq).result

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def abort(self, reason: str = "") -> None:
        """Abort the triggering transaction (the paper's ``abort`` action).

        With a database transaction active, that transaction rolls back
        and :class:`TransactionAborted` unwinds the triggering call; with
        no transaction, the exception alone plays that role.
        """
        scheduler = self.rule.resolved_scheduler()
        db = getattr(scheduler, "db", None)
        txn = db.txn_manager.current if db is not None else None
        reason = reason or f"aborted by rule {self.rule.name!r}"
        if txn is not None and txn.is_active:
            txn.abort(reason)
        raise TransactionAborted(reason)


class Rule(Reactive, Notifiable):
    """An Event-Condition-Action rule (Fig 7).

    Parameters mirror the paper's Rule class: the event object, pointers
    to the condition and action, the coupling mode, and the enabled flag;
    ``priority`` feeds the scheduler's conflict resolution.

    ``fire``/``enable``/``disable`` are themselves event generators, so a
    meta-rule can subscribe to a rule object and react when it fires.
    """

    __event_interface__ = {
        "fire": "begin|end",
        "enable": "end",
        "disable": "end",
    }

    _p_transient = ("_scheduler",) + Notifiable._p_transient + Reactive._p_transient

    def __init__(
        self,
        name: str | None = None,
        event: Event | str | None = None,
        condition: Condition | None = None,
        action: Action | None = None,
        coupling: Coupling | str = Coupling.IMMEDIATE,
        priority: int = 0,
        enabled: bool = True,
        scheduler: "RuleScheduler | None" = None,
        description: str = "",
    ) -> None:
        super().__init__()
        if event is None:
            raise RuleError("a rule needs a triggering event")
        if isinstance(event, str):
            event = Primitive(event)
        if not isinstance(event, Event):
            raise RuleError(
                f"event must be an Event or signature text, got "
                f"{type(event).__name__}"
            )
        self.name = name or f"rule_{next(_anonymous_rules)}"
        self.event = event
        self.condition = condition
        self.action = action
        self.coupling = Coupling.parse(coupling)
        self.priority = priority
        self.enabled = enabled
        self.description = description
        self.times_triggered = 0
        self.times_fired = 0
        object.__setattr__(self, "_scheduler", scheduler)
        event.add_listener(self)

    def _p_after_load(self) -> None:
        """Re-attach to the event tree after materialization from storage."""
        object.__setattr__(self, "_scheduler", None)
        self.event.add_listener(self)

    # ------------------------------------------------------------------
    # Consumption: occurrences arriving from subscribed reactive objects
    # ------------------------------------------------------------------
    def notify(self, occurrence: Occurrence) -> None:
        """Pass the occurrence to this rule's event tree (local detection)."""
        if not self.enabled:
            return
        self.record(occurrence)
        self.event.notify(occurrence)

    # ------------------------------------------------------------------
    # Listener: the rule's event signalled
    # ------------------------------------------------------------------
    def on_event(self, event: Event, occurrence: Occurrence) -> None:
        if not self.enabled:
            return
        self.resolved_scheduler().schedule(self, occurrence)

    def resolved_scheduler(self) -> "RuleScheduler":
        scheduler = getattr(self, "_scheduler", None)
        return scheduler if scheduler is not None else current_scheduler()

    def bind_scheduler(self, scheduler: "RuleScheduler | None") -> None:
        object.__setattr__(self, "_scheduler", scheduler)

    # ------------------------------------------------------------------
    # Execution (called by the scheduler per coupling mode)
    # ------------------------------------------------------------------
    def fire(self, occurrence: Occurrence) -> bool:
        """Evaluate the condition; run the action if it holds.

        Returns True when the action ran.  This method is itself an event
        generator (rules on rules).  With the tracer or the slow-op log
        on, the condition and action run through :meth:`_phase`, and the
        tracer gets an "outcome" point (the join key for per-rule
        reports); otherwise they are called directly.
        """
        context = RuleContext(
            rule=self,
            occurrence=occurrence,
            params=occurrence.parameters(),
        )
        observed = _tracer.enabled or _slowlog.enabled
        self.times_triggered += 1
        if self.condition is not None:
            if observed:
                passed = self._phase("condition", self.condition, context)
            else:
                passed = self.condition(context)
            if not passed:
                if _tracer.enabled:
                    _tracer.point(
                        "outcome", self.name,
                        rule=self.name, fired=False, seq=occurrence.seq,
                    )
                return False
        self.times_fired += 1
        if self.action is not None:
            if observed:
                self._phase("action", self.action, context)
            else:
                self.action(context)
        if _tracer.enabled:
            _tracer.point(
                "outcome", self.name,
                rule=self.name, fired=True, seq=occurrence.seq,
            )
        return True

    def _phase(
        self, phase: str, body: Callable[[RuleContext], Any], context: RuleContext
    ) -> Any:
        """Run a condition or action body under the observers that are on.

        The tracer gets a span named after the phase (a condition span
        closes with ``passed``; a raising body closes its span with
        ``error``).  The slow-op log gets an entry when the body overran
        ``slow_rule_us`` — recorded in ``finally`` so a slow body that
        raises still logs before the exception unwinds.
        """
        seq = context.occurrence.seq
        span = None
        if _tracer.enabled:
            span = _tracer.begin(phase, self.name, rule=self.name, seq=seq)
        started = perf_counter()
        try:
            result = body(context)
        except BaseException as exc:
            if span is not None:
                _tracer.end(span, error=type(exc).__name__)
            raise
        finally:
            micros = (perf_counter() - started) * 1e6
            if _slowlog.enabled and micros >= _slowlog.slow_rule_us:
                _slowlog.record(
                    "rule",
                    micros,
                    _slowlog.slow_rule_us,
                    signal="rule_slow",
                    signal_payload={
                        "rule": self.name,
                        "phase": phase,
                        "seq": seq,
                        "micros": round(micros, 1),
                        "threshold_us": _slowlog.slow_rule_us,
                    },
                    rule=self.name,
                    phase=phase,
                    seq=seq,
                    coupling=self.coupling.value,
                )
        if phase == "condition":
            result = bool(result)
            if span is not None:
                _tracer.end(span, passed=result)
        elif span is not None:
            _tracer.end(span)
        return result

    # ------------------------------------------------------------------
    # Rule operations (create/delete are object lifecycle; these remain)
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        # Consumer-snapshot caches key on the class generation; bumping it
        # here guarantees the state flip is observed by the next monitored
        # call even if a cache should ever grow enabled-dependent data.
        bump_class_generation()

    def disable(self) -> None:
        self.enabled = False
        bump_class_generation()

    def update(
        self,
        event: Event | None = None,
        condition: Condition | None = None,
        action: Action | None = None,
        coupling: Coupling | str | None = None,
        priority: int | None = None,
    ) -> None:
        """Modify the rule in place — rules are ordinary objects (§3.4)."""
        if event is not None:
            self.event.remove_listener(self)
            self.event = event
            event.add_listener(self)
        if condition is not None:
            self.condition = condition
        if action is not None:
            self.action = action
        if coupling is not None:
            self.coupling = Coupling.parse(coupling)
        if priority is not None:
            self.priority = priority

    # ------------------------------------------------------------------
    # Subscription sugar (the paper writes Fred.Subscribe(IncomeLevel))
    # ------------------------------------------------------------------
    def subscribe_to(self, *objects: Reactive) -> "Rule":
        """Monitor ``objects``: subscribe this rule to each of them."""
        for obj in objects:
            obj.subscribe(self)
        return self

    def unsubscribe_from(self, *objects: Reactive) -> "Rule":
        for obj in objects:
            obj.unsubscribe(self)
        return self

    def monitored_leaves(self) -> Iterable[Event]:
        """The primitive events this rule's tree watches (introspection)."""
        return self.event.leaves()

    def monitored_signatures(self) -> list["EventSignature"]:
        """The parsed signatures of this rule's primitive leaves.

        Non-primitive leaves (timer operators and the like) have no
        signature and are skipped.  Pure introspection, used by the
        static analyzer and the CLI tools.
        """
        return [
            leaf.signature
            for leaf in self.event.leaves()
            if isinstance(leaf, Primitive)
        ]

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Rule {self.name!r} on {self.event.name!r} "
            f"{self.coupling.value} {state}>"
        )
