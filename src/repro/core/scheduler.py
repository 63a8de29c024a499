"""Rule scheduling: coupling modes, conflict resolution, cascade control.

The scheduler is the runtime half of §4.4: when a rule's event signals,
the rule is handed here, and the coupling mode decides what happens:

* **immediate** — executed inside the current *delivery round*.  A round
  groups all the rules triggered by one propagated occurrence, orders
  them with the conflict-resolution policy (priority by default, FIFO
  otherwise), then runs them.  Rules whose actions generate further
  events create nested rounds, giving the nested ("subtransaction-like")
  execution the paper describes for immediate coupling.  A depth guard
  stops runaway cascades.
* **deferred** — queued on the current database transaction and executed
  at commit (before the WAL write), still inside the transaction.  With
  no database, the scheduler keeps its own queue; ``flush_deferred()``
  runs it (the Sentinel system calls this on ``commit()``).
* **decoupled** — queued to run after commit in a fresh transaction of
  its own; aborts of that transaction do not disturb the (committed)
  triggering transaction.  With a :class:`~repro.core.workers.
  RuleWorkerPool` attached (``scheduler.worker_pool``), the post-commit
  hook hands the rule to a worker thread instead of running it on the
  committing thread: each job opens its own transaction, retries
  retryable aborts (deadlock victim, lock timeout) up to the pool's
  budget, and isolates any remaining error — a decoupled rule can never
  unwind into either the triggering thread or the worker.  A saturated
  pool rejects the job and it runs inline (exactly-once beats async).

The scheduler also keeps the counters the benchmarks read (rules
triggered, executed, per-mode totals).

Concurrency: the *ambient* execution state — open delivery rounds, the
cascade depth, the executing-rule stack — is per-thread, so rule workers
and server connection threads cascade independently.  The stats counters
are advisory throughput indicators bumped without a lock on the hot path
(same trade as ``PipelineStats``); the decoupled-path counters that
tests assert on (`decoupled_aborts`, ``decoupled_retries``,
``decoupled_errors``, ``decoupled_rejected``) are bumped under a lock,
off the hot path.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Callable, Iterator

from ..obs.audit import audit_log as _audit
from ..obs.flight import flight_recorder as _flight
from ..obs.metrics import metrics as _metrics
from ..obs.signals import engine_signals as _signals, occurrence_from_sysmon
from ..obs.tracer import tracer as _tracer
from ..oodb.errors import OODBError, TransactionAborted
from . import runtime
from .coupling import Coupling
from .occurrence import Occurrence

if TYPE_CHECKING:  # pragma: no cover
    from ..oodb.database import Database
    from .rules import Rule
    from .workers import RuleWorkerPool

__all__ = [
    "RuleScheduler",
    "SchedulerStats",
    "TraceEntry",
    "CascadeError",
    "RuleCascadeError",
    "by_priority",
    "fifo",
]

#: A conflict resolver orders the (rule, occurrence) pairs of one round.
Resolver = Callable[[list[tuple["Rule", Occurrence]]], list[tuple["Rule", Occurrence]]]


def by_priority(
    batch: list[tuple["Rule", Occurrence]]
) -> list[tuple["Rule", Occurrence]]:
    """Higher priority first; stable, so FIFO breaks ties."""
    return sorted(batch, key=lambda pair: -pair[0].priority)


def fifo(batch: list[tuple["Rule", Occurrence]]) -> list[tuple["Rule", Occurrence]]:
    """Triggering order."""
    return list(batch)


_RESOLVERS: dict[str, Resolver] = {"priority": by_priority, "fifo": fifo}


class CascadeError(RuntimeError):
    """Rule cascade exceeded the configured depth limit.

    ``witness`` is the rule-name path through the cascade that breached
    the limit — when the cascade is a cycle, the slice from the first
    repeat of the offending rule, closed with that rule (the same shape
    the static analyzer's SA001 witness uses).
    """

    def __init__(self, message: str, witness: list[str] | None = None) -> None:
        super().__init__(message)
        self.witness: list[str] = list(witness or [])


#: Alias: the docs and the analyzer call this a *rule* cascade error.
RuleCascadeError = CascadeError


@dataclass(slots=True)
class SchedulerStats:
    triggered: int = 0
    executed: int = 0
    fired: int = 0
    immediate: int = 0
    deferred: int = 0
    decoupled: int = 0
    decoupled_aborts: int = 0
    #: Worker-pool path: retryable aborts rerun, errors isolated, and
    #: saturation fallbacks to inline execution.
    decoupled_retries: int = 0
    decoupled_errors: int = 0
    decoupled_rejected: int = 0
    max_depth_seen: int = 0
    errors: list[Exception] = field(default_factory=list)


class _ThreadExecState:
    """One thread's ambient execution state (rounds, depth, rule stack)."""

    __slots__ = ("frames", "depth", "exec_stack")

    def __init__(self) -> None:
        self.frames: list[list[tuple["Rule", Occurrence]]] = []
        self.depth = 0
        self.exec_stack: list[str] = []


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One rule execution, as recorded by scheduler tracing."""

    rule_name: str
    event_name: str
    occurrence_seq: int
    depth: int
    fired: bool
    error: str | None = None

    def __str__(self) -> str:
        outcome = "fired" if self.fired else "skipped"
        if self.error:
            outcome = f"error: {self.error}"
        return (
            f"[seq {self.occurrence_seq}] {self.rule_name} "
            f"on {self.event_name} (depth {self.depth}) -> {outcome}"
        )


class RuleScheduler:
    """Executes triggered rules according to their coupling modes.

    ``error_policy`` is ``"propagate"`` (default: rule exceptions unwind
    into the triggering operation, which is what lets ``abort`` work) or
    ``"isolate"`` (exceptions other than transaction aborts are collected
    in ``stats.errors`` and execution continues).
    """

    def __init__(
        self,
        db: "Database | None" = None,
        resolver: Resolver | str = "priority",
        max_depth: int = 32,
        error_policy: str = "propagate",
    ) -> None:
        if isinstance(resolver, str):
            try:
                resolver = _RESOLVERS[resolver]
            except KeyError:
                raise ValueError(
                    f"unknown resolver {resolver!r}; expected one of "
                    f"{sorted(_RESOLVERS)} or a callable"
                ) from None
        if error_policy not in ("propagate", "isolate"):
            raise ValueError("error_policy must be 'propagate' or 'isolate'")
        self.db = db
        self.resolver = resolver
        self.max_depth = max_depth
        self.error_policy = error_policy
        self.stats = SchedulerStats()
        #: Optional bounded pool for decoupled rules (see
        #: :meth:`Sentinel.enable_worker_pool`).  ``None`` = run inline.
        self.worker_pool: "RuleWorkerPool | None" = None
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._orphan_deferred: list[tuple["Rule", Occurrence]] = []
        self._trace: "deque[TraceEntry] | None" = None

    def _exec_state(self) -> _ThreadExecState:
        try:
            return self._local.state  # type: ignore[no-any-return]
        except AttributeError:
            state = _ThreadExecState()
            self._local.state = state
            return state

    # Back-compat views of the ambient state (tests peek at these).
    @property
    def _frames(self) -> list[list[tuple["Rule", Occurrence]]]:
        return self._exec_state().frames

    @property
    def _depth(self) -> int:
        return self._exec_state().depth

    @property
    def _exec_stack(self) -> list[str]:
        return self._exec_state().exec_stack

    # ------------------------------------------------------------------
    # Tracing (debugging / auditing aid)
    # ------------------------------------------------------------------
    def enable_tracing(self, limit: int = 1000) -> None:
        """Record every rule execution in a bounded trace buffer."""
        self._trace = deque(maxlen=limit)

    def disable_tracing(self) -> None:
        self._trace = None

    def trace(self) -> list[TraceEntry]:
        """The recorded executions, oldest first (empty if not tracing)."""
        return list(self._trace) if self._trace is not None else []

    def _record_trace(
        self,
        rule: "Rule",
        occurrence: Occurrence,
        fired: bool,
        error: str | None,
    ) -> None:
        if self._trace is not None:
            self._trace.append(
                TraceEntry(
                    rule_name=rule.name,
                    event_name=rule.event.name,
                    occurrence_seq=occurrence.seq,
                    depth=self._depth,
                    fired=fired,
                    error=error,
                )
            )

    # ------------------------------------------------------------------
    # Delivery rounds (conflict resolution scope)
    # ------------------------------------------------------------------
    @contextmanager
    def delivery_round(self) -> Iterator[None]:
        """Group the immediate rules triggered by one occurrence.

        Reactive objects wrap consumer notification in a round; at round
        exit the buffered rules run in conflict-resolution order.
        """
        frame = self._begin_round()
        try:
            yield
        except BaseException:
            self._abandon_round(frame)
            raise
        self._finish_round(frame)

    # The three-call form below is the contextmanager unrolled: the hot
    # path (Reactive.notify_consumers, once per propagated occurrence)
    # calls it directly to skip the generator machinery.
    def _begin_round(self) -> list[tuple["Rule", Occurrence]]:
        frame: list[tuple["Rule", Occurrence]] = []
        self._exec_state().frames.append(frame)
        return frame

    def _abandon_round(self, frame: list[tuple["Rule", Occurrence]]) -> None:
        """Pop the round without running it (delivery raised)."""
        popped = self._exec_state().frames.pop()
        assert popped is frame

    def _finish_round(self, frame: list[tuple["Rule", Occurrence]]) -> None:
        popped = self._exec_state().frames.pop()
        assert popped is frame
        if frame:
            for rule, occurrence in self.resolver(frame):
                self._execute(rule, occurrence)

    # ------------------------------------------------------------------
    # Scheduling (rules call this when their event signals)
    # ------------------------------------------------------------------
    def schedule(self, rule: "Rule", occurrence: Occurrence) -> None:
        self.stats.triggered += 1
        mode = rule.coupling
        if _tracer.enabled:
            _tracer.point(
                "schedule",
                rule.name,
                rule=rule.name,
                coupling=mode.value,
                seq=occurrence.seq,
            )
        if mode is Coupling.IMMEDIATE:
            self.stats.immediate += 1
            frames = self._exec_state().frames
            if frames:
                frames[-1].append((rule, occurrence))
            else:
                self._execute(rule, occurrence)
            return
        if mode is Coupling.DEFERRED:
            self.stats.deferred += 1
            txn = self.db.txn_manager.current if self.db is not None else None
            if txn is not None and txn.is_active:
                txn.add_pre_commit_hook(
                    lambda r=rule, o=occurrence: self._execute(r, o)
                )
            else:
                self._orphan_deferred.append((rule, occurrence))
            return
        # DECOUPLED
        self.stats.decoupled += 1
        txn = self.db.txn_manager.current if self.db is not None else None
        if txn is not None and txn.is_active:
            txn.add_post_commit_hook(
                lambda r=rule, o=occurrence: self._run_decoupled(r, o)
            )
        else:
            self._run_decoupled(rule, occurrence)

    def flush_deferred(self) -> int:
        """Run deferred rules queued outside any transaction."""
        count = 0
        while self._orphan_deferred:
            rule, occurrence = self._orphan_deferred.pop(0)
            self._execute(rule, occurrence)
            count += 1
        return count

    def pending_deferred(self) -> int:
        return len(self._orphan_deferred)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, rule: "Rule", occurrence: Occurrence) -> None:
        """Run one triggered rule: the one firing path, every sink included.

        A depth guard, then the firing with its error policy, then one
        :meth:`_observe` call before the depth unwinds.  Rules *triggered
        by* sysmon occurrences execute under signal suppression
        (re-entrancy guard: their firings must not manufacture further
        sysmon events) but are still audited and counted — operators see
        them; the monitor does not.
        """
        state = self._exec_state()
        span = None
        if _tracer.enabled:
            span = _tracer.begin(
                "rule",
                rule.name,
                rule=rule.name,
                coupling=rule.coupling.value,
                seq=occurrence.seq,
                depth=state.depth,
            )
        if state.depth >= self.max_depth:
            witness = self._cascade_witness(rule.name)
            witness_text = " -> ".join(witness)
            if _signals.active:
                _signals.emit(
                    "scheduler_depth_exceeded",
                    depth=state.depth + 1,
                    threshold=self.max_depth,
                    witness=witness_text,
                )
            if _flight.enabled:
                _flight.record(
                    "error",
                    rule.name,
                    occurrence.seq,
                    f"cascade depth {state.depth + 1}",
                )
                _flight.auto_dump("rule_cascade", witness_text)
            if span is not None:
                _tracer.end(span, error=CascadeError.__name__)
            raise CascadeError(
                f"rule cascade deeper than {self.max_depth} "
                f"(at rule {rule.name!r}); check for mutually-triggering "
                f"rules (cascade: {witness_text})",
                witness=witness,
            )
        state.depth += 1
        state.exec_stack.append(rule.name)
        self.stats.max_depth_seen = max(self.stats.max_depth_seen, state.depth)
        if _signals.active and state.depth == _signals.depth_threshold:
            # Crossing the sysmon alert threshold (softer than max_depth,
            # which aborts the cascade) raises an event a rule can act on.
            _signals.emit(
                "scheduler_depth_exceeded",
                depth=state.depth,
                threshold=_signals.depth_threshold,
                witness=" -> ".join(self._cascade_witness()),
            )
        from_sysmon = _signals.active and occurrence_from_sysmon(occurrence)
        if from_sysmon:
            _signals.push_suppression()
        # ``outcome`` stays None for an interrupted firing (a BaseException
        # such as KeyboardInterrupt escaping ``fire``): it reached no
        # verdict, so it is not observed as a rejection.
        outcome: str | None = "rejected"
        caught: BaseException | None = None
        escaped: BaseException | None = None
        start = perf_counter()
        try:
            self.stats.executed += 1
            fired = rule.fire(occurrence)
            if fired:
                outcome = "fired"
                self.stats.fired += 1
            self._record_trace(rule, occurrence, fired, None)
        except TransactionAborted as exc:
            outcome, caught, escaped = "aborted", exc, exc
            self._record_trace(rule, occurrence, True, str(exc))
            raise
        except Exception as exc:
            outcome, caught = "error", exc
            self._record_trace(rule, occurrence, False, str(exc))
            if self.error_policy == "propagate":
                escaped = exc
                raise
            self.stats.errors.append(exc)
        except BaseException as exc:
            outcome, escaped = None, exc
            raise
        finally:
            latency_us = (perf_counter() - start) * 1e6
            if from_sysmon:
                _signals.pop_suppression()
            try:
                # A sink may raise (an immediate meta-rule on a sysmon
                # signal, an audit write): the depth still unwinds.
                if outcome is not None:
                    self._observe(rule, occurrence, outcome, caught,
                                  latency_us, from_sysmon)
            finally:
                state.exec_stack.pop()
                state.depth -= 1
                if span is not None:
                    if escaped is None:
                        _tracer.end(span)
                    else:
                        _tracer.end(span, error=type(escaped).__name__)

    def current_cascade(self) -> list[str]:
        """The names of the rules currently executing, outermost first."""
        return list(self._exec_stack)

    def _cascade_witness(self, next_rule: str | None = None) -> list[str]:
        """The cascade path to report when the depth guard trips.

        If ``next_rule`` (the rule about to execute) already appears in
        the execution stack, the cascade is a cycle: return the slice
        from its most recent occurrence, closed with the repeat — the
        minimal cycle, matching the witness shape of the static
        analyzer's SA001 finding.  Otherwise return the stack tail
        (bounded, so a deep linear cascade doesn't produce a page-long
        message).
        """
        stack = self._exec_stack
        if next_rule is not None:
            if next_rule in stack:
                last = len(stack) - 1 - stack[::-1].index(next_rule)
                return stack[last:] + [next_rule]
            stack = stack + [next_rule]
        return stack[-16:]

    def _observe(
        self,
        rule: "Rule",
        occurrence: Occurrence,
        outcome: str,
        exc: BaseException | None,
        latency_us: float,
        from_sysmon: bool,
    ) -> None:
        """Report one execution to the flight recorder, the audit log, the
        ``rule_firings{rule=…,outcome=…}`` counter (always) and sysmon."""
        name = rule.name
        coupling = rule.coupling.value
        error: str | None = None
        if outcome == "error":
            error = repr(exc)
        elif outcome == "aborted":
            error = str(exc)
        if _flight.enabled:
            if outcome == "error":
                _flight.record("error", name, occurrence.seq, error)
                # A CascadeError already dumped (reason "rule_cascade") at
                # its raise site; don't re-dump per unwinding frame.
                if self.error_policy == "propagate" and not isinstance(
                    exc, CascadeError
                ):
                    _flight.auto_dump("rule_error", f"{name}: {error}")
            else:
                _flight.record("firing", name, occurrence.seq, outcome)
        if _audit.enabled:
            _audit.record(
                rule=name,
                seq=occurrence.seq,
                coupling=coupling,
                condition=outcome in ("fired", "aborted"),
                outcome=outcome,
                error=error,
                latency_us=latency_us,
            )
        _metrics.counter(f"rule_firings{{rule={name},outcome={outcome}}}").inc()
        if not _signals.active or from_sysmon:
            return
        if outcome == "fired":
            _signals.emit(
                "rule_fired",
                rule=name,
                seq=occurrence.seq,
                coupling=coupling,
                latency_us=round(latency_us, 1),
            )
        elif outcome == "rejected":
            _signals.emit(
                "condition_rejected",
                rule=name,
                seq=occurrence.seq,
                coupling=coupling,
            )
        elif outcome == "error":
            _signals.emit(
                "rule_error",
                rule=name,
                seq=occurrence.seq,
                coupling=coupling,
                error=error,
            )
        # "aborted": the transaction manager emits txn_aborted itself.

    def _run_decoupled(self, rule: "Rule", occurrence: Occurrence) -> None:
        """Run a decoupled rule in its own transaction.

        With a worker pool attached the rule becomes a pool job; a
        rejected (saturated) submission falls back to the inline path so
        the rule still runs exactly once.
        """
        pool = self.worker_pool
        if pool is not None and self.db is not None:
            if pool.submit(
                lambda r=rule, o=occurrence: self._run_decoupled_job(r, o),
                rule.name,
            ):
                return
            with self._stats_lock:
                self.stats.decoupled_rejected += 1
        if self.db is None:
            try:
                self._execute(rule, occurrence)
            except TransactionAborted:
                self.stats.decoupled_aborts += 1
            return
        try:
            with self.db.transaction():
                self._execute(rule, occurrence)
        except TransactionAborted:
            # The decoupled transaction rolled back; the triggering one is
            # already committed and unaffected.
            self.stats.decoupled_aborts += 1

    def _run_decoupled_job(self, rule: "Rule", occurrence: Occurrence) -> None:
        """One worker-pool job: own transaction, deadlock retry, isolation.

        Runs on a ``rule-worker`` thread.  The scheduler installs itself
        as the thread's ambient scheduler so events the rule's action
        raises cascade back through *this* scheduler, not the process
        default.  Retryable aborts (deadlock victim, lock timeout) rerun
        the rule in a fresh transaction up to the pool's ``max_retries``;
        every other failure is isolated into the stats — a decoupled
        rule's error never escapes its job.
        """
        db = self.db
        assert db is not None
        pool = self.worker_pool
        retries = pool.max_retries if pool is not None else 5
        runtime.push_scheduler(self)
        try:
            attempt = 0
            while True:
                try:
                    with db.transaction():
                        self._execute(rule, occurrence)
                    return
                except TransactionAborted:
                    # The rule aborted itself — deliberate, not retryable.
                    with self._stats_lock:
                        self.stats.decoupled_aborts += 1
                    return
                except OODBError as exc:
                    if not exc.retryable or attempt >= retries:
                        with self._stats_lock:
                            self.stats.decoupled_errors += 1
                            self.stats.errors.append(exc)
                        _metrics.counter("decoupled_retry_exhausted").inc()
                        if _flight.enabled:
                            _flight.record(
                                "error", rule.name, occurrence.seq, repr(exc)
                            )
                        return
                    attempt += 1
                    with self._stats_lock:
                        self.stats.decoupled_retries += 1
                    _metrics.counter("decoupled_retries").inc()
                    # Linear backoff breaks livelock between two workers
                    # repeatedly deadlocking on the same object pair.
                    sleep(0.001 * attempt)
                except Exception as exc:
                    with self._stats_lock:
                        self.stats.decoupled_errors += 1
                        self.stats.errors.append(exc)
                    if _flight.enabled:
                        _flight.record(
                            "error", rule.name, occurrence.seq, repr(exc)
                        )
                    return
        finally:
            runtime.pop_scheduler(self)

    def drain_decoupled(self, timeout: float | None = None) -> bool:
        """Wait for the worker pool to finish its backlog (True if idle)."""
        pool = self.worker_pool
        if pool is None:
            return True
        return pool.drain(timeout)

    def reset_stats(self) -> None:
        self.stats = SchedulerStats()
