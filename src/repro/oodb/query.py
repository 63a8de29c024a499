"""Queries over class extents, executed through a cost-aware planner.

A :class:`Query` selects instances of a persistent class (by default
including subclasses), filters them with attribute comparisons or arbitrary
predicates, and sorts/limits the result.  Execution is planned per run:

* every indexable filter (``== < <= > >=`` on an indexed attribute) is
  scored by estimated selectivity plus a per-structure probe cost — an
  extendible hash index answers ``==`` in one probe, a B-tree descends
  O(log n) nodes, so when both kinds cover an attribute the hash wins
  point lookups; the cheapest choice becomes the access path and the
  other selective ones are intersected as OID sets, with the rest applied
  as residual filters.  Hash indexes are equality-only: range filters and
  ``order_by`` never use them,
* the range filters on one B-tree-indexed attribute fold into a single
  choice: the tightest lower bound (``>``/``>=``) and the tightest upper
  bound (``<``/``<=``) become one bounded walk ``low .. high``, costed by
  ``estimate_range_count(low, high)``; a single bound is the case with
  one open end,
* ``order_by`` on an indexed attribute streams from the B-tree in key
  order instead of sorting, so ``limit(k)`` stops after ~k fetches,
* ``count()`` and ``exists()`` are answered from the index alone when no
  residual work remains — no object is materialized,
* everything else falls back to a clustered extent scan
  (:meth:`~repro.oodb.database.Database.fetch_many` batches).

The plan is a per-execution value object — building or running a query
never mutates the builder, so a ``Query`` can be iterated repeatedly.
:meth:`Query.explain` returns the plan without executing it;
``explain(analyze=True)`` *executes* the query, with every stage of the
one execution pipeline timed, and returns an :class:`AnalyzedPlan` — the
plan plus measured per-stage numbers (rows scanned vs. estimated, index
probes, ``fetch_many`` page pins, buffer hit rate, residual-filter
drops, wall time per stage), so planner mis-estimates are visible.
Setting ``db.profile_queries = True`` (or opening the slow-op log)
profiles every execution that materializes rows, ``count()``/``exists()``
fallbacks included; the most recent result is kept on
``db.last_query_profile`` and slow executions land in
:mod:`repro.obs.slowlog` with their analyzed plan attached.

Example::

    rich = (
        db.query(Employee)
        .where_op("salary", ">=", 100_000)
        .order_by("name")
        .all()
    )
    print(db.query(Employee).where_op("salary", ">=", 100_000).explain())
"""

from __future__ import annotations

import math
import operator
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, fields, replace
from itertools import islice
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..obs.flight import flight_recorder as _flight
from ..obs.metrics import metrics
from ..obs.slowlog import slow_op_log as _slowlog
from .errors import QueryError
from .index import BTree
from .oid import Oid

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database
    from .index import _IndexState
    from .schema import Persistent

__all__ = [
    "Query",
    "QueryPlan",
    "IndexChoice",
    "AnalyzedPlan",
    "ExecutionStats",
]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda a, b: a in b,
    "contains": lambda a, b: b in a,
}

#: Operators a B-tree can serve directly.
_INDEXABLE_OPS = frozenset(("==", "<", "<=", ">", ">="))

#: An extra index joins the OID intersection only if its estimated result
#: is below max(this floor, a quarter of the extent) — scanning a huge
#: index posting list to intersect it away is worse than re-checking the
#: filter on the already-small primary result.
_INTERSECT_MIN_ROWS = 64

#: Objects fetched per ``fetch_many`` batch while streaming candidates.
_FETCH_CHUNK = 64

_MISSING = object()

# Lazily-created labeled counters, one per access path.
_exec_counters: dict[str, Any] = {}


def _count_execution(access_path: str) -> None:
    counter = _exec_counters.get(access_path)
    if counter is None:
        counter = _exec_counters[access_path] = metrics.counter(
            f"query_executions{{access_path={access_path}}}"
        )
    counter.inc()


#: Modeled cost of one probe, in row-fetch units: a hash point lookup is
#: one directory load plus one bucket hit, a B-tree descends ~log2(n)
#: nodes.  Added to the row estimate when scoring candidate indexes, so
#: with both kinds on an attribute the hash wins equality lookups.
_HASH_PROBE_COST = 0.5


def _probe_cost(state: "_IndexState") -> float:
    if state.kind == "hash":
        return _HASH_PROBE_COST
    return math.log2(len(state.tree) + 2)


@dataclass(frozen=True, slots=True)
class IndexChoice:
    """One index access the planner chose: an equality probe or a range.

    ``op``/``value`` is the filter served (for a range, its lower bound
    when it has one).  A two-sided range — a lower and an upper bound on
    the same B-tree attribute, folded into one walk — carries its upper
    bound in ``high_op``/``high``.
    """

    attribute: str
    op: str
    value: Any
    index_name: str
    estimated_rows: int
    kind: str = "btree"
    cost: float = 0.0
    high_op: str | None = None
    high: Any = None

    @property
    def comparisons(self) -> tuple[tuple[str, Any], ...]:
        """The ``(op, value)`` comparisons this choice applies."""
        if self.high_op is None:
            return ((self.op, self.value),)
        return ((self.op, self.value), (self.high_op, self.high))

    def describe(self) -> str:
        served = " and ".join(
            f"{self.attribute} {op} {value!r}" for op, value in self.comparisons
        )
        return (
            f"{self.kind}:{self.index_name} ({served}),"
            f" est ~{self.estimated_rows} rows"
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "attribute": self.attribute,
            "op": self.op,
            "value": repr(self.value),
            "index": self.index_name,
            "kind": self.kind,
            "estimated_rows": self.estimated_rows,
        }
        if self.high_op is not None:
            out["high_op"] = self.high_op
            out["high"] = repr(self.high)
        return out


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """The access strategy chosen for one execution of a query.

    ``access_path`` is one of ``extent_scan`` (sorted-OID scan of the class
    extent), ``index_eq`` / ``index_range`` (one B-tree serves the primary
    filter), ``hash_eq`` (an extendible hash index serves the primary
    equality filter), ``index_intersect`` (several indexes, OID sets
    intersected) or ``index_order`` (no indexable filter, but ``order_by``
    streams from a B-tree).  ``sort_needed`` is False when the access path
    already yields the requested order; ``index_only`` marks plans whose
    ``count()`` / ``exists()`` never materialize an object.
    """

    class_name: str
    include_subclasses: bool
    access_path: str
    index_filters: tuple[IndexChoice, ...]
    residual_filters: tuple[tuple[str, str, Any], ...]
    predicates: int
    order: tuple[str, bool] | None
    sort_needed: bool
    index_only: bool
    limit: int | None
    estimated_rows: int
    extent_size: int

    def describe(self) -> str:
        subclasses = "included" if self.include_subclasses else "excluded"
        lines = [f"query plan: {self.class_name} (subclasses {subclasses})"]
        if self.index_filters:
            primary, *rest = self.index_filters
            lines.append(f"  access: {self.access_path} via {primary.describe()}")
            for choice in rest:
                lines.append(f"  intersect: {choice.describe()}")
        else:
            lines.append(
                f"  access: {self.access_path}, {self.extent_size} extent rows"
            )
        for attribute, op, value in self.residual_filters:
            lines.append(f"  residual: {attribute} {op} {value!r}")
        if self.predicates:
            lines.append(f"  predicates: {self.predicates}")
        if self.order is not None:
            attribute, descending = self.order
            direction = "desc" if descending else "asc"
            how = "sorted in memory" if self.sort_needed else "streamed in key order"
            lines.append(f"  order: {attribute} {direction} ({how})")
        if self.limit is not None:
            lines.append(f"  limit: {self.limit}")
        lines.append(
            f"  index-only count/exists: {'yes' if self.index_only else 'no'}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()

    def to_json(self) -> dict[str, Any]:
        """The plan as JSON-safe primitives (filter values ``repr``-ed)."""
        return {
            "class_name": self.class_name,
            "include_subclasses": self.include_subclasses,
            "access_path": self.access_path,
            "index_filters": [c.to_json() for c in self.index_filters],
            "residual_filters": [
                [attribute, op, repr(value)]
                for attribute, op, value in self.residual_filters
            ],
            "predicates": self.predicates,
            "order": (
                None
                if self.order is None
                else {"attribute": self.order[0], "descending": self.order[1]}
            ),
            "sort_needed": self.sort_needed,
            "index_only": self.index_only,
            "limit": self.limit,
            "estimated_rows": self.estimated_rows,
            "extent_size": self.extent_size,
        }


@dataclass(slots=True)
class ExecutionStats:
    """Measured per-stage numbers from one profiled execution.

    Counters cover the four pipeline stages (access → fetch → filter →
    sort); ``*_us`` fields are the wall time spent inside each.  In
    streaming executions (no in-memory sort) a ``limit`` stops the
    pipeline early — profiled or not, it is the same pipeline — so the
    counts reflect the work actually done.
    """

    candidates: int = 0        # OIDs the access path yielded ("rows scanned")
    fetched: int = 0           # objects materialized via fetch_many
    residual_dropped: int = 0  # fetched objects the residual filters rejected
    returned: int = 0          # rows the query produced
    index_probes: int = 0      # index lookups performed by the access path
    page_pins: int = 0         # fetch_many page pins (heap pages touched)
    buffer_hits: int = 0       # buffer-pool hits during this execution
    buffer_misses: int = 0     # buffer-pool misses (disk reads)
    access_us: float = 0.0
    fetch_us: float = 0.0
    filter_us: float = 0.0
    sort_us: float = 0.0
    total_us: float = 0.0

    @property
    def buffer_hit_rate(self) -> float:
        touched = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / touched if touched else 0.0

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["buffer_hit_rate"] = round(self.buffer_hit_rate, 4)
        for name in ("access_us", "fetch_us", "filter_us", "sort_us", "total_us"):
            out[name] = round(out[name], 1)
        return out


class AnalyzedPlan:
    """A :class:`QueryPlan` plus the numbers one execution actually saw.

    Returned by ``Query.explain(analyze=True)`` and kept on
    ``db.last_query_profile`` when profiling is on.  ``describe()``
    renders the plan with an ``analyze:`` section putting actuals next
    to the planner's estimates; ``to_json()`` carries the same numbers
    machine-readably (it is what the slow-op log embeds).
    """

    __slots__ = ("plan", "stats")

    def __init__(self, plan: QueryPlan, stats: ExecutionStats) -> None:
        self.plan = plan
        self.stats = stats

    def describe(self) -> str:
        plan, s = self.plan, self.stats
        est, scanned = plan.estimated_rows, s.candidates
        rows = f"  rows: est ~{est}, scanned {scanned}, returned {s.returned}"
        hi, lo = max(est, scanned), max(1, min(est, scanned))
        if hi >= 8 and hi / lo >= 4:
            rows += f" (misestimate {hi / lo:.0f}x)"
        if s.buffer_hits or s.buffer_misses:
            buffer = (
                f"  buffer pool: {s.buffer_hits} hits / {s.buffer_misses} "
                f"misses ({s.buffer_hit_rate * 100:.1f}% hit rate)"
            )
        else:
            buffer = "  buffer pool: untouched"
        lines = [
            plan.describe(),
            "analyze:",
            rows,
            f"  index probes: {s.index_probes}",
            f"  fetch: {s.fetched} objects, {s.page_pins} page pins",
            buffer,
            f"  residual filter: dropped {s.residual_dropped}",
            (
                f"  time: access {s.access_us:.1f}µs, "
                f"fetch {s.fetch_us:.1f}µs, filter {s.filter_us:.1f}µs, "
                f"sort {s.sort_us:.1f}µs, total {s.total_us:.1f}µs"
            ),
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()

    def to_json(self) -> dict[str, Any]:
        return {"plan": self.plan.to_json(), "actual": self.stats.to_json()}


class Query:
    """A lazily-evaluated selection over one class extent."""

    def __init__(
        self,
        db: "Database",
        cls: type | str,
        include_subclasses: bool = True,
    ) -> None:
        self._db = db
        self._class_name = cls if isinstance(cls, str) else getattr(
            cls, "_p_class_name", None
        )
        if self._class_name is None:
            raise QueryError(f"{cls!r} is not a persistent class")
        if self._class_name not in db.registry:
            raise QueryError(f"unknown persistent class {self._class_name!r}")
        self._include_subclasses = include_subclasses
        self._attr_filters: list[tuple[str, str, Any]] = []
        self._predicates: list[Callable[[Any], bool]] = []
        self._order: tuple[str, bool] | None = None
        self._limit: int | None = None

    # ------------------------------------------------------------------
    # Builders (each returns self for chaining)
    # ------------------------------------------------------------------
    def where(self, predicate: Callable[[Any], bool]) -> "Query":
        """Keep objects for which ``predicate(obj)`` is true."""
        self._predicates.append(predicate)
        return self

    def where_eq(self, attribute: str, value: Any) -> "Query":
        """Attribute equality (uses an index when one exists)."""
        return self.where_op(attribute, "==", value)

    def where_op(self, attribute: str, op: str, value: Any) -> "Query":
        """Attribute comparison with one of ``== != < <= > >= in contains``."""
        if op not in _OPS:
            raise QueryError(
                f"unknown operator {op!r}; expected one of {sorted(_OPS)}"
            )
        self._attr_filters.append((attribute, op, value))
        return self

    def order_by(self, attribute: str, descending: bool = False) -> "Query":
        self._order = (attribute, descending)
        return self

    def limit(self, count: int) -> "Query":
        if count < 0:
            raise QueryError("limit must be non-negative")
        self._limit = count
        return self

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def explain(self, analyze: bool = False) -> QueryPlan | AnalyzedPlan:
        """The plan this query would execute with.

        With ``analyze=False`` (the default) the plan is returned
        without executing anything.  With ``analyze=True`` the query is
        *executed* with stage timing on and the returned
        :class:`AnalyzedPlan` carries the measured per-stage numbers
        next to the planner's estimates.
        """
        plan = self._prepare()
        if not analyze:
            return plan
        _rows, stats = self._run_analyzed(plan)
        return AnalyzedPlan(plan, stats)

    def _wanted(self) -> set[Oid]:
        """The extent the query selects from (fresh set, built on demand)."""
        return self._db.extents.of(self._class_name, self._include_subclasses)

    def _prepare(self) -> QueryPlan:
        db = self._db
        # Extent sets and index trees are shared with concurrent writers;
        # plan estimates read them under the state lock.
        with self._shared_state():
            extent_size = db.extents.count(
                self._class_name, self._include_subclasses
            )
            order = self._order

            choices: list[IndexChoice] = []
            residual: list[tuple[str, str, Any]] = []
            # attribute -> (B-tree, tightest lower bound, tightest upper bound);
            # every range filter on one attribute folds into one bounded walk.
            ranges: dict[str, tuple["_IndexState", Any, Any]] = {}
            for attribute, op, value in self._attr_filters:
                states = (
                    db.indexes.covering_all(self._class_name, attribute)
                    if op in _INDEXABLE_OPS
                    else []
                )
                if op != "==":
                    # Hash indexes are unordered and equality-only; a range
                    # comparison must come from a B-tree or not at all.
                    states = [s for s in states if s.kind == "btree"]
                if not states:
                    residual.append((attribute, op, value))
                    continue
                if op != "==":
                    state, lower, upper = ranges.get(attribute, (states[0], None, None))
                    if op in ("<", "<="):
                        upper = _tighter((op, value), upper)
                    else:
                        lower = _tighter((op, value), lower)
                    ranges[attribute] = (state, lower, upper)
                    continue
                best: IndexChoice | None = None
                for state in states:
                    estimate = state.tree.count_key(value)
                    cost = estimate + _probe_cost(state)
                    if best is None or cost < best.cost:
                        best = IndexChoice(
                            attribute,
                            op,
                            value,
                            state.definition.name,
                            estimate,
                            state.kind,
                            cost,
                        )
                assert best is not None
                choices.append(best)
            for attribute, (state, lower, upper) in ranges.items():
                tree = state.tree
                assert isinstance(tree, BTree)
                estimate = tree.estimate_range_count(
                    None if lower is None else lower[1],
                    None if upper is None else upper[1],
                )
                (op, value), *rest = [b for b in (lower, upper) if b is not None]
                high_op, high = rest[0] if rest else (None, None)
                choices.append(
                    IndexChoice(
                        attribute,
                        op,
                        value,
                        state.definition.name,
                        estimate,
                        state.kind,
                        estimate + _probe_cost(state),
                        high_op,
                        high,
                    )
                )

            order_satisfied = False
            if choices:
                choices.sort(key=lambda c: (c.cost, c.attribute, c.op))
                primary = choices[0]
                cap = max(_INTERSECT_MIN_ROWS, extent_size // 4)
                secondary: list[IndexChoice] = []
                for choice in choices[1:]:
                    if choice.estimated_rows <= cap:
                        secondary.append(choice)
                    else:
                        residual.extend(
                            (choice.attribute, op, value)
                            for op, value in choice.comparisons
                        )
                index_filters = (primary, *secondary)
                if secondary:
                    access_path = "index_intersect"
                elif primary.op == "==":
                    access_path = "hash_eq" if primary.kind == "hash" else "index_eq"
                else:
                    access_path = "index_range"
                order_satisfied = (
                    order is not None
                    and not secondary
                    and primary.attribute == order[0]
                )
                estimated_rows = primary.estimated_rows
            else:
                index_filters = ()
                if order is not None and (
                    db.indexes.covering(self._class_name, order[0], kind="btree")
                    is not None
                ):
                    access_path = "index_order"
                    order_satisfied = True
                else:
                    access_path = "extent_scan"
                estimated_rows = extent_size

            return QueryPlan(
                class_name=self._class_name,
                include_subclasses=self._include_subclasses,
                access_path=access_path,
                index_filters=index_filters,
                residual_filters=tuple(residual),
                predicates=len(self._predicates),
                order=order,
                sort_needed=order is not None and not order_satisfied,
                index_only=(
                    not self._predicates
                    and not residual
                    and (bool(index_filters) or not self._attr_filters)
                ),
                limit=self._limit,
                estimated_rows=estimated_rows,
                extent_size=extent_size,
            )

    def _note_execution(self, plan: QueryPlan) -> None:
        _count_execution(plan.access_path)
        if plan.index_filters:
            metrics.counter("index_hits").inc(len(plan.index_filters))
        elif plan.access_path == "index_order":
            metrics.counter("index_hits").inc()
        if _flight.enabled:
            _flight.record(
                "query",
                plan.class_name,
                plan.estimated_rows,
                plan.access_path,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator["Persistent"]:
        return self._rows(self._prepare())

    def _rows(self, plan: QueryPlan) -> Iterator["Persistent"]:
        """Rows of ``plan`` for every terminal that materializes them —
        profiled under ``db.profile_queries`` or an open slow-op log."""
        if self._db.profile_queries or _slowlog.enabled:
            return iter(self._profiled_execute(plan))
        return self._execute(plan)

    def _execute(
        self, plan: QueryPlan, stats: ExecutionStats | None = None
    ) -> Iterator["Persistent"]:
        """The access → fetch → filter → sort → limit pipeline; with
        ``stats``, every stage is timed and counted into it.  ``limit``
        stops the stream without pulling a row past it."""
        self._note_execution(plan)
        passes = self._effective_passes(plan)
        candidates = self._collect_candidates(plan)
        if stats is not None:
            candidates = _timed_oids(candidates, stats)
            passes = _timed_filter(passes, stats)
        objects: Iterator["Persistent"] = (
            obj for obj in self._fetch_stream(candidates, stats) if passes(obj)
        )
        if plan.sort_needed:
            assert plan.order is not None
            attribute, descending = plan.order
            present: list["Persistent"] = []
            absent: list["Persistent"] = []
            for obj in objects:
                if getattr(obj, attribute, _MISSING) is _MISSING:
                    absent.append(obj)
                else:
                    present.append(obj)
            t0 = perf_counter()
            present.sort(
                key=lambda obj: getattr(obj, attribute), reverse=descending
            )
            if stats is not None:
                stats.sort_us = (perf_counter() - t0) * 1e6
            # Objects without the sort attribute always sort last — the
            # counterpart of filters treating a missing attribute as a
            # non-match rather than an error.
            objects = iter(present + absent)
        if plan.limit is not None:
            objects = islice(objects, plan.limit)
        return objects

    # ------------------------------------------------------------------
    # Profiled execution (EXPLAIN ANALYZE / profiling / slow-op log)
    # ------------------------------------------------------------------
    def _profiled_execute(self, plan: QueryPlan) -> list["Persistent"]:
        """Execute with stage timing on, keep the evidence."""
        rows, stats = self._run_analyzed(plan)
        analyzed = AnalyzedPlan(plan, stats)
        self._db.last_query_profile = analyzed
        if _slowlog.enabled and stats.total_us >= _slowlog.slow_query_us:
            threshold = _slowlog.slow_query_us
            _slowlog.record(
                "query",
                stats.total_us,
                threshold,
                signal="query_slow",
                signal_payload={
                    "class_name": plan.class_name,
                    "access_path": plan.access_path,
                    "micros": stats.total_us,
                    "threshold_us": threshold,
                },
                access_path=plan.access_path,
                rows=stats.returned,
                plan=analyzed.to_json(),
                **{"class": plan.class_name},
            )
        return rows

    def _run_analyzed(
        self, plan: QueryPlan
    ) -> tuple[list["Persistent"], ExecutionStats]:
        """Run :meth:`_execute` with per-stage stats, plus the whole-run
        numbers: index probes, page pins, buffer-pool hits and misses and
        total time.

        The per-row ``perf_counter`` bracketing costs a few hundred
        ns/row, which is why profiling is opt-in (``analyze=True`` /
        ``profile_queries`` / open slow-op log) rather than the default.
        """
        stats = ExecutionStats()
        total0 = perf_counter()
        stats.index_probes = len(plan.index_filters) or (
            1 if plan.access_path == "index_order" else 0
        )
        pool = getattr(self._db, "_pool", None)
        if pool is not None:
            hits0, misses0 = pool.stats.hits, pool.stats.misses
        pins = metrics.counter("fetch_many_page_pins")
        pins0 = pins.value

        out = list(self._execute(plan, stats))

        stats.returned = len(out)
        stats.page_pins = pins.value - pins0
        if pool is not None:
            stats.buffer_hits = pool.stats.hits - hits0
            stats.buffer_misses = pool.stats.misses - misses0
        stats.total_us = (perf_counter() - total0) * 1e6
        return out, stats

    def _ambient_snapshot(self) -> "Any | None":
        db = self._db
        if db._snapshots_active:
            return db._ambient_snapshot()
        return None

    def _shared_state(self) -> AbstractContextManager[bool]:
        """The database state lock when writers run concurrently, else a
        no-op context; entering it gives True only when the lock is held.
        Planning, candidate generation and index-only terminals read the
        shared extent sets and index trees under it."""
        if self._db.locking:
            return self._db._state_lock
        return nullcontext(False)

    def _effective_passes(self, plan: QueryPlan) -> Callable[[Any], bool]:
        """The residual filter, plus index-filter re-checks under snapshots.

        Index lookups match *current* values, but a snapshot copy carries
        the values as of the snapshot watermark — so inside
        ``with db.snapshot():`` every index-applied comparison (both ends
        of a two-sided range) is re-applied against the fetched copy,
        ahead of the residual filters.
        """
        # Bind the comparator tuples now: generator pipelines evaluate
        # lazily, so closing over loop variables directly would apply only
        # the last filter to every stage.
        checks = [
            (attribute, _OPS[op], value)
            for attribute, op, value in plan.residual_filters
        ]
        if plan.index_filters and self._ambient_snapshot() is not None:
            checks[:0] = [
                (choice.attribute, _OPS[op], value)
                for choice in plan.index_filters
                for op, value in choice.comparisons
            ]
        predicates = list(self._predicates)

        def passes(obj: Any) -> bool:
            for attribute, compare, value in checks:
                attr_value = getattr(obj, attribute, _MISSING)
                if attr_value is _MISSING or not compare(attr_value, value):
                    return False
            return all(predicate(obj) for predicate in predicates)

        return passes

    # ------------------------------------------------------------------
    # Candidate generation (index-aware)
    # ------------------------------------------------------------------
    def _collect_candidates(self, plan: QueryPlan) -> Iterable[Oid]:
        """Candidate OIDs; eagerly materialized under the state lock when
        concurrent writers may mutate the extents and index trees the lazy
        generators walk."""
        with self._shared_state() as locked:
            oids = self._candidate_oids(plan, self._wanted())
            return list(oids) if locked else oids

    def _candidate_oids(
        self, plan: QueryPlan, wanted: set[Oid]
    ) -> Iterator[Oid]:
        if plan.access_path == "extent_scan":
            return iter(sorted(wanted))
        if plan.access_path == "index_order":
            return self._ordered_extent_oids(plan, wanted)
        primary = plan.index_filters[0]
        if len(plan.index_filters) > 1:
            oid_set = self._index_candidate_set(plan, wanted)
            return iter(sorted(oid_set))
        reverse = (
            plan.order is not None
            and not plan.sort_needed
            and plan.order[1]
            and primary.op != "=="
        )
        # Index lookups cover the whole class family; re-check membership
        # against the extent the caller actually asked for.
        return (
            oid
            for oid in self._index_oids(primary, reverse=reverse)
            if oid in wanted
        )

    def _ordered_extent_oids(
        self, plan: QueryPlan, wanted: set[Oid]
    ) -> Iterator[Oid]:
        """Extent OIDs streamed in ``order_by`` key order from the index."""
        assert plan.order is not None
        attribute, descending = plan.order
        state = self._require_state(attribute, "btree")
        assert isinstance(state.tree, BTree)
        for _key, oid in state.tree.range(reverse=descending):
            if oid in wanted:
                yield oid
        # Extent members the index has never seen lack the attribute
        # entirely; they sort last, in stable OID order.
        stragglers = wanted.difference(state.keyed)
        yield from sorted(stragglers)

    def _index_candidate_set(
        self, plan: QueryPlan, wanted: set[Oid]
    ) -> set[Oid]:
        result: set[Oid] | None = None
        for choice in plan.index_filters:
            oids = set(self._index_oid_list(choice))
            result = oids if result is None else result & oids
            if not result:
                return set()
        assert result is not None
        return result & wanted

    def _index_oid_list(self, choice: IndexChoice) -> list[Oid]:
        """Matching OIDs as one eager list (set building, counting)."""
        tree = self._require_state(choice.attribute, choice.kind).tree
        if choice.op == "==":
            return tree.search(choice.value)
        assert isinstance(tree, BTree)  # ranges never plan onto a hash
        return tree.range_values(*_bounds(choice))

    def _index_oids(
        self, choice: IndexChoice, reverse: bool = False
    ) -> Iterator[Oid]:
        tree = self._require_state(choice.attribute, choice.kind).tree
        if choice.op == "==":
            return iter(tree.search(choice.value))
        assert isinstance(tree, BTree)  # ranges never plan onto a hash
        low, high, inclusive = _bounds(choice)
        pairs = tree.range(low, high, inclusive=inclusive, reverse=reverse)
        return (oid for _key, oid in pairs)

    def _index_covers_extent(self, state: "_IndexState") -> bool:
        """True when every indexed OID is a member of the queried extent.

        Index lookups span the whole family of the class the index was
        defined on; when the query targets that same class with
        subclasses included, the two populations coincide and the
        extent-membership re-check is a no-op that can be skipped.
        """
        return (
            self._include_subclasses
            and state.definition.class_name == self._class_name
        )

    def _require_state(
        self, attribute: str, kind: str | None = None
    ) -> "_IndexState":
        state = self._db.indexes.covering(self._class_name, attribute, kind)
        if state is None:  # pragma: no cover - plan and execution share a stack
            raise QueryError(f"no index on {self._class_name}.{attribute}")
        return state

    def _fetch_stream(
        self, oids: Iterable[Oid], stats: ExecutionStats | None = None
    ) -> Iterator["Persistent"]:
        """Materialize OIDs in clustered batches, preserving order; with
        ``stats``, each batch (or snapshot fetch) is timed and counted."""
        snap = self._ambient_snapshot()
        if snap is not None:
            # Candidate membership is read-committed: an object created
            # after the snapshot began shows up here but did not exist at
            # the snapshot watermark — fetch_or_none skips it.
            fetch_one = snap.fetch_or_none
            if stats is not None:
                fetch_one = _charge_fetch(
                    fetch_one, stats, lambda obj: obj is not None
                )
            for oid in oids:
                obj = fetch_one(oid)
                if obj is not None:
                    yield obj
            return
        fetch_many = self._db.fetch_many
        if stats is not None:
            fetch_many = _charge_fetch(fetch_many, stats, len)
        batch: list[Oid] = []
        for oid in oids:
            batch.append(oid)
            if len(batch) >= _FETCH_CHUNK:
                yield from fetch_many(batch)
                batch = []
        if batch:
            yield from fetch_many(batch)

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def all(self) -> list["Persistent"]:
        return list(self)

    def first(self) -> "Persistent | None":
        for obj in self:
            return obj
        return None

    def one(self) -> "Persistent":
        if self._limit is None:
            # Probe for a second match without mutating the builder.
            results = list(islice(self, 2))
        else:
            results = self.all()
        if len(results) != 1:
            raise QueryError(
                f"expected exactly one result, got {len(results)}"
            )
        return results[0]

    def count(self) -> int:
        """Number of matching objects.

        Index-only when the plan has no residual work: the answer comes
        from OID-set arithmetic over the B-tree(s) and the extent, without
        materializing a single object.
        """
        plan = self._prepare()
        if not self._index_answers(plan):
            return sum(1 for _ in self._rows(plan))
        with self._shared_state():
            if not plan.index_filters:
                matched = plan.extent_size
            else:
                choice = plan.index_filters[0]
                state = self._require_state(choice.attribute)
                if len(plan.index_filters) == 1 and self._index_covers_extent(state):
                    # Exact count straight off the B-tree — no OID set, no
                    # membership re-check.
                    if choice.op == "==":
                        matched = state.tree.count_key(choice.value)
                    else:
                        matched = state.tree.count_range(*_bounds(choice))
                else:
                    matched = len(self._index_candidate_set(plan, self._wanted()))
        return matched if plan.limit is None else min(matched, plan.limit)

    def exists(self) -> bool:
        """True if at least one object matches (index-only when possible)."""
        plan = self._prepare()
        if plan.limit == 0:
            return False
        if not self._index_answers(plan):
            # The first match answers: a limit of 1 stops the stream there.
            for _obj in self._rows(replace(plan, limit=1)):
                return True
            return False
        with self._shared_state():
            if not plan.index_filters:
                return plan.extent_size > 0
            if len(plan.index_filters) > 1:
                return bool(self._index_candidate_set(plan, self._wanted()))
            choice = plan.index_filters[0]
            state = self._require_state(choice.attribute)
            if not self._index_covers_extent(state):
                wanted = self._wanted()
                return any(oid in wanted for oid in self._index_oids(choice))
            if choice.op == "==":
                return state.tree.count_key(choice.value) > 0
            for _oid in self._index_oids(choice):
                return True
            return False

    def _index_answers(self, plan: QueryPlan) -> bool:
        """Whether ``count()``/``exists()`` answer ``plan`` from the indexes
        alone; if so, the answer is counted as an execution.

        Inside a snapshot the index carries *current* values, so the
        shortcut would count the wrong world — those fall through to the
        snapshot-consistent row path (still lock-free).
        """
        if not plan.index_only or self._ambient_snapshot() is not None:
            return False
        self._note_execution(plan)
        metrics.counter("index_only_answers").inc()
        return True


def _bounds(
    choice: IndexChoice,
) -> tuple[Any, Any, tuple[bool, bool]]:
    """B-tree ``(low, high, inclusive)`` bounds for a range choice; an end
    with no bound is open (``None``)."""
    low = high = None
    low_inclusive = high_inclusive = True
    for op, value in choice.comparisons:
        if op in ("<", "<="):
            high, high_inclusive = value, op == "<="
        else:
            low, low_inclusive = value, op == ">="
    return low, high, (low_inclusive, high_inclusive)


def _tighter(
    bound: tuple[str, Any], current: tuple[str, Any] | None
) -> tuple[str, Any]:
    """The stricter of two bounds on the same side of a range; at equal
    values the exclusive operator (``>`` / ``<``) wins."""
    if current is None:
        return bound
    op, value = bound
    if value == current[1]:
        return bound if op in (">", "<") else current
    return bound if (value < current[1]) == (op in ("<", "<=")) else current


def _timed_oids(oids: Iterable[Oid], stats: ExecutionStats) -> Iterator[Oid]:
    """Pass OIDs through, charging generator time to the access stage."""
    t0 = perf_counter()
    for oid in oids:
        stats.access_us += (perf_counter() - t0) * 1e6
        stats.candidates += 1
        yield oid
        t0 = perf_counter()
    stats.access_us += (perf_counter() - t0) * 1e6


def _timed_filter(
    passes: Callable[[Any], bool], stats: ExecutionStats
) -> Callable[[Any], bool]:
    """``passes`` charging its time and its rejections to the filter stage."""

    def timed(obj: Any) -> bool:
        t0 = perf_counter()
        ok = passes(obj)
        stats.filter_us += (perf_counter() - t0) * 1e6
        if not ok:
            stats.residual_dropped += 1
        return ok

    return timed


def _charge_fetch(
    fetch: Callable[[Any], Any],
    stats: ExecutionStats,
    count: Callable[[Any], int],
) -> Callable[[Any], Any]:
    """``fetch`` charging its time and the ``count`` of objects it returned
    to the fetch stage."""

    def timed(arg: Any) -> Any:
        t0 = perf_counter()
        out = fetch(arg)
        stats.fetch_us += (perf_counter() - t0) * 1e6
        stats.fetched += count(out)
        return out

    return timed
