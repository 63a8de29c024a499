"""The database façade.

:class:`Database` is the substrate the paper builds Sentinel on — our
stand-in for Zeitgeist.  It wires together the buffer pool, heap file,
write-ahead log, serializer, class registry, extents, indexes, locks, and
transaction manager, and exposes the object-store surface that the Sentinel
layer (and applications) use:

* ``add`` / ``fetch`` / ``delete`` persistent objects,
* ``transaction()`` / ``begin`` / ``commit`` / ``abort``,
* named roots (persistence by reachability from roots, Zeitgeist-style),
* ``query(Class)`` over class extents,
* ``create_index`` for attribute indexes,
* crash recovery on open, ``checkpoint`` to truncate the log.

Databases can also run fully in memory (``path=None``): the same code paths
minus the disk, which is what the event/rule benchmarks use so that storage
I/O does not drown out the costs the paper reasons about.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..obs.metrics import metrics
from . import codec
from .buffer import BufferPool
from .errors import (
    DatabaseClosed,
    ObjectNotFound,
    OODBError,
    SerializationError,
    TransactionAborted,
    TransactionError,
)
from .index import IndexDefinition, IndexManager
from .locks import LockManager, LockMode
from .oid import NULL_OID, Oid, OidAllocator
from .query import Query
from .recovery import RecoveryReport, replay
from .schema import ClassRegistry, Extents, Persistent, global_registry
from .serializer import Serializer
from .storage.heap import HeapFile, RecordId
from .storage.wal import WriteAheadLog
from .transactions import Transaction, TransactionManager
from .versions import VersionStore

__all__ = ["Database", "RootMap", "Snapshot"]

_MISSING = object()


class RootMap(Persistent):
    """The named-roots object: a persistent dictionary of name → object."""

    def __init__(self) -> None:
        super().__init__()
        self.entries: dict[str, Any] = {}


class Database:
    """An object database with ACID transactions and crash recovery.

    Parameters
    ----------
    path:
        Directory for the data files, or ``None`` for a purely in-memory
        database (no WAL, no heap; transactions still roll back correctly).
    registry:
        Class registry to decode records with; defaults to the process-wide
        registry.
    sync:
        Whether commits fsync the WAL (durability vs. speed).
    fsync:
        Finer-grained fsync policy (``"commit"``, ``"always"`` or
        ``"never"``, see :data:`~repro.oodb.storage.wal.FSYNC_POLICIES`);
        overrides ``sync`` when given.
    group_commit:
        Log each transaction as one batched WAL write (default) instead of
        one write per record.  Same bytes on disk either way; the knob
        exists so recovery can be exercised against both paths.
    locking:
        Whether to acquire per-object locks (needed only for multithreaded
        use; single-threaded benchmarks leave it off).  With locking on,
        every transactional read S-locks and every write X-locks its
        object (strict 2PL, released at commit/abort), and the database's
        shared structures (identity map, extents, indexes, locations) are
        guarded by an internal state lock.

    Concurrency model (see DESIGN.md "Concurrency model" for the full
    matrix): writers isolate through strict 2PL; read-only work can
    instead run inside ``with db.snapshot():`` — an MVCC snapshot pinned
    to the commit-timestamp watermark, serving detached copies from a
    small version store of pre-images, taking **no object locks** and
    never blocking (or being blocked by) writers.  Lock order, outermost
    first: 2PL object locks → ``_state_lock`` → heap lock → buffer-pool
    lock; 2PL locks are never requested while an internal mutex is held.
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        *,
        registry: ClassRegistry | None = None,
        sync: bool = True,
        fsync: str | None = None,
        group_commit: bool = True,
        locking: bool = False,
        buffer_capacity: int = 256,
        profile_queries: bool = False,
    ) -> None:
        self.registry = registry or global_registry
        # The catalog's own classes must decode regardless of which
        # registry the application supplies.
        self.registry.register(RootMap)
        self.locking = locking
        self.group_commit = group_commit
        #: When True every query executes through the instrumented
        #: pipeline (see ``Query.explain(analyze=True)``); the most
        #: recent evidence is kept on :attr:`last_query_profile`.
        self.profile_queries = profile_queries
        #: The ``AnalyzedPlan`` of the last profiled query execution.
        self.last_query_profile: Any | None = None
        self.locks = LockManager()
        self.extents = Extents(self.registry)
        self.indexes = IndexManager(self.registry.family)
        self.serializer = Serializer(self)
        self.txn_manager = TransactionManager(self)
        self.allocator = OidAllocator()
        self._cache: dict[Oid, Persistent] = {}
        self._locations: dict[Oid, RecordId] = {}
        self._closed = False
        self._root_map: RootMap | None = None
        # Guards shared structure mutation (cache registration, extents,
        # indexes, locations, commit apply, checkpoint) and the MVCC
        # watermark.  Re-entrant; never held across a 2PL lock acquire,
        # an fsync, or attribute decoding.
        self._state_lock = threading.RLock()
        # Checkpoint gate: commits register while their WAL-log + apply
        # phases run; a checkpoint stalls new commits and waits the
        # in-flight ones out before truncating the log.
        self._ckpt_gate = threading.Condition(threading.Lock())
        self._commits_in_flight = 0
        self._checkpointing = False
        #: Commit-timestamp watermark: bumped (last) by every commit that
        #: writes, read by snapshots.  Monotonic per database.
        self._commit_ts = 0
        #: Pre-image store for MVCC snapshot reads (empty unless a
        #: snapshot is open).
        self.versions = VersionStore()
        self._snap_local = threading.local()
        # Fast fetch-path guard: nonzero only while any snapshot is open
        # anywhere in the process, so the common path pays one int check.
        self._snapshots_active = 0

        self._in_memory = path is None
        if self._in_memory:
            self._dir = None
            self._pool = None
            self._heap = None
            self._wal = None
            self._memory_records: dict[Oid, bytes] = {}
            self.last_recovery: RecoveryReport | None = None
        else:
            self._dir = os.fspath(path)
            os.makedirs(self._dir, exist_ok=True)
            self._pool = BufferPool(capacity=buffer_capacity)
            self._heap = HeapFile(os.path.join(self._dir, "data.heap"), self._pool)
            # Concurrent databases get the dedicated WAL-syncer thread:
            # committers publish a target LSN and overlap their CPU work
            # with the daemon's back-to-back fsyncs (async group commit).
            # Single-threaded databases keep the cheaper inline
            # leader-follower fsync — no handoff, no extra thread.
            self._wal = WriteAheadLog(
                os.path.join(self._dir, "wal.log"),
                sync=sync,
                fsync_policy=fsync,
                syncer=locking,
            )
            self._memory_records = {}
            self.last_recovery = self._recover_and_load()

    @property
    def wal(self) -> "WriteAheadLog | None":
        """The write-ahead log (None for in-memory databases).

        Public so health checks (``repro.obs.exporter.build_checks``)
        and diagnostics (``repro.tools.doctor``) can probe WAL
        writability without reaching into privates.
        """
        return self._wal

    # ------------------------------------------------------------------
    # Open-time recovery and loading
    # ------------------------------------------------------------------
    def _meta_path(self) -> str:
        assert self._dir is not None
        return os.path.join(self._dir, "meta.json")

    def _recover_and_load(self) -> RecoveryReport:
        assert self._heap is not None and self._wal is not None
        # 1. Rebuild the OID -> record-id map from the heap.  One scan
        # collects locations *and* class names: ``codec.record_meta``
        # peeks the fixed header of packed records and parses JSON ones,
        # so open never decodes packed attribute data.
        max_oid = 0
        classes: dict[Oid, str] = {}
        for rid, payload in self._heap.scan():
            oid_value, class_name = codec.record_meta(payload)
            oid = Oid(oid_value)
            self._locations[oid] = rid
            classes[oid] = class_name
            max_oid = max(max_oid, oid_value)

        # 2. Replay the WAL over the heap (idempotent upserts), keeping
        # the class map in step with inserts and deletes.
        report = replay(
            self._wal,
            lambda oid_value, redo: self._apply_recovered_update(
                oid_value, redo, classes
            ),
        )
        max_oid = max(max_oid, report.max_oid_seen)

        # 3. Load the catalog (allocator high-water mark, roots, indexes).
        meta: dict[str, Any] = {}
        if os.path.exists(self._meta_path()):
            with open(self._meta_path()) as handle:
                meta = json.load(handle)
        self.allocator = OidAllocator(max(meta.get("allocator", 1), max_oid + 1))

        # 4. Rebuild extents from the post-replay class map.
        for oid, class_name in classes.items():
            if oid in self._locations and class_name in self.registry:
                self.extents.add(class_name, oid)

        # 5. Recreate and rebuild indexes.
        for entry in meta.get("indexes", []):
            self.indexes.create(IndexDefinition(**entry))
        self._rebuild_indexes()

        # 6. Reattach the root map.  The catalog pointer is preferred, but
        # after a crash that preceded any checkpoint the meta file may not
        # exist yet — fall back to the RootMap class extent.
        root_oid = meta.get("root_oid")
        if not root_oid:
            extent = self.extents.of("RootMap", include_subclasses=False)
            root_oid = min(extent).value if extent else None
        if root_oid:
            try:
                self._root_map = self.fetch(Oid(root_oid))  # type: ignore[assignment]
            except ObjectNotFound:
                self._root_map = None

        # 7. Make the redone state durable and truncate the log.
        if not report.clean:
            self.checkpoint()
        return report

    def _apply_recovered_update(
        self,
        oid_value: int,
        redo: dict[str, Any] | bytes | None,
        classes: dict[Oid, str] | None = None,
    ) -> None:
        assert self._heap is not None
        oid = Oid(oid_value)
        rid = self._locations.get(oid)
        if redo is None:
            if rid is not None:
                self._heap.delete(rid)
                del self._locations[oid]
            if classes is not None:
                classes.pop(oid, None)
            return
        if isinstance(redo, bytes):
            # Binary WAL entry: the redo image *is* the packed heap
            # payload — write it back verbatim.
            payload = redo
            class_name = codec.record_meta(payload)[1]
        else:
            payload = Serializer.record_to_bytes({"oid": oid.value, **redo})
            class_name = redo["class"]
        if rid is None:
            self._locations[oid] = self._heap.insert(payload)
        else:
            self._locations[oid] = self._heap.update(rid, payload)
        if classes is not None:
            classes[oid] = class_name

    def _rebuild_indexes(self) -> None:
        self.indexes.clear()
        for definition in self.indexes.definitions():
            for oid in self.extents.of(definition.class_name):
                obj = self.fetch(oid)
                self.indexes.on_add(
                    type(obj)._p_class_name,  # type: ignore[attr-defined]
                    oid,
                    _plain_attrs(obj),
                )

    # ------------------------------------------------------------------
    # Serializer resolver protocol
    # ------------------------------------------------------------------
    def resolve_reference(self, oid: Oid) -> Persistent:
        return self.fetch(oid)

    def reference_for(self, obj: Any) -> Oid | None:
        if not isinstance(obj, Persistent):
            return None
        if obj._p_db is None:
            # Persistence by reachability: storing a reference to a
            # transient persistent-capable object pulls it into the store.
            self.add(obj)
        elif obj._p_db is not self:
            raise SerializationError(
                f"{obj!r} belongs to a different database"
            )
        assert obj._p_oid is not None
        return obj._p_oid

    def class_for_name(self, name: str) -> type:
        return self.registry.get(name)

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def add(self, obj: Persistent) -> Oid:
        """Make ``obj`` persistent: allocate an OID and track its creation."""
        self._require_open()
        if not isinstance(obj, Persistent):
            raise TypeError(
                f"only Persistent instances can be stored, got "
                f"{type(obj).__name__}"
            )
        if obj._p_db is self:
            assert obj._p_oid is not None
            return obj._p_oid
        if obj._p_db is not None:
            raise SerializationError(f"{obj!r} belongs to a different database")
        txn = self.txn_manager.ensure_current()
        oid = self.allocator.allocate()
        object.__setattr__(obj, "_p_oid", oid)
        object.__setattr__(obj, "_p_db", self)
        class_name = type(obj)._p_class_name  # type: ignore[attr-defined]
        if self.locking:
            self.locks.acquire(txn.id, oid, LockMode.EXCLUSIVE)
            with self._state_lock:
                self._cache[oid] = obj
                self.extents.add(class_name, oid)
                if self.indexes.covers(class_name):
                    self.indexes.on_add(class_name, oid, _plain_attrs(obj))
        else:
            self._cache[oid] = obj
            self.extents.add(class_name, oid)
            if self.indexes.covers(class_name):
                self.indexes.on_add(class_name, oid, _plain_attrs(obj))
        txn.note_created(obj)
        return oid

    def fetch(self, oid: Oid) -> Persistent:
        """Return the object identified by ``oid`` (identity-map semantics).

        Inside ``with db.snapshot():`` the read is served from the
        snapshot instead — a detached copy of the committed state at the
        snapshot's watermark, with no lock taken.  With locking on and a
        transaction active, the read S-locks ``oid`` first (strict 2PL).
        """
        self._require_open()
        if oid == NULL_OID:
            raise ObjectNotFound(oid)
        if self._snapshots_active:
            snap = self._ambient_snapshot()
            if snap is not None:
                return snap.fetch(oid)
        if self.locking:
            txn = self.txn_manager.current
            if txn is not None:
                self.locks.acquire(txn.id, oid, LockMode.SHARED)
        cached = self._cache.get(oid)
        if cached is not None:
            return cached
        record = self._stored_record(oid)
        if record is None:
            raise ObjectNotFound(oid)
        return self._materialize(oid, record)

    def _materialize(self, oid: Oid, record: dict[str, Any]) -> Persistent:
        """Decode ``record`` into a live cached instance for ``oid``."""
        cached = self._cache.get(oid)
        if cached is not None:
            # A reference cycle in an earlier batch entry already pulled
            # this object in; keep identity-map semantics.
            return cached
        cls = self.registry.get(record["class"])
        obj: Persistent = cls.__new__(cls)
        object.__setattr__(obj, "_p_oid", oid)
        object.__setattr__(obj, "_p_db", self)
        # Register before decoding attributes so reference cycles resolve.
        # Under locking, the registration double-checks inside the state
        # lock so two threads cold-fetching the same OID cannot install
        # two distinct live instances (split identity); decoding happens
        # outside the lock because it may recursively fetch references.
        if self.locking:
            with self._state_lock:
                cached = self._cache.get(oid)
                if cached is not None:
                    return cached
                self._cache[oid] = obj
        else:
            self._cache[oid] = obj
        self.serializer.decode_object(record, obj)
        # Give the object a chance to restore transient wiring (e.g.
        # composite events re-attach themselves as listeners on children).
        after_load = getattr(obj, "_p_after_load", None)
        if after_load is not None:
            after_load()
        return obj

    def fetch_many(self, oids: "list[Oid]") -> "list[Persistent]":
        """Fetch a batch of objects, clustered by heap page.

        Cache hits are served directly; the misses are sorted by
        ``(page, slot)`` and read through :meth:`HeapFile.read_many`, which
        pins each page once and reads runs of consecutive pages ahead.
        Returns the objects in the order the OIDs were given (duplicates
        allowed); raises :class:`ObjectNotFound` like :meth:`fetch`.
        """
        self._require_open()
        if self._snapshots_active:
            snap = self._ambient_snapshot()
            if snap is not None:
                return [snap.fetch(oid) for oid in oids]
        if self.locking:
            txn = self.txn_manager.current
            if txn is not None:
                for oid in dict.fromkeys(oids):
                    self.locks.acquire(txn.id, oid, LockMode.SHARED)
        misses: list[Oid] = []
        seen: set[Oid] = set()
        for oid in oids:
            if oid not in self._cache and oid not in seen:
                seen.add(oid)
                misses.append(oid)
        if misses:
            if self._in_memory or self._heap is None:
                for oid in misses:
                    self.fetch(oid)
            else:
                located: list[tuple[RecordId, Oid]] = []
                for oid in misses:
                    if oid == NULL_OID:
                        raise ObjectNotFound(oid)
                    rid = self._locations.get(oid)
                    if rid is None:
                        raise ObjectNotFound(oid)
                    located.append((rid, oid))
                located.sort()
                payloads = self._heap.read_many([rid for rid, _ in located])
                metrics.counter("fetch_many_page_pins").inc(
                    len({rid.page for rid, _ in located})
                )
                for rid, oid in located:
                    self._materialize(
                        oid, self.serializer.record_from_payload(payloads[rid])
                    )
        return [self.fetch(oid) for oid in oids]

    def delete(self, obj: Persistent) -> None:
        """Remove ``obj`` from the store (undone if the txn aborts)."""
        self._require_open()
        if obj._p_db is not self or obj._p_oid is None:
            raise ObjectNotFound(getattr(obj, "_p_oid", None))
        txn = self.txn_manager.ensure_current()
        oid = obj._p_oid
        class_name = type(obj)._p_class_name  # type: ignore[attr-defined]
        if self.locking:
            self.locks.acquire(txn.id, oid, LockMode.EXCLUSIVE)
            txn.note_deleted(obj)
            with self._state_lock:
                self.extents.remove(class_name, oid)
                self.indexes.on_remove(class_name, oid)
                self._cache.pop(oid, None)
        else:
            txn.note_deleted(obj)
            self.extents.remove(class_name, oid)
            self.indexes.on_remove(class_name, oid)
            self._cache.pop(oid, None)

    def contains(self, oid: Oid) -> bool:
        return oid in self._cache or self._stored_record(oid) is not None

    def _stored_record(self, oid: Oid) -> dict[str, Any] | None:
        if self._in_memory:
            payload = self._memory_records.get(oid)
            if payload is None:
                return None
            return self.serializer.record_from_payload(payload)
        rid = self._locations.get(oid)
        if rid is None:
            return None
        assert self._heap is not None
        return self.serializer.record_from_payload(self._heap.read(rid))

    # ------------------------------------------------------------------
    # Change-tracking hooks (called from Persistent.__setattr__)
    # ------------------------------------------------------------------
    def _before_modify(self, obj: Persistent) -> None:
        if self._closed:
            raise DatabaseClosed("database is closed")
        txn = self.txn_manager.ensure_current()
        if txn._restoring:
            return
        assert obj._p_oid is not None
        if self.locking:
            self.locks.acquire(txn.id, obj._p_oid, LockMode.EXCLUSIVE)
        txn.note_modified(obj)

    def _after_modify(
        self, obj: Persistent, name: str, old: Any, new: Any
    ) -> None:
        assert obj._p_oid is not None
        if self.locking:
            # Index structures are shared; a concurrent query collecting
            # candidates holds the same lock.
            with self._state_lock:
                self.indexes.on_update(
                    type(obj)._p_class_name,  # type: ignore[attr-defined]
                    obj._p_oid,
                    name,
                    new,
                )
        else:
            self.indexes.on_update(
                type(obj)._p_class_name,  # type: ignore[attr-defined]
                obj._p_oid,
                name,
                new,
            )

    def _current_record(self, oid: Oid) -> dict[str, Any] | None:
        """Before image for undo: last committed state, from storage."""
        record = self._stored_record(oid)
        if record is None:
            return None
        record.pop("oid", None)
        return record

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._require_open()
        return self.txn_manager.begin()

    def commit(self) -> None:
        """Commit the current (explicit or implicit) transaction."""
        txn = self.txn_manager.current
        if txn is None:
            return
        self.txn_manager.commit(txn)

    def abort(self) -> None:
        """Roll back the current transaction (no-op when none is active)."""
        txn = self.txn_manager.current
        if txn is not None:
            self.txn_manager.rollback(txn)

    @property
    def current_transaction(self) -> Transaction | None:
        return self.txn_manager.current

    def lock_for_update(self, obj: Persistent) -> None:
        """Take the exclusive lock on ``obj`` *before* reading it.

        Read-modify-write sequences (``obj.n += 1``) read without a lock;
        under concurrency two transactions can both read the old value
        and lose an update.  Calling this first (the ``SELECT ... FOR
        UPDATE`` idiom) serializes the whole sequence.  No-op when
        locking is disabled.
        """
        if not self.locking:
            return
        if obj._p_db is not self or obj._p_oid is None:
            raise ObjectNotFound(getattr(obj, "_p_oid", None))
        txn = self.txn_manager.ensure_current()
        self.locks.acquire(txn.id, obj._p_oid, LockMode.EXCLUSIVE)

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with db.transaction():`` — commit on success, abort on error.

        :class:`TransactionAborted` raised inside (e.g. by a rule's abort
        action) propagates to the caller after rollback.
        """
        txn = self.begin()
        try:
            yield txn
        except TransactionAborted:
            self.txn_manager.rollback(txn)
            raise
        except BaseException:
            self.txn_manager.rollback(txn)
            raise
        else:
            self.txn_manager.commit(txn)

    def run_transaction(
        self,
        fn: "Callable[[], Any]",
        *,
        attempts: int = 5,
        backoff: float = 0.002,
    ) -> Any:
        """Run ``fn`` inside a transaction, retrying retryable aborts.

        Deadlock victims and lock timeouts surface as :class:`LockError`
        subclasses with ``retryable = True``; their transaction rolled
        back cleanly, so the work is rerun in a fresh transaction after a
        short linear backoff, up to ``attempts`` times.  Non-retryable
        errors propagate immediately.  Returns whatever ``fn`` returned
        on the attempt that committed; raises the last retryable error
        when every attempt loses.
        """
        self._require_open()
        last: OODBError | None = None
        for attempt in range(attempts):
            try:
                with self.transaction():
                    return fn()
            except OODBError as exc:
                if not exc.retryable:
                    raise
                last = exc
                metrics.counter("txn_retries").inc()
                if attempt + 1 < attempts:
                    time.sleep(backoff * (attempt + 1))
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # MVCC snapshot reads
    # ------------------------------------------------------------------
    @contextmanager
    def snapshot(self) -> "Iterator[Snapshot]":
        """``with db.snapshot() as snap:`` — a frozen, lock-free read view.

        Reads inside the block (``db.fetch``/``db.query`` on this thread,
        or ``snap.fetch`` directly) see the committed state as of the
        moment the block was entered.  They never touch the lock manager,
        so they cannot block — or be blocked by — concurrent writers.
        Objects come back as *detached copies* (``obj._p_db is None``):
        mutating one changes nothing in the store.
        """
        snap = self.begin_snapshot()
        try:
            yield snap
        finally:
            self.end_snapshot(snap)

    def begin_snapshot(self) -> "Snapshot":
        """Open a snapshot explicitly (prefer ``with db.snapshot():``).

        The snapshot becomes the thread's *ambient* read context:
        ``fetch``/``fetch_many`` (and queries built on them) on this
        thread are served from it until :meth:`end_snapshot`.
        """
        self._require_open()
        with self._state_lock:
            # Atomic with a committing writer: either the snapshot starts
            # before the commit's publish (and resolves its pre-images)
            # or after its watermark bump (and reads its results).
            ts = self._commit_ts
            self.versions.register(ts)
            self._snapshots_active += 1
        snap = Snapshot(self, ts)
        stack = getattr(self._snap_local, "stack", None)
        if stack is None:
            stack = []
            self._snap_local.stack = stack
        stack.append(snap)
        return snap

    def end_snapshot(self, snap: "Snapshot") -> None:
        """Close ``snap``: drop the ambient binding, prune old versions."""
        if snap._closed:
            return
        snap._closed = True
        stack = getattr(self._snap_local, "stack", None)
        if stack and snap in stack:
            stack.remove(snap)
        with self._state_lock:
            self._snapshots_active -= 1
        self.versions.unregister(snap.ts)

    def _ambient_snapshot(self) -> "Snapshot | None":
        stack = getattr(self._snap_local, "stack", None)
        if stack:
            snap: Snapshot = stack[-1]
            return snap
        return None

    # ------------------------------------------------------------------
    # Commit/rollback application (called by the TransactionManager)
    # ------------------------------------------------------------------
    def _apply_commit(self, txn: Transaction) -> None:
        # Serializing touched objects can pull in newly-reachable objects
        # (persistence by reachability), so iterate to a fixed point.
        # Each record is encoded exactly once — classes with a ``_p_schema``
        # to their packed binary payload, the rest to a JSON string — and
        # the WAL and the heap both reuse the encoded form.
        payloads: dict[Oid, bytes] = {}
        wal_redo: dict[Oid, str | bytes] = {}
        while True:
            pending = [
                (oid, obj)
                for oid, obj in txn._touched.items()
                if oid not in payloads
            ]
            if not pending:
                break
            for oid, obj in pending:
                schema = codec.schema_for(type(obj))
                if schema is not None:
                    packed = self.serializer.encode_packed_payload(
                        oid.value, obj, schema
                    )
                    payloads[oid] = packed
                    wal_redo[oid] = packed
                else:
                    record = self.serializer.encode_object(obj)
                    encoded = Serializer.record_to_json(record)
                    payloads[oid] = Serializer.record_with_oid(oid.value, encoded)
                    wal_redo[oid] = encoded

        if not payloads and not txn._deleted:
            return

        # A checkpoint truncates the WAL; a commit that has logged but not
        # yet applied to the heap must not have its records truncated away.
        # The gate keeps a commit's two phases (WAL append+sync, store
        # apply) atomic with respect to checkpoints while leaving commits
        # free to overlap *each other* — group commit batches their fsyncs.
        with self._ckpt_gate:
            while self._checkpointing:
                self._ckpt_gate.wait()
            self._commits_in_flight += 1
        try:
            self._log_commit_wal(txn, payloads, wal_redo)
            self._apply_commit_store(txn, payloads)
        finally:
            with self._ckpt_gate:
                self._commits_in_flight -= 1
                if not self._commits_in_flight:
                    self._ckpt_gate.notify_all()

    def _log_commit_wal(
        self,
        txn: Transaction,
        payloads: "dict[Oid, bytes]",
        wal_redo: "dict[Oid, str | bytes]",
    ) -> None:
        if self._wal is not None:
            # Undo images of packed records carry live Oid/datetime
            # values; the log is JSON, so convert them to tagged form.
            # (Recovery is redo-only — the undo image is informational.)
            undo = {
                oid: None if before is None else codec.jsonable_record(before)
                for oid, before in txn._undo.items()
            }
            if self.group_commit:
                updates: list[Any] = [
                    (oid.value, undo.get(oid), wal_redo[oid]) for oid in payloads
                ]
                updates.extend(
                    (oid.value, undo.get(oid), None) for oid in txn._deleted
                )
                self._wal.log_transaction(txn.id, updates)
            else:
                self._wal.log_begin(txn.id)
                for oid in payloads:
                    self._wal.log_update(
                        txn.id, oid.value, undo.get(oid), wal_redo[oid]
                    )
                for oid in txn._deleted:
                    self._wal.log_update(txn.id, oid.value, undo.get(oid), None)
                self._wal.log_commit(txn.id)

    def _apply_commit_store(
        self, txn: Transaction, payloads: "dict[Oid, bytes]"
    ) -> None:
        # Apply under the state lock: snapshot registration, version
        # publication, the store mutations, and the watermark bump form
        # one atomic step against concurrent readers.  Pre-images go to
        # the version store *before* any heap mutation, so a lock-free
        # snapshot reader either resolves the pre-image or reads heap
        # state this commit has not reached yet — never torn state.
        with self._state_lock:
            commit_ts = self._commit_ts + 1
            if self.versions.active:
                pre_images: dict[Oid, dict[str, Any] | None] = {}
                for oid in payloads:
                    pre_images[oid] = txn._undo.get(oid)
                for oid in txn._deleted:
                    pre_images[oid] = txn._undo.get(oid)
                self.versions.publish(commit_ts, pre_images)
            for oid, obj in txn._deleted.items():
                # The object reverts to transient once the delete is durable.
                object.__setattr__(obj, "_p_db", None)
                object.__setattr__(obj, "_p_oid", None)
                if self._in_memory:
                    self._memory_records.pop(oid, None)
                    continue
                rid = self._locations.pop(oid, None)
                if rid is not None:
                    assert self._heap is not None
                    self._heap.delete(rid)
            for oid, payload in payloads.items():
                if self._in_memory:
                    self._memory_records[oid] = payload
                    continue
                assert self._heap is not None
                rid = self._locations.get(oid)
                if rid is None:
                    self._locations[oid] = self._heap.insert(payload)
                else:
                    self._locations[oid] = self._heap.update(rid, payload)
            # Bumped last: a snapshot beginning now starts at ``commit_ts``
            # and must see this commit's results, not its pre-images.
            self._commit_ts = commit_ts

    def _apply_rollback(self, txn: Transaction) -> None:
        for oid, obj in list(txn._touched.items()):
            if oid in txn._created:
                self._detach_created(obj)
                continue
            before = txn._undo.get(oid)
            if before is not None:
                self._restore_object(obj, before)
        for _oid, obj in txn._deleted.items():
            self._undelete(obj)
        if self._wal is not None:
            self._wal.log_abort(txn.id)

    def _restore_object(self, obj: Persistent, record: dict[str, Any]) -> None:
        """Reset ``obj``'s attributes to ``record`` and fix its indexes."""
        transient = set(type(obj)._p_transient)
        for name in list(vars(obj)):
            if not name.startswith("_p_") and name not in transient:
                object.__delattr__(obj, name)
        # Decoding may recursively fetch references (which takes 2PL
        # locks), so it stays outside the state lock.
        self.serializer.decode_object(record, obj)
        assert obj._p_oid is not None
        if self.locking:
            with self._state_lock:
                self.indexes.reindex(
                    type(obj)._p_class_name,  # type: ignore[attr-defined]
                    obj._p_oid,
                    _plain_attrs(obj),
                )
        else:
            self.indexes.reindex(
                type(obj)._p_class_name,  # type: ignore[attr-defined]
                obj._p_oid,
                _plain_attrs(obj),
            )

    def _detach_created(self, obj: Persistent) -> None:
        oid = obj._p_oid
        assert oid is not None
        class_name = type(obj)._p_class_name  # type: ignore[attr-defined]
        if self.locking:
            with self._state_lock:
                self.extents.remove(class_name, oid)
                self.indexes.on_remove(class_name, oid)
                self._cache.pop(oid, None)
        else:
            self.extents.remove(class_name, oid)
            self.indexes.on_remove(class_name, oid)
            self._cache.pop(oid, None)
        object.__setattr__(obj, "_p_db", None)
        object.__setattr__(obj, "_p_oid", None)

    def _undelete(self, obj: Persistent) -> None:
        oid = obj._p_oid
        assert oid is not None
        class_name = type(obj)._p_class_name  # type: ignore[attr-defined]
        if self.locking:
            with self._state_lock:
                self._cache[oid] = obj
                self.extents.add(class_name, oid)
                self.indexes.on_add(class_name, oid, _plain_attrs(obj))
        else:
            self._cache[oid] = obj
            self.extents.add(class_name, oid)
            self.indexes.on_add(class_name, oid, _plain_attrs(obj))

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def _ensure_root_map(self) -> RootMap:
        if self._root_map is None:
            self._root_map = RootMap()
            self.add(self._root_map)
        return self._root_map

    def set_root(self, name: str, obj: Persistent) -> None:
        """Bind ``obj`` under the persistent root ``name``."""
        roots = self._ensure_root_map()
        self.add(obj)
        entries = dict(roots.entries)
        entries[name] = obj
        roots.entries = entries

    def get_root(self, name: str, default: Any = None) -> Any:
        if self._root_map is None:
            return default
        return self._root_map.entries.get(name, default)

    def root_names(self) -> list[str]:
        if self._root_map is None:
            return []
        return sorted(self._root_map.entries)

    # ------------------------------------------------------------------
    # Queries and indexes
    # ------------------------------------------------------------------
    def query(self, cls: type | str, include_subclasses: bool = True) -> Query:
        self._require_open()
        return Query(self, cls, include_subclasses)

    def create_index(
        self,
        cls: type | str,
        attribute: str,
        unique: bool = False,
        kind: str = "btree",
    ) -> None:
        """Create a secondary index and build it from the current extent.

        ``kind`` selects the structure: ``"btree"`` (the default; serves
        equality, ranges, and ordered streaming) or ``"hash"`` (extendible
        hashing; equality only, cheaper point lookups — the planner costs
        them accordingly).
        """
        if isinstance(cls, str):
            class_name = cls
        else:
            class_name = cls._p_class_name  # type: ignore[attr-defined]
        definition = IndexDefinition(class_name, attribute, unique, kind)
        self.indexes.create(definition)
        for oid in self.extents.of(class_name):
            obj = self.fetch(oid)
            self.indexes.on_add(
                type(obj)._p_class_name,  # type: ignore[attr-defined]
                oid,
                _plain_attrs(obj),
            )

    # ------------------------------------------------------------------
    # Schema evolution
    # ------------------------------------------------------------------
    def migrate(
        self,
        cls: type | str,
        upgrade: "Any",
        include_subclasses: bool = True,
    ) -> int:
        """Apply ``upgrade(obj)`` to every stored instance of ``cls``.

        Runs in a single transaction (all-or-nothing), so a failing
        upgrade leaves every instance untouched.  This is the schema-
        evolution counterpart of the paper's extensibility argument:
        because rules and events are ordinary objects, *their* classes
        can be migrated with the same call as application classes.

        Returns the number of objects upgraded.
        """
        self._require_open()
        if isinstance(cls, str):
            class_name = cls
        else:
            class_name = cls._p_class_name  # type: ignore[attr-defined]
        oids = sorted(self.extents.of(class_name, include_subclasses))
        if not oids:
            return 0
        own_txn = self.txn_manager.current is None
        if own_txn:
            with self.transaction():
                for oid in oids:
                    upgrade(self.fetch(oid))
        else:
            for oid in oids:
                upgrade(self.fetch(oid))
        return len(oids)

    # ------------------------------------------------------------------
    # Garbage collection (persistence by reachability, both directions)
    # ------------------------------------------------------------------
    def collect_garbage(
        self, extra_roots: "list[Persistent] | None" = None
    ) -> tuple[int, int]:
        """Delete objects unreachable from the named roots.

        Storing a reference pulls objects *into* the store (persistence by
        reachability); this is the reverse direction — a mark-and-sweep
        over the committed object graph.  Marking walks the serialized
        records (``$ref`` edges), so it does not need to materialize the
        whole database.  The sweep runs in one ordinary transaction, so it
        is logged, recoverable, and rolls back as a unit on failure.

        ``extra_roots`` marks additional entry points (e.g. objects an
        application holds by OID outside the root map).  Returns
        ``(marked, swept)`` counts.  Requires no active transaction.
        """
        self._require_open()
        if self.txn_manager.current is not None:
            raise TransactionError(
                "collect_garbage must run outside any transaction"
            )
        stored = (
            set(self._memory_records)
            if self._in_memory
            else set(self._locations)
        )
        worklist: list[Oid] = []
        if self._root_map is not None and self._root_map._p_oid in stored:
            worklist.append(self._root_map._p_oid)
        for obj in extra_roots or ():
            if isinstance(obj, Persistent) and obj._p_oid in stored:
                worklist.append(obj._p_oid)

        marked: set[Oid] = set()
        while worklist:
            oid = worklist.pop()
            if oid in marked:
                continue
            marked.add(oid)
            record = self._stored_record(oid)
            if record is None:
                continue
            for target in _collect_refs(record["attrs"]):
                if target in stored and target not in marked:
                    worklist.append(target)

        victims = stored - marked
        if victims:
            with self.transaction():
                for oid in sorted(victims):
                    self.delete(self.fetch(oid))
        return len(marked), len(victims)

    # ------------------------------------------------------------------
    # Durability / lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Flush the heap, persist the catalog, truncate the WAL."""
        self._require_open()
        if self._in_memory:
            return
        assert self._heap is not None and self._wal is not None
        # Stall new commits and wait out in-flight ones: a commit that has
        # logged to the WAL but not yet applied to the heap must not have
        # its log records truncated out from under it.
        with self._ckpt_gate:
            while self._checkpointing:
                self._ckpt_gate.wait()
            self._checkpointing = True
            while self._commits_in_flight:
                self._ckpt_gate.wait()
        try:
            self._checkpoint_locked()
        finally:
            with self._ckpt_gate:
                self._checkpointing = False
                self._ckpt_gate.notify_all()

    def _checkpoint_locked(self) -> None:
        assert self._heap is not None and self._wal is not None
        with self._state_lock:
            self._heap.flush()
            meta = {
                "allocator": self.allocator.snapshot(),
                "root_oid": self._root_map._p_oid.value
                if self._root_map is not None and self._root_map._p_oid
                else None,
                "indexes": [
                    {
                        "class_name": d.class_name,
                        "attribute": d.attribute,
                        "unique": d.unique,
                        "kind": d.kind,
                    }
                    for d in self.indexes.definitions()
                ],
            }
            tmp = self._meta_path() + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(meta, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._meta_path())
            self._wal.truncate()

    def close(self) -> None:
        """Abort any active transaction, checkpoint, and release files."""
        if self._closed:
            return
        txn = self.txn_manager.current
        if txn is not None:
            self.txn_manager.rollback(txn)
        if not self._in_memory:
            self.checkpoint()
            assert self._heap is not None and self._wal is not None
            self._heap.close()
            self._wal.close()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise DatabaseClosed("database is closed")

    # ------------------------------------------------------------------
    # Introspection / testing aids
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        if self._in_memory:
            stored = set(self._memory_records)
        else:
            stored = set(self._locations)
        txn = self.txn_manager.current
        if txn is not None:
            stored |= txn.created_oids()
            stored -= txn.deleted_oids()
        return len(stored)

    def evict_cache(self) -> None:
        """Drop the identity map (testing: force re-reads from storage)."""
        for obj in self._cache.values():
            object.__setattr__(obj, "_p_db", None)
        self._cache.clear()

    # ------------------------------------------------------------------
    # Lock-order sanitizer
    # ------------------------------------------------------------------
    def _lock_class_of(self, oid: Oid) -> str:
        """Lock-class keyer: an OID's persistent class name.

        Falls back to ``oid:<n>`` for objects not in the identity map
        (evicted, or never loaded on this node) — the recorder must not
        trigger a storage read from inside the lock manager's mutex.
        """
        obj = self._cache.get(oid)
        if obj is not None:
            return str(type(obj)._p_class_name)  # type: ignore[attr-defined]
        return f"oid:{oid}"

    def enable_lockdep(self) -> Any:
        """Attach the runtime lock-order sanitizer (idempotent).

        Returns the :class:`~repro.oodb.lockdep.LockOrderRecorder`; its
        ``export()`` output feeds ``tools.analyze --lockdep-graph``.
        """
        return self.locks.enable_lockdep(self._lock_class_of)

    def disable_lockdep(self) -> None:
        """Detach the sanitizer; the lock path reverts to bare cost."""
        self.locks.disable_lockdep()

    @classmethod
    def temporary(cls, **kwargs: Any) -> "Database":
        """A database in a fresh temp directory (caller cleans up)."""
        return cls(tempfile.mkdtemp(prefix="repro-oodb-"), **kwargs)


class _SnapshotResolver:
    """Serializer resolver that routes ``$ref`` decoding through a snapshot.

    Snapshot copies are detached, so a reference inside one must resolve
    to another *snapshot* copy — never to a live cached object that a
    concurrent writer may be mutating.
    """

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: "Snapshot") -> None:
        self._snapshot = snapshot

    def resolve_reference(self, oid: Oid) -> Persistent:
        return self._snapshot.fetch(oid)

    def reference_for(self, obj: Any) -> Oid | None:
        # Snapshots never encode, but the resolver protocol requires it.
        if isinstance(obj, Persistent):
            return obj._p_oid
        return None

    def class_for_name(self, name: str) -> type:
        return self._snapshot._db.class_for_name(name)


class Snapshot:
    """A frozen, read-only view of the database at one commit watermark.

    Created by :meth:`Database.snapshot` / :meth:`Database.begin_snapshot`.
    Reads are **lock-free**: each OID resolves through the version store
    first (``commit_ts > ts`` → that commit's pre-image wins), falling
    through to the current stored record, with a resolve/read/resolve
    double-check so a heap read racing a commit's apply step can never
    surface torn state.

    Fetched objects are detached copies: ``_p_db is None``, attribute
    writes touch only the copy, ``_p_after_load`` transient re-wiring is
    skipped, and references decode to further snapshot copies.  The copy
    cache keeps identity *within* this snapshot (cycles resolve).

    Known read anomalies, accepted by design: extent membership used for
    query candidate collection is read at query time (read-committed),
    so an object created after the snapshot began appears in the
    candidate set but resolves to "did not exist" and is skipped.
    Index candidates likewise reflect *current*, possibly uncommitted,
    values (indexes move when an attribute is assigned, before commit).
    Queries re-check every index-served comparison against the snapshot
    copy, so no row outside the filter is returned, but a row whose
    current value left the filter is no longer a candidate.  This is
    also why ``count()`` is never index-only inside a snapshot.
    """

    __slots__ = ("_db", "ts", "_cache", "_serializer", "_closed")

    def __init__(self, db: Database, ts: int) -> None:
        self._db = db
        #: The commit-timestamp watermark this snapshot reads at.
        self.ts = ts
        self._cache: dict[Oid, Persistent] = {}
        self._serializer = Serializer(_SnapshotResolver(self))
        self._closed = False

    def record(self, oid: Oid) -> dict[str, Any] | None:
        """The committed record of ``oid`` at this snapshot (or ``None``).

        The server front end serializes straight from this, skipping
        object materialization.
        """
        db = self._db
        hit, pre = db.versions.resolve(oid, self.ts)
        if hit:
            return _with_oid(pre, oid)
        try:
            stored = db._stored_record(oid)
        except OODBError:
            # The lock-free heap read raced a commit moving the record;
            # publish-before-apply guarantees the pre-image is visible now.
            hit, pre = db.versions.resolve(oid, self.ts)
            if hit:
                return _with_oid(pre, oid)
            raise
        hit, pre = db.versions.resolve(oid, self.ts)
        if hit:
            # A commit overwrote the object mid-read; its pre-image is
            # the state as of this snapshot.
            return _with_oid(pre, oid)
        return stored

    def fetch(self, oid: Oid) -> Persistent:
        """A detached copy of ``oid`` as of this snapshot."""
        obj = self.fetch_or_none(oid)
        if obj is None:
            raise ObjectNotFound(oid)
        return obj

    def fetch_or_none(self, oid: Oid) -> Persistent | None:
        """Like :meth:`fetch` but ``None`` when absent at this snapshot."""
        if oid == NULL_OID:
            return None
        cached = self._cache.get(oid)
        if cached is not None:
            return cached
        record = self.record(oid)
        if record is None:
            return None
        cls = self._db.registry.get(record["class"])
        obj: Persistent = cls.__new__(cls)
        object.__setattr__(obj, "_p_oid", oid)
        object.__setattr__(obj, "_p_db", None)
        # Register before decoding so reference cycles resolve to this
        # same copy.  ``_p_after_load`` is deliberately skipped: transient
        # re-wiring expects a live database-bound object.
        self._cache[oid] = obj
        try:
            self._serializer.decode_object(record, obj)
        except BaseException:
            self._cache.pop(oid, None)
            raise
        return obj


def _with_oid(pre: dict[str, Any] | None, oid: Oid) -> dict[str, Any] | None:
    """A commit pre-image as a full record.  Undo images are kept without
    their ``oid`` (:meth:`Database._current_record`); readers get it back
    on a copy, so the shared pre-image is never mutated."""
    if pre is None:
        return None
    return {"oid": oid.value, **pre}


def _plain_attrs(obj: Persistent) -> dict[str, Any]:
    transient = set(type(obj)._p_transient)
    return {
        name: value
        for name, value in vars(obj).items()
        if not name.startswith("_p_") and name not in transient
    }


def _collect_refs(encoded) -> "list[Oid]":
    """Extract every $ref OID from an encoded attribute tree."""
    refs: list[Oid] = []
    stack = [encoded]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            if "$ref" in value and len(value) == 1:
                refs.append(Oid(value["$ref"]))
            else:
                stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return refs
