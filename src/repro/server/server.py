"""The rule-server front end: an active database behind an HTTP port.

The paper frames Sentinel as a *system* applications connect to, not a
library they link — rules live with the data and fire no matter which
client caused the triggering event.  :class:`RuleServer` realizes that
shape with nothing but the stdlib: a ``ThreadingHTTPServer`` (one thread
per connection) in front of a :class:`~repro.core.system.Sentinel`, so
many clients read and write the same store concurrently and every write
runs the full event→rule machinery server-side.

The concurrency story is the engine's, not the server's:

* **Reads never block writers.**  ``GET /object`` and ``POST /query`` /
  ``/count`` run inside ``db.snapshot()`` — MVCC reads at a commit
  timestamp, zero lock acquisitions (see ``DESIGN.md`` §Concurrency).
* **Writes are transactions with retry.**  ``POST /create`` / ``/update``
  / ``/delete`` / ``/invoke`` run under ``db.run_transaction`` — 2PL
  object locks, deadlock detection, bounded retry.  A write that still
  aborts after its retry budget returns **409** rather than blocking.
* **Rules fire on the serving thread** (immediate/deferred coupling) or
  on the decoupled worker pool when the Sentinel has one enabled —
  exactly as they would for an embedded caller.  The server pushes its
  system's scheduler process-wide on :meth:`start`, so connection
  threads resolve it ambiently.

Endpoints (see :mod:`repro.server.protocol` for the envelope):

=========================  ===========================================
``GET  /ping``             liveness + engine identity
``GET  /stats``            scheduler / worker-pool / server counters
``GET  /object?oid=N``     one committed record, snapshot-read
``POST /query``            ``{"class", "where": [[a,op,v]...], "limit"}``
``POST /count``            same body, count only
``POST /create``           ``{"class", "args": {...}}`` → new OID
``POST /update``           ``{"oid", "set": {attr: value, ...}}``
``POST /invoke``           ``{"oid", "method", "args", "kwargs"}``
``POST /delete``           ``{"oid"}``
=========================  ===========================================

``python -m repro.tools.serve`` wraps this in a CLI;
:class:`repro.server.client.RuleClient` is the matching stdlib client.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..core.runtime import pop_scheduler, push_scheduler
from ..obs.metrics import metrics
from ..oodb.codec import jsonable_record
from ..oodb.errors import ObjectNotFound, OODBError, TransactionAborted
from ..oodb.oid import Oid
from .protocol import (
    ProtocolError,
    error_payload,
    json_safe,
    ok_payload,
    parse_oid,
    parse_where,
    read_json_body,
)

__all__ = ["RuleServer"]

#: Cap on request bodies; a rule server is a control surface, not a blob
#: store.
MAX_BODY_BYTES = 1 << 20


class RuleServer:
    """Serve a Sentinel system to concurrent clients over HTTP/JSON.

    Binds on construction (``port=0`` picks an ephemeral port — read
    :attr:`port`/:attr:`url` after), serves from daemon threads after
    :meth:`start`.  Usable as a context manager::

        with Sentinel(db=Database(path, locking=True)) as sentinel:
            sentinel.enable_worker_pool()
            with RuleServer(sentinel) as server:
                print(server.url)
                ...
    """

    def __init__(
        self,
        sentinel: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        db = getattr(sentinel, "db", None)
        if db is None:
            raise ValueError("RuleServer needs a Sentinel with a database")
        self.sentinel = sentinel
        self.db = db
        server = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.1 keep-alive: one connection (and one server
            # thread) per client for its whole session, not per request.
            protocol_version = "HTTP/1.1"
            # Small request/response pairs over one connection stall for
            # ~40ms apiece under Nagle + delayed ACK; turn Nagle off.
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                server._dispatch(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                server._dispatch(self, "POST")

            def setup(self) -> None:
                super().setup()
                server._track(self.connection)

            def finish(self) -> None:
                server._untrack(self.connection)
                super().finish()

            def log_message(self, *args: Any) -> None:
                pass  # keep the engine's stdout clean

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._pushed = False
        # Open connections and requests being answered, so stop() can
        # let those requests finish and then hang up on every client.
        self._state = threading.Condition()
        self._connections: set[socket.socket] = set()
        self._in_flight = 0
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = str(self._httpd.server_address[0])
        return f"http://{host}:{self.port}"

    def start(self) -> "RuleServer":
        if self._thread is None:
            # Connection threads have no scheduler stack of their own;
            # publishing this system's scheduler process-wide makes the
            # ambient fallback (runtime.current_scheduler) resolve to it,
            # so monitored-method events raised by client requests fire
            # this system's rules.
            push_scheduler(self.sentinel.scheduler)
            self._pushed = True
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-rule-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: no request is dispatched after this returns.

        Requests already being answered get up to 5 s to finish; then
        every open keep-alive connection is shut down, so a client that
        still holds one sees the connection drop rather than a request
        served against a closed database.
        """
        if self._thread is not None:
            self._httpd.shutdown()
        with self._state:
            self._closing = True
            self._state.wait_for(lambda: self._in_flight == 0, timeout=5.0)
            connections = list(self._connections)
        for connection in connections:
            _hang_up(connection)
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._pushed:
            pop_scheduler(self.sentinel.scheduler)
            self._pushed = False

    def __enter__(self) -> "RuleServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _track(self, connection: socket.socket) -> None:
        with self._state:
            if not self._closing:
                self._connections.add(connection)
                return
        _hang_up(connection)

    def _untrack(self, connection: socket.socket) -> None:
        with self._state:
            self._connections.discard(connection)

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        with self._state:
            if self._closing:
                handler.close_connection = True
                return
            self._in_flight += 1
        try:
            self._respond(handler, method)
        finally:
            with self._state:
                self._in_flight -= 1
                if self._closing:
                    self._state.notify_all()

    def _respond(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        started = perf_counter()
        parts = urlsplit(handler.path)
        # A body left unread would be parsed as the next request on this
        # keep-alive connection, so every path that skips it hangs up.
        unread = _declares_body(handler)
        body: bytes | None = None
        try:
            raw = b""
            if method == "POST":
                raw = self._read_body(handler)
                unread = False
            status, payload = self._route(method, parts.path, parts.query, raw)
            # Encoding is part of answering: a value json cannot encode
            # becomes a counted 500 rather than a dropped connection.
            body = _encode(payload)
        except ProtocolError as exc:
            status = exc.status
            payload = error_payload(exc.error, exc.detail)
        except ObjectNotFound as exc:
            status, payload = 404, error_payload("not_found", str(exc))
        except TransactionAborted as exc:
            status, payload = 409, error_payload("conflict", str(exc))
        except OODBError as exc:
            if exc.retryable:
                # A write that exhausted its deadlock-retry budget: the
                # client owns the next attempt.
                status, payload = 409, error_payload("conflict", repr(exc))
            else:
                status, payload = 400, error_payload("bad_request", repr(exc))
        except Exception as exc:  # noqa: BLE001 - the wire needs an answer
            status, payload = 500, error_payload("server_error", repr(exc))
        if body is None:
            body = _encode(payload)
        handler.send_response(status)
        if unread:
            handler.close_connection = True
            handler.send_header("Connection", "close")
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
        metrics.counter("server_requests").inc()
        if status >= 400:
            metrics.counter("server_errors").inc()
        metrics.histogram("server_request_us").record(
            (perf_counter() - started) * 1e6
        )

    def _route(
        self, method: str, path: str, query: str, raw: bytes
    ) -> tuple[int, dict[str, Any]]:
        if method == "GET":
            if path == "/ping":
                return 200, self._ping()
            if path == "/stats":
                return 200, self._stats()
            if path == "/object":
                return 200, self._get_object(query)
            raise ProtocolError(404, "not_found", f"no route {path!r}")
        body = read_json_body(raw)
        if path == "/query":
            return 200, self._query(body, count_only=False)
        if path == "/count":
            return 200, self._query(body, count_only=True)
        if path == "/create":
            return 200, self._create(body)
        if path == "/update":
            return 200, self._update(body)
        if path == "/invoke":
            return 200, self._invoke(body)
        if path == "/delete":
            return 200, self._delete(body)
        raise ProtocolError(404, "not_found", f"no route {path!r}")

    def _read_body(self, handler: BaseHTTPRequestHandler) -> bytes:
        if "Transfer-Encoding" in handler.headers:
            raise ProtocolError(
                400, "bad_request", "send a Content-Length body, not chunked"
            )
        raw_length = handler.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(400, "bad_request", "bad Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise ProtocolError(
                400, "bad_request", f"body too large ({length} bytes)"
            )
        return handler.rfile.read(length) if length else b""

    # ------------------------------------------------------------------
    # Reads (MVCC snapshots; never take locks)
    # ------------------------------------------------------------------
    def _ping(self) -> dict[str, Any]:
        return ok_payload(
            server="sentinel-rule-server",
            classes=sorted(self.db.registry.names()),
        )

    def _stats(self) -> dict[str, Any]:
        scheduler = self.sentinel.scheduler
        stats = asdict(scheduler.stats)
        stats["errors"] = len(scheduler.stats.errors)
        pool = scheduler.worker_pool
        return ok_payload(
            scheduler=stats,
            worker_pool=pool.stats() if pool is not None else None,
            requests=metrics.counter("server_requests").value,
            request_errors=metrics.counter("server_errors").value,
        )

    def _get_object(self, query: str) -> dict[str, Any]:
        params = parse_qs(query)
        values = params.get("oid")
        if not values:
            raise ProtocolError(400, "bad_request", "missing ?oid=N")
        try:
            number = int(values[-1])
        except ValueError:
            raise ProtocolError(400, "bad_request", "oid must be an integer")
        if number < 1:
            raise ProtocolError(400, "bad_request", "oid must be positive")
        with self.db.snapshot() as snap:
            record = snap.record(Oid(number))
        if record is None:
            raise ProtocolError(404, "not_found", f"no object @{number}")
        return ok_payload(object=jsonable_record(record))

    def _query(
        self, body: dict[str, Any], count_only: bool
    ) -> dict[str, Any]:
        class_name = body.get("class")
        if not isinstance(class_name, str) or not class_name:
            raise ProtocolError(400, "bad_request", "'class' must be a name")
        clauses = parse_where(body.get("where"))
        limit = body.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
        ):
            raise ProtocolError(
                400, "bad_request", "'limit' must be a non-negative integer"
            )
        with self.db.snapshot() as snap:
            q = self.db.query(class_name)
            for attribute, op, value in clauses:
                q = q.where_op(attribute, op, value)
            if count_only:
                return ok_payload(count=q.count())
            if limit is not None:
                q = q.limit(limit)
            objects = q.all()
            records = [snap.record(obj._p_oid) for obj in objects]
        found = [
            jsonable_record(record) for record in records if record is not None
        ]
        return ok_payload(count=len(found), objects=found)

    # ------------------------------------------------------------------
    # Writes (2PL transactions with deadlock retry; rules fire)
    # ------------------------------------------------------------------
    def _create(self, body: dict[str, Any]) -> dict[str, Any]:
        class_name = body.get("class")
        if not isinstance(class_name, str) or not class_name:
            raise ProtocolError(400, "bad_request", "'class' must be a name")
        args = body.get("args") or {}
        if not isinstance(args, dict):
            raise ProtocolError(
                400, "bad_request", "'args' must be an object of kwargs"
            )
        cls = self.db.class_for_name(class_name)

        def txn() -> int:
            obj = cls(**args)
            return int(self.db.add(obj).value)

        try:
            oid = self.db.run_transaction(txn)
        except TypeError as exc:
            # cls(**args) mismatch — the client's fault, not a 500.
            raise ProtocolError(400, "bad_request", f"constructor: {exc}")
        return ok_payload(oid=oid)

    def _update(self, body: dict[str, Any]) -> dict[str, Any]:
        number = parse_oid(body)
        changes = body.get("set")
        if not isinstance(changes, dict) or not changes:
            raise ProtocolError(
                400, "bad_request", "'set' must be a non-empty object"
            )
        for key in changes:
            if not isinstance(key, str) or key.startswith("_"):
                raise ProtocolError(
                    400, "bad_request", f"bad attribute name {key!r}"
                )

        def txn() -> None:
            obj = self.db.fetch(Oid(number))
            for key, value in changes.items():
                setattr(obj, key, value)

        self.db.run_transaction(txn)
        return ok_payload(oid=number)

    def _invoke(self, body: dict[str, Any]) -> dict[str, Any]:
        number = parse_oid(body)
        method = body.get("method")
        if not isinstance(method, str) or not method or method.startswith("_"):
            raise ProtocolError(
                400, "bad_request", "'method' must be a public method name"
            )
        args = body.get("args") or []
        kwargs = body.get("kwargs") or {}
        if not isinstance(args, list) or not isinstance(kwargs, dict):
            raise ProtocolError(
                400,
                "bad_request",
                "'args' must be a list and 'kwargs' an object",
            )

        def txn() -> Any:
            obj = self.db.fetch(Oid(number))
            bound = getattr(obj, method, None)
            if not callable(bound):
                raise ProtocolError(
                    400, "bad_request", f"no method {method!r} on @{number}"
                )
            return bound(*args, **kwargs)

        result = self.db.run_transaction(txn)
        return ok_payload(oid=number, result=json_safe(result))

    def _delete(self, body: dict[str, Any]) -> dict[str, Any]:
        number = parse_oid(body)

        def txn() -> None:
            self.db.delete(self.db.fetch(Oid(number)))

        self.db.run_transaction(txn)
        return ok_payload(oid=number)


def _encode(payload: dict[str, Any]) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _declares_body(handler: BaseHTTPRequestHandler) -> bool:
    headers = handler.headers
    return headers.get("Content-Length", "0") != "0" or "Transfer-Encoding" in headers


def _hang_up(connection: socket.socket) -> None:
    """Shut a client connection down; its handler thread sees EOF."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already gone
