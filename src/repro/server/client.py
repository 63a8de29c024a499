"""A stdlib client for the rule server (:mod:`repro.server.server`).

Thin and synchronous: one :class:`RuleClient` per server URL, one HTTP
request per call, carried over pooled keep-alive ``http.client``
connections.  Error envelopes come back as :class:`ServerError` carrying
the server's ``error`` kind and HTTP status, so callers can branch on
``conflict`` (write lost its deadlock retries — rerun it) versus
``not_found`` versus ``bad_request``::

    with RuleClient(server.url) as client:
        oid = client.create("Employee", name="fred", salary=50_000.0)
        client.update(oid, salary=55_000.0)      # rules fire server-side
        rows = client.query("Employee", where=[["salary", ">", 50_000]])

Every payload-returning call gives the decoded JSON body (the ``ok``
discriminator stripped of ceremony — helpers return the interesting
field directly where there is one).

**Connections.**  A call takes an idle connection (or opens one), sends
its request, reads the whole response and puts the connection back
unless the server said it will close.  The idle list never holds more
connections than there were concurrent callers, so one client may be
shared by threads.  A request that went out on a *reused* connection and
failed before any response byte arrived — the server dropped the
connection while it sat idle — is resent once on a fresh connection;
a ``POST`` only when it failed while being sent, since a ``POST`` the
server may have read (a deposit, say) must not be applied twice.
Timeouts and refused connections surface as :class:`OSError`.
"""

from __future__ import annotations

import json
import socket
import threading
from http.client import HTTPConnection, HTTPSConnection
from typing import Any
from urllib.parse import urlsplit

__all__ = ["RuleClient", "ServerError"]

_HEADERS = {"Content-Type": "application/json"}

#: How a connection the server closed while it was idle fails
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``).
_DROPPED = (BrokenPipeError, ConnectionResetError)


class ServerError(Exception):
    """The server answered with ``ok: false``."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(f"{error} ({status}): {detail}")
        self.status = status
        self.error = error
        self.detail = detail

    @property
    def conflict(self) -> bool:
        """True when a write exhausted its deadlock-retry budget."""
        return self.status == 409


class _Resend(Exception):
    """The request may be sent again: it never reached the server intact,
    or it is a ``GET``."""


class RuleClient:
    """HTTP/JSON client for one :class:`~repro.server.server.RuleServer`.

    Thread-safe; :meth:`close` (or leaving a ``with`` block) closes the
    idle connections, and a later call simply opens a new one.
    """

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.url)
        self._connection_class = (
            HTTPSConnection if parts.scheme == "https" else HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._idle: list[HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RuleClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            try:
                return self._exchange(conn, method, path, data, reused=True)
            except _Resend:
                pass
        return self._exchange(self._connect(), method, path, data, reused=False)

    def _connect(self) -> HTTPConnection:
        conn = self._connection_class(self._netloc, timeout=self.timeout)
        conn.connect()
        # http.client sends the headers and the body in two writes; with
        # Nagle on, the body waits for the server's delayed ACK.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _exchange(
        self,
        conn: HTTPConnection,
        method: str,
        path: str,
        data: bytes | None,
        reused: bool,
    ) -> dict[str, Any]:
        try:
            try:
                conn.request(method, self._prefix + path, data, _HEADERS)
            except _DROPPED as exc:
                if reused:
                    raise _Resend from exc
                raise
            try:
                response = conn.getresponse()
            except _DROPPED as exc:
                if reused and method == "GET":
                    raise _Resend from exc
                raise
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return _decode(response.status, raw)

    # ------------------------------------------------------------------
    # Reads (server-side MVCC snapshots)
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self._request("GET", "/ping")

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def get(self, oid: int) -> dict[str, Any]:
        """The committed record of ``oid``: ``{"oid", "class", "attrs"}``."""
        payload = self._request("GET", f"/object?oid={int(oid)}")
        record = payload["object"]
        assert isinstance(record, dict)
        return record

    def query(
        self,
        class_name: str,
        where: list[list[Any]] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        body: dict[str, Any] = {"class": class_name}
        if where is not None:
            body["where"] = where
        if limit is not None:
            body["limit"] = limit
        payload = self._request("POST", "/query", body)
        objects = payload["objects"]
        assert isinstance(objects, list)
        return objects

    def count(
        self, class_name: str, where: list[list[Any]] | None = None
    ) -> int:
        body: dict[str, Any] = {"class": class_name}
        if where is not None:
            body["where"] = where
        payload = self._request("POST", "/count", body)
        return int(payload["count"])

    # ------------------------------------------------------------------
    # Writes (server-side transactions; rules fire over there)
    # ------------------------------------------------------------------
    def create(self, class_name: str, **args: Any) -> int:
        payload = self._request(
            "POST", "/create", {"class": class_name, "args": args}
        )
        return int(payload["oid"])

    def update(self, oid: int, **changes: Any) -> None:
        self._request("POST", "/update", {"oid": int(oid), "set": changes})

    def invoke(
        self, oid: int, method: str, *args: Any, **kwargs: Any
    ) -> Any:
        payload = self._request(
            "POST",
            "/invoke",
            {
                "oid": int(oid),
                "method": method,
                "args": list(args),
                "kwargs": kwargs,
            },
        )
        return payload.get("result")

    def delete(self, oid: int) -> None:
        self._request("POST", "/delete", {"oid": int(oid)})


def _decode(status: int, raw: bytes) -> dict[str, Any]:
    """A 2xx body as a JSON object; anything else as :class:`ServerError`."""
    if 200 <= status < 300:
        payload = json.loads(raw.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ServerError(
                status, "server_error", f"bad payload: {payload!r}"
            )
        return payload
    text = raw.decode("utf-8", errors="replace")
    try:
        payload = json.loads(text)
    except ValueError:
        raise ServerError(status, "server_error", text.strip())
    if not isinstance(payload, dict):
        payload = {}
    raise ServerError(
        status,
        str(payload.get("error", "server_error")),
        str(payload.get("detail", text.strip())),
    )
