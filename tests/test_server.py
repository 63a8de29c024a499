"""The rule-server front end: HTTP round trips, errors, server-side rules.

A real ``RuleServer`` on an ephemeral port, a real ``RuleClient`` over
HTTP — no mocked sockets.  Covers the JSON protocol surface (create /
get / update / query / count / invoke / delete / ping / stats), the
error mapping (404 / 400 / 409), class-level ECA rules firing on the
serving thread for client-caused events, concurrent clients writing
through one server, and the keep-alive transport: connection reuse and
resends in the client, request framing and shutdown in the server.
"""

from __future__ import annotations

import http.client
import io
import re
import socket
import threading
from contextlib import nullcontext
from datetime import datetime

import pytest

from repro.core import Sentinel, class_rule, event_method
from repro.core.reactive import Reactive
from repro.obs.metrics import metrics
from repro.oodb import Database, Persistent
from repro.oodb.oid import Oid
from repro.oodb.schema import ClassRegistry
from repro.server import RuleClient, RuleServer, ServerError

registry = ClassRegistry()
RESTOCKS: list = []


class Item(Reactive, registry=registry):
    __rules__ = [
        class_rule(
            "restock-log",
            on="end restock(int amount)",
            action=lambda ctx: RESTOCKS.append(ctx.param("amount")),
        ),
    ]

    def __init__(self, name: str = "", qty: int = 0) -> None:
        super().__init__()
        self.name = name
        self.qty = qty

    @event_method
    def restock(self, amount: int = 1) -> int:
        self.qty += amount
        return self.qty

    def _secret(self) -> str:  # pragma: no cover - must not be callable
        return "hidden"


class Stamp(Persistent, registry=registry):
    """Packed: decoded records hold live ``datetime`` / ``Oid`` values."""

    _p_schema = [("at", "datetime"), ("item", "oid"), ("n", "int")]

    def __init__(self, at=None, item=None, n: int = 0) -> None:
        super().__init__()
        self.at = at
        self.item = item
        self.n = n


@pytest.fixture
def running(tmp_path):
    RESTOCKS.clear()
    db = Database(str(tmp_path / "db"), registry=registry, locking=True)
    system = Sentinel(db=db, adopt_class_rules=False)
    with system:
        with RuleServer(system) as server:
            yield system, server
    system.close()


@pytest.fixture
def served(running):
    system, server = running
    with RuleClient(server.url) as client:
        yield system, client


@pytest.fixture
def accepts(running, monkeypatch):
    """Client addresses of the connections the server accepts."""
    _system, server = running
    httpd = server._httpd
    seen: list = []
    accept = httpd.process_request

    def counting(request, client_address):
        seen.append(client_address)
        return accept(request, client_address)

    monkeypatch.setattr(httpd, "process_request", counting)
    return seen


class TestRoundTrip:
    def test_ping_reports_classes(self, served):
        _system, client = served
        pong = client.ping()
        assert pong["ok"] is True
        assert "Item" in pong["classes"]

    def test_create_get_update_delete(self, served):
        _system, client = served
        oid = client.create("Item", name="widget", qty=3)
        assert isinstance(oid, int)

        record = client.get(oid)
        assert record["class"] == "Item"
        assert record["attrs"]["name"] == "widget"
        assert record["attrs"]["qty"] == 3

        client.update(oid, qty=10)
        assert client.get(oid)["attrs"]["qty"] == 10

        client.delete(oid)
        with pytest.raises(ServerError) as err:
            client.get(oid)
        assert err.value.status == 404

    def test_query_and_count(self, served):
        _system, client = served
        for i in range(6):
            client.create("Item", name=f"item-{i}", qty=i)
        assert client.count("Item") == 6
        assert client.count("Item", where=[["qty", ">=", 3]]) == 3
        rows = client.query("Item", where=[["qty", "<", 2]])
        assert sorted(r["attrs"]["qty"] for r in rows) == [0, 1]
        limited = client.query("Item", limit=2)
        assert len(limited) == 2

    def test_invoke_returns_value_and_fires_rule(self, served):
        _system, client = served
        oid = client.create("Item", name="widget", qty=1)
        result = client.invoke(oid, "restock", 5)
        assert result == 6
        assert client.get(oid)["attrs"]["qty"] == 6
        # The class-level ECA rule ran server-side for a client event.
        assert RESTOCKS == [5]

    def test_stats_surface(self, served):
        _system, client = served
        client.create("Item", name="x")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert "triggered" in stats["scheduler"]
        assert stats["worker_pool"] is None


class TestPackedRecords:
    def test_packed_datetime_and_oid_fields_are_tagged(self, served):
        system, client = served
        db = system.db
        at = datetime(2026, 3, 4, 5, 6, 7, 890)
        with db.transaction():
            item = db.add(Item(name="widget"))
            oid = db.add(Stamp(at, item, 1)).value
        record = client.get(oid)
        assert record == {
            "oid": oid,
            "class": "Stamp",
            "attrs": {"at": {"$datetime": at.isoformat()},
                      "item": {"$oid": item.value}, "n": 1},
        }
        assert client.query("Stamp", where=[["n", "==", 1]]) == [record]

    def test_unencodable_reply_is_a_counted_500(self, served, monkeypatch):
        _system, client = served
        errors = metrics.counter("server_errors")
        before = errors.value
        monkeypatch.setattr(
            RuleServer, "_ping", lambda self: {"ok": True, "odd": {1, 2}}
        )
        with pytest.raises(ServerError) as err:
            client.ping()
        assert err.value.status == 500
        assert err.value.error == "server_error"
        assert errors.value == before + 1

    def test_pre_image_reads_keep_their_oid(self, served):
        system, client = served
        db = system.db
        oid = client.create("Item", name="widget", qty=1)
        snap = db.begin_snapshot()
        try:
            client.update(oid, qty=2)
            record = snap.record(Oid(oid))
            assert record["oid"] == oid
            assert record["attrs"]["qty"] == 1
            # Serve GET /object from the same pinned snapshot, so the
            # reply comes from the update's pre-image.
            db.snapshot = lambda: nullcontext(snap)
            try:
                served_record = client.get(oid)
            finally:
                del db.snapshot
            assert served_record["oid"] == oid
            assert served_record["attrs"]["qty"] == 1
        finally:
            db.end_snapshot(snap)
        assert client.get(oid)["attrs"]["qty"] == 2


class TestErrorMapping:
    def test_unknown_class_is_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.create("Ghost")
        assert err.value.status == 400

    def test_unknown_oid_is_404(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.get(999_999)
        assert err.value.status == 404

    def test_private_attr_and_method_are_400(self, served):
        _system, client = served
        oid = client.create("Item", name="widget")
        with pytest.raises(ServerError) as err:
            client.update(oid, _p_oid=1)
        assert err.value.status == 400
        with pytest.raises(ServerError) as err:
            client.invoke(oid, "_secret")
        assert err.value.status == 400

    def test_bad_where_op_is_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.query("Item", where=[["qty", "~=", 1]])
        assert err.value.status == 400

    def test_bad_constructor_args_are_400(self, served):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.create("Item", bogus_kwarg=1)
        assert err.value.status == 400


class TestConcurrentClients:
    def test_parallel_writers_through_one_server(self, served):
        _system, client = served
        oids = [client.create("Item", name=f"c{i}", qty=0) for i in range(4)]
        per_client = 12
        errors: list[BaseException] = []

        def hammer(idx: int) -> None:
            try:
                with RuleClient(client.url) as own:
                    for _ in range(per_client):
                        own.invoke(oids[idx], "restock", 1)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for oid in oids:
            assert client.get(oid)["attrs"]["qty"] == per_client
        assert len(RESTOCKS) == 4 * per_client


def _drop_reply(monkeypatch, times: int = 1) -> list:
    """Make the server handle the next ``times`` requests in full but
    hang up instead of sending each reply; returns the paths dropped."""
    respond = RuleServer._respond
    dropped: list = []

    def respond_then_drop(self, handler, method):
        if len(dropped) >= times:
            return respond(self, handler, method)
        dropped.append(handler.path)
        wfile, handler.wfile = handler.wfile, io.BytesIO()
        try:
            respond(self, handler, method)
        finally:
            handler.wfile = wfile
        handler.close_connection = True

    monkeypatch.setattr(RuleServer, "_respond", respond_then_drop)
    return dropped


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; everything read until the
    server closes (or 5 s pass)."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except (socket.timeout, ConnectionResetError):
            pass
    return b"".join(chunks)


def _only_reply(reply: bytes) -> bytes:
    """The head of the single response in ``reply``: it must announce
    ``Connection: close``, and nothing may follow its body."""
    head, _, rest = reply.partition(b"\r\n\r\n")
    length = re.search(rb"Content-Length: (\d+)", head)
    assert length is not None
    assert rest[int(length.group(1)):] == b""
    assert b"Connection: close" in head
    return head


class TestKeepAlive:
    def test_one_client_uses_one_connection(self, served, accepts):
        _system, client = served
        oid = client.create("Item", name="widget", qty=0)
        for i in range(49):
            if i % 2:
                client.get(oid)
            else:
                client.invoke(oid, "restock", 1)
        assert len(accepts) == 1

    def test_shared_client_opens_at_most_one_connection_per_thread(
        self, served, accepts
    ):
        _system, client = served
        oid = client.create("Item", name="widget", qty=0)
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                for _ in range(25):
                    assert client.get(oid)["attrs"]["name"] == "widget"
                    assert client.count("Item") == 1
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert 1 <= len(accepts) <= 4
        assert len(client._idle) <= 4

    def test_error_answers_leave_the_connection_reusable(
        self, served, accepts, monkeypatch
    ):
        _system, client = served
        with pytest.raises(ServerError) as err:
            client.get(999_999)
        assert err.value.status == 404
        with pytest.raises(ServerError) as err:
            client.create("Ghost")
        assert err.value.status == 400
        monkeypatch.setattr(
            RuleServer, "_stats", lambda self: {"ok": True, "odd": {1, 2}}
        )
        with pytest.raises(ServerError) as err:
            client.stats()
        assert err.value.status == 500
        assert client.ping()["ok"] is True
        assert len(accepts) == 1

    def test_get_dropped_on_a_reused_connection_is_resent_once(
        self, served, accepts, monkeypatch
    ):
        _system, client = served
        oid = client.create("Item", name="widget", qty=4)
        dropped = _drop_reply(monkeypatch)
        assert client.get(oid)["attrs"]["qty"] == 4
        assert dropped == [f"/object?oid={oid}"]
        assert len(accepts) == 2

    def test_resend_happens_at_most_once(self, served, accepts, monkeypatch):
        _system, client = served
        client.ping()
        dropped = _drop_reply(monkeypatch, times=2)
        with pytest.raises(ConnectionError):
            client.ping()
        assert dropped == ["/ping", "/ping"]
        assert len(accepts) == 2

    def test_sent_post_is_not_resent(self, served, accepts, monkeypatch):
        _system, client = served
        oid = client.create("Item", name="widget", qty=1)
        dropped = _drop_reply(monkeypatch)
        with pytest.raises(ConnectionError):
            client.invoke(oid, "restock", 5)
        assert dropped == ["/invoke"]
        # The dropped reply's deposit landed once, and only once.
        assert RESTOCKS == [5]
        assert client.get(oid)["attrs"]["qty"] == 6
        assert len(accepts) == 2

    def test_close_drops_idle_connections_and_client_stays_usable(
        self, running, accepts
    ):
        _system, server = running
        with RuleClient(server.url) as client:
            client.ping()
            assert len(client._idle) == 1
        assert client._idle == []
        assert client.ping()["ok"] is True
        assert len(accepts) == 2
        client.close()


class TestRequestFraming:
    """A body the server does not read must not become the next request
    on a keep-alive connection."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /count HTTP/1.1\r\nContent-Length: 2000000\r\n", 400),
            (b"POST /count HTTP/1.1\r\nContent-Length: ten\r\n", 400),
            (b"POST /count HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", 400),
            (b"GET /ping HTTP/1.1\r\nContent-Length: 32\r\n", 200),
        ],
        ids=["oversized", "bad-length", "chunked", "get-with-body"],
    )
    def test_unread_body_closes_the_connection(self, running, head, status):
        _system, server = running
        # The unread body is itself a well-formed request.
        smuggled = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = _raw_exchange(server.port, head + b"\r\n" + smuggled)
        assert _only_reply(reply).startswith(b"HTTP/1.1 %d " % status)


class TestStop:
    def test_stop_hangs_up_open_keep_alive_connections(self, running):
        system, server = running
        with RuleClient(server.url) as client:
            oid = client.create("Item", name="widget")
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", f"/object?oid={oid}")
            assert conn.getresponse().read()
            server.stop()
            system.close()
            # Not dispatched against the closed database: the server
            # hung up on the connection when it stopped.
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                conn.request("GET", f"/object?oid={oid}")
                conn.getresponse()
        finally:
            conn.close()

    def test_client_after_stop_sees_a_refused_connection(self, running):
        _system, server = running
        with RuleClient(server.url) as client:
            client.ping()
            server.stop()
            with pytest.raises(OSError):
                client.ping()
