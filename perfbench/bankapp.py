"""The benchmark's application: reactive accounts posting to branch ledgers.

Loaded by the rule server with ``--import bankapp`` (and imported
directly by the in-process harness), so the server learns the classes
and their class-level ECA rules exactly as a real application would:

* ``Account`` is reactive and packed (``_p_schema``), and holds an
  object reference to one of the ``Branch`` objects.
* ``deposit(amount, ref)`` is an event method.  Its ``end`` event fires
  an **immediate** class rule that posts the amount to the account's
  branch ledger (inside the depositing transaction) and a **decoupled**
  class rule that bumps ``Account.audited`` in a transaction of its own,
  on the worker pool when the server has one.
* ``Branch.post`` is itself an event method, so composite events can
  span an account's deposit and the branch posting it caused.

``ref`` is an opaque caller-chosen number; the decoupled rule reports
``(ref, finish time)`` to :data:`audit_sink` once its own transaction
has committed, which is how the in-process harness measures the lag
between a commit and its decoupled rule finishing.  A record must not
carry a packed ``oid`` or ``datetime`` field: the server's
``GET /object`` JSON-encodes the decoded record as-is (see README.md).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Callable

from repro.core import class_rule, event_method
from repro.core.reactive import Reactive

__all__ = ["Account", "Branch", "audit_sink"]

#: Called as ``audit_sink(ref, finished_at)`` after each decoupled audit
#: commits.  ``None`` (the default, and always in the server) records
#: nothing.
audit_sink: "Callable[[int, float], None] | None" = None

def _post_to_ledger(ctx: Any) -> None:
    branch = ctx.source.branch
    # ``post`` reads the ledger before writing it; without the exclusive
    # lock first, two deposits on one branch can lose an update.
    branch._p_db.lock_for_update(branch)
    branch.post(ctx.param("amount"))


def _audit(ctx: Any) -> None:
    account = ctx.source
    db = account._p_db
    # Read-modify-write under the exclusive lock: two workers auditing
    # the same account must not lose an increment.
    db.lock_for_update(account)
    account.audited += 1
    sink = audit_sink
    if sink is not None:
        ref = ctx.param("ref")
        db.current_transaction.add_post_commit_hook(
            lambda: sink(ref, perf_counter())
        )


class Branch(Reactive):
    """A ledger that every deposit of its accounts posts to."""

    _p_schema = [("code", "int"), ("ledger", "int"), ("posts", "int")]

    def __init__(self, code: int = 0) -> None:
        super().__init__()
        self.code = code
        self.ledger = 0
        self.posts = 0

    @event_method
    def post(self, amount: int) -> int:
        self.ledger += amount
        self.posts += 1
        return self.ledger


class Account(Reactive):
    """A reactive, packed account referencing its branch."""

    _p_schema = [
        ("number", "int"),
        ("owner", "str:16"),
        ("balance", "int"),
        ("deposits", "int"),
        ("audited", "int"),
    ]

    __rules__ = [
        class_rule(
            "ledger-post",
            on="end deposit(int amount, int ref)",
            action=_post_to_ledger,
            coupling="immediate",
        ),
        class_rule(
            "audit",
            on="end deposit(int amount, int ref)",
            action=_audit,
            coupling="decoupled",
        ),
    ]

    def __init__(
        self,
        number: int = 0,
        owner: str = "",
        balance: int = 0,
        branch: "Branch | None" = None,
    ) -> None:
        super().__init__()
        self.number = number
        self.owner = owner
        self.balance = balance
        self.deposits = 0
        self.audited = 0
        self.branch = branch

    @event_method
    def deposit(self, amount: int, ref: int = 0) -> int:
        self.balance += amount
        self.deposits += 1
        return self.balance


if os.environ.get("PERFBENCH_TRACE_OUT"):
    # The server process of a traced run: wrap the engine's layer entry
    # points and write the spans out when asked (see trace.py).
    from layertrace import install_server_tracing

    install_server_tracing(os.environ["PERFBENCH_TRACE_OUT"])
