"""The four workloads: closed-loop drivers, answer checks, failure tally.

Every operation is counted as attempted.  A failure is one of
:data:`FAILURE_KINDS`; no exception ever ends a generator thread early.
Latencies are in seconds here and converted to report units in
``run.py``.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

import store

FAILURE_KINDS = ("conflict_409", "client_4xx", "server_5xx", "dropped", "wrong_answer")

#: Rows per ``POST /query`` page.
QUERY_LIMIT = 10
#: Deposits per embedded transaction.
DEPOSITS_PER_TXN = 2
#: Client threads / connections per workload (at most nproc = 2).
CLIENTS = {"serve_read": 2, "serve_query": 1, "serve_write": 2, "embed_rules": 1}
WORKERS = 2
FSYNC_POLICY = "commit"
#: Read share of ``serve_write``.
WRITE_READ_SHARE = 0.3
#: Range widths of ``serve_query``, in rows of the preloaded store.
RANGE_ROWS = (20, 200)
#: Range lookups per ``serve_query`` operation.
SWEEP = 8


class WrongAnswer(Exception):
    """The program answered, but not what the oracle expects."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


@dataclass
class Result:
    """One operation: its kind, start, latency and failure (or None)."""

    kind: str
    start: float
    latency: float
    failure: "str | None"
    #: Per-request latencies inside a multi-request operation.
    parts: "list[tuple[str, float]]" = field(default_factory=list)
    #: A known defect seen on a correct answer (see README.md, B4).
    note: "str | None" = None


@dataclass
class Ledger:
    """Deposits sent, by account index: acknowledged and unknown outcome."""

    acked: dict[int, int] = field(default_factory=dict)
    acked_n: dict[int, int] = field(default_factory=dict)
    unknown: dict[int, int] = field(default_factory=dict)
    unknown_n: dict[int, int] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def note(self, index: int, amount: int, acked: bool) -> None:
        total, count = (self.acked, self.acked_n) if acked else (self.unknown, self.unknown_n)
        with self.lock:
            total[index] = total.get(index, 0) + amount
            count[index] = count.get(index, 0) + 1

    def writes(self) -> int:
        return sum(self.acked_n.values())


def classify(exc: BaseException) -> str:
    """The failure kind of an exception raised by one operation."""
    from repro.server import ServerError

    if isinstance(exc, ServerError):
        if exc.status == 409:
            return "conflict_409"
        if 400 <= exc.status < 500:
            return "client_4xx"
        if exc.status >= 500:
            return "server_5xx"
    elif isinstance(exc, (OSError, http.client.HTTPException)):
        # Refused, reset or closed without an answer, or timed out.
        return "dropped"
    # A wrong or malformed answer.
    return "wrong_answer"


# ----------------------------------------------------------------------
# Operations (generated from the seed; checked against the oracle)
# ----------------------------------------------------------------------
def check_account(record: dict, oracle: store.Oracle, index: int, oid: int, exact: bool) -> None:
    expect(record.get("oid") == oid, f"asked @{oid}, got @{record.get('oid')}")
    expect(record.get("class") == "Account", f"@{oid} has class {record.get('class')!r}")
    attrs = record.get("attrs", {})
    expect(attrs.get("number") == index, f"@{oid} number {attrs.get('number')}")
    expect(attrs.get("owner") == oracle.owner(index), f"@{oid} owner {attrs.get('owner')!r}")
    branch = oracle.branch_oids[oracle.branch_of[index]]
    expect(attrs.get("branch") == {"$ref": branch}, f"@{oid} branch {attrs.get('branch')}")
    balance = attrs.get("balance")
    initial = oracle.balances[index]
    if exact:
        expect(balance == initial, f"@{oid} balance {balance} != {initial}")
    else:
        expect(isinstance(balance, int) and balance >= initial, f"@{oid} balance {balance} < {initial}")


def sweep(u: float) -> list[float]:
    """One ``serve_query`` operation's range positions: a stratified
    sweep of :data:`SWEEP` points across the balance domain, offset by a
    seeded ``u`` in [0, 1).

    How much a range lookup examines depends on where the range lies
    (see README.md, B2), so a run of a few random lookups would measure
    a different mix each time.  Every sweep covers the whole domain
    evenly: each operation does nearly the same work, and a run of one
    or two operations still measures the mean over the domain."""
    return [(j + u) / SWEEP for j in range(SWEEP)]


def server_ops(
    workload: str, oracle: store.Oracle, rng: random.Random, ledger: Ledger,
    refs: Iterator[int],
) -> Iterator[tuple[str, Callable[[Any, Result], None]]]:
    """Endless (kind, body) pairs for one client thread."""
    n = len(oracle.sorted_balances)
    while True:
        if workload == "serve_query":
            ranges = []
            for x in sweep(rng.random()):
                start = min(int(x * n), n - 1)
                width = rng.randint(*RANGE_ROWS)
                lo = oracle.sorted_balances[start]
                hi = oracle.sorted_balances[min(start + width, n - 1)] + 1
                ranges.append((lo, hi))
            yield "sweep", _sweep(oracle, ranges)
            continue
        index = oracle.zipf_keys(rng, 1)[0]
        if workload == "serve_write" and rng.random() >= WRITE_READ_SHARE:
            yield "write", _deposit(oracle, ledger, index, rng.randint(1, 99), next(refs))
        else:
            yield "read", _read(oracle, index, exact=workload == "serve_read")


def _read(oracle: store.Oracle, index: int, exact: bool) -> Callable[[Any, Result], None]:
    oid = oracle.account_oids[index]

    def body(client: Any, result: Result) -> None:
        record = client.get(oid)
        if not exact and "oid" not in record:
            # A read racing a deposit is served from the commit's
            # pre-image, which the engine stores without its oid.
            result.note = "read_without_oid"
            record = dict(record, oid=oid)
        check_account(record, oracle, index, oid, exact)

    return body


def _sweep(oracle: store.Oracle, ranges: "list[tuple[int, int]]") -> Callable[[Any, Result], None]:
    def body(client: Any, result: Result) -> None:
        for lo, hi in ranges:
            _lookup(client, result, oracle, lo, hi)

    return body


def _lookup(client: Any, result: Result, oracle: store.Oracle, lo: int, hi: int) -> None:
    """``/query`` one page of ``[lo, hi)`` then ``/count`` it."""
    where = [["balance", ">=", lo], ["balance", "<", hi]]
    expected = oracle.count_in(lo, hi)
    t0 = perf_counter()
    rows = client.query("Account", where=where, limit=QUERY_LIMIT)
    t1 = perf_counter()
    result.parts.append(("query", t1 - t0))
    expect(len(rows) == min(QUERY_LIMIT, expected), f"{len(rows)} rows for {expected} matches")
    for row in rows:
        index = oracle.index_of(row.get("oid"))
        expect(index is not None, f"unknown oid {row.get('oid')}")
        check_account(row, oracle, index, row["oid"], exact=True)
        expect(lo <= row["attrs"]["balance"] < hi, f"balance outside [{lo}, {hi})")
    t2 = perf_counter()
    count = client.count("Account", where=where)
    result.parts.append(("count", perf_counter() - t2))
    expect(count == expected, f"count {count} != {expected}")


def _deposit(oracle: store.Oracle, ledger: Ledger, index: int, amount: int, ref: int) -> Callable[[Any, Result], None]:
    oid = oracle.account_oids[index]

    def body(client: Any, result: Result) -> None:
        try:
            balance = client.invoke(oid, "deposit", amount, ref=ref)
        except Exception as exc:
            # A 409 rolled back; any other failure may or may not have
            # committed before the answer was lost.
            if classify(exc) != "conflict_409":
                ledger.note(index, amount, acked=False)
            raise
        ledger.note(index, amount, acked=True)
        expect(
            isinstance(balance, int) and balance >= oracle.balances[index] + amount,
            f"deposit on @{oid} returned {balance!r}",
        )

    return body


def closed_loop(
    n_threads: int,
    seconds: float,
    make_client: Callable[[], Any],
    make_ops: Callable[[int], Iterator[tuple[str, Callable[[Any, Result], None]]]],
    errors: list[str],
) -> tuple[list[Result], float]:
    """Run ``n_threads`` closed loops for ``seconds``.

    An operation started before the deadline runs to completion and is
    counted.  Returns the results and the time from start to the last
    completion.
    """
    results: list[Result] = []
    start = perf_counter()
    deadline = start + seconds
    ends = [start] * n_threads

    def loop(idx: int) -> None:
        client = make_client()
        ops = make_ops(idx)
        while perf_counter() < deadline:
            kind, body = next(ops)
            result = Result(kind, perf_counter(), 0.0, None)
            try:
                body(client, result)
            except Exception as exc:  # noqa: BLE001 - the loop must keep going
                result.failure = classify(exc)
                if len(errors) < 20:
                    errors.append(f"{kind}: {result.failure}: {exc!r}")
            end = perf_counter()
            result.latency = end - result.start
            results.append(result)
            ends[idx] = end

    threads = [threading.Thread(target=loop, args=(i,), daemon=True) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 120)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client thread did not finish")
    return results, max(ends) - start


# ----------------------------------------------------------------------
# The rule server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.tools.serve`` over one store directory."""

    def __init__(self, root: str, path: str, log_dir: str, trace_out: "str | None" = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        )
        env.pop("PERFBENCH_TRACE_OUT", None)
        if trace_out:
            env["PERFBENCH_TRACE_OUT"] = trace_out
        self.log = os.path.join(log_dir, f"server-{time.monotonic_ns()}.log")
        self._log_handle = open(self.log, "w")
        self.launched = perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.serve", path,
                "--port", "0", "--metrics-port", "0",
                "--import", "bankapp", "--workers", str(WORKERS),
            ],
            env=env,
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            cwd=root,
            preexec_fn=_die_with_parent,
        )
        try:
            self.url, self.metrics_url = self._await_urls()
            self._await_ping()
        except BaseException:
            self.stop(kill=True)
            raise
        #: Launch to first successful ``/ping``: wall seconds, and CPU
        #: seconds of the server process.
        self.setup_wall_s = perf_counter() - self.launched
        self.setup_cpu_s = sum(self.cpu_times())

    def _await_ping(self) -> None:
        from repro.server import RuleClient

        ping = RuleClient(self.url, timeout=5.0)
        while True:
            try:
                ping.ping()
                return
            except OSError:
                self._check_alive()
                time.sleep(0.005)

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}; see {self.log}")
        if perf_counter() - self.launched > 120:
            raise RuntimeError(f"server not ready after 120 s; see {self.log}")

    def _await_urls(self) -> tuple[str, str]:
        while True:
            with open(self.log) as handle:
                text = handle.read()
            urls = [line.rsplit(" ", 1)[-1] for line in text.splitlines() if " on http://" in line]
            if len(urls) >= 2:
                return urls[0], urls[1]
            self._check_alive()
            time.sleep(0.005)

    def scrape(self) -> dict[str, float]:
        with urllib.request.urlopen(self.metrics_url + "/metrics", timeout=10) as response:
            return parse_openmetrics(response.read().decode())

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def cpu_times(self) -> tuple[float, float]:
        return cpu_times(self.proc.pid)

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self, kill: bool = False) -> None:
        """SIGKILL, or SIGINT (orderly close) with SIGKILL as fallback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._log_handle.close()


_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the server child: get SIGKILL if the benchmark process dies."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def parse_openmetrics(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def peak_rss_mb(pid: "int | str" = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class CpuSampler:
    """Samples a (user, system) CPU clock every ``interval`` on its own
    thread; samples are ``(time, user, system)``."""

    def __init__(self, clock: Callable[[], tuple[float, float]], interval: float) -> None:
        self.samples: list[tuple[float, float, float]] = [(perf_counter(), *clock())]
        self._clock = clock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.samples.append((perf_counter(), *self._clock()))

    def stop(self) -> list[tuple[float, float, float]]:
        self._stop.set()
        self._thread.join(10)
        self.samples.append((perf_counter(), *self._clock()))
        return self.samples


def cpu_times(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds of process ``pid``, all threads."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def own_cpu_times() -> tuple[float, float]:
    """(user, system) CPU seconds of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


# ----------------------------------------------------------------------
# The in-process engine (embed_rules)
# ----------------------------------------------------------------------
class Embedded:
    """``Sentinel`` over ``Database(path, locking=True)`` in this process,
    with the harness's deferred and composite-event rules added to the
    application's immediate and decoupled class rules."""

    def __init__(self, path: str) -> None:
        from repro.core import Primitive, Sentinel, Sequence
        from repro.oodb import Database

        import bankapp

        started, cpu = perf_counter(), sum(own_cpu_times())
        self.db = Database(path, locking=True, fsync=FSYNC_POLICY)
        self.sentinel = Sentinel(db=self.db)
        self.sentinel.enable_worker_pool(max_workers=WORKERS)
        # Make this system's scheduler the ambient one, as the rule server
        # does: delivery rounds must open on the scheduler the rules fire
        # through, or an immediate rule runs before the detector sees the
        # event that triggered it.
        self.sentinel.__enter__()
        #: Opening the store until ready for the first transaction: wall
        #: seconds, and CPU seconds of this process.
        self.setup_wall_s = perf_counter() - started
        self.setup_cpu_s = sum(own_cpu_times()) - cpu
        self.counts = {"deferred": 0, "composite": 0}
        deposit = "end Account::deposit(int amount, int ref)"
        deferred = self.sentinel.create_rule(
            "balance-check",
            event=deposit,
            condition=lambda ctx: ctx.source.balance >= 0,
            action=lambda ctx: self._bump("deferred"),
            coupling="deferred",
        )
        posted = Sequence(
            Primitive(deposit), Primitive("end Branch::post(int amount)"), name="deposit-posted"
        )
        self.sentinel.detector.register(posted)
        self.sentinel.create_rule(
            "posted", event=posted, action=lambda ctx: self._bump("composite")
        )
        # Class-level subscription: every account and branch reaches the
        # deferred rule / the detector without per-instance wiring.
        self._attached = [
            (bankapp.Account, deferred),
            (bankapp.Account, self.sentinel.detector),
            (bankapp.Branch, self.sentinel.detector),
        ]
        for cls, consumer in self._attached:
            cls._class_consumers.append(consumer)
        self.finished: dict[int, float] = {}
        bankapp.audit_sink = self.finished.__setitem__

    def _bump(self, name: str) -> None:
        self.counts[name] += 1

    def close(self) -> None:
        import bankapp

        bankapp.audit_sink = None
        for cls, consumer in self._attached:
            cls._class_consumers.remove(consumer)
        self.sentinel.__exit__(None, None, None)
        self.sentinel.close()

    def ops(
        self, oracle: store.Oracle, rng: random.Random, ledger: Ledger,
        refs: Iterator[int], committed: dict[int, float],
        on_txn: "Callable[[], Any] | None" = None,
    ) -> Iterator[tuple[str, Callable[[Any, Result], None]]]:
        """Endless transactions of :data:`DEPOSITS_PER_TXN` deposits on
        distinct Zipf keys; ``on_txn`` runs as each one starts."""
        db = self.db
        while True:
            keys: list[int] = []
            while len(keys) < DEPOSITS_PER_TXN:
                key = oracle.zipf_keys(rng, 1)[0]
                if key not in keys:
                    keys.append(key)
            batch = [(i, rng.randint(1, 99), next(refs)) for i in keys]

            def body(_client: Any, result: Result, batch=batch) -> None:
                from repro.oodb.oid import Oid

                if on_txn is not None:
                    on_txn()
                with db.transaction():
                    for index, amount, ref in batch:
                        db.fetch(Oid(oracle.account_oids[index])).deposit(amount, ref=ref)
                done = perf_counter()
                for index, amount, ref in batch:
                    ledger.note(index, amount, acked=True)
                    committed[ref] = done

            yield "txn", body

    def check(self, oracle: store.Oracle, ledger: Ledger, drained: bool) -> list[str]:
        """Compare the store with the acknowledged deposits."""
        with self.db.snapshot() as snap:
            problems = check_store(snap.fetch, oracle, ledger, drained)
        n = ledger.writes()
        for name in ("deferred", "composite"):
            if self.counts[name] != n:
                problems.append(f"{name} rule fired {self.counts[name]} times for {n} deposits")
        return problems


def check_store(
    fetch: Callable[[Any], Any], oracle: store.Oracle, ledger: Ledger, drained: bool
) -> list[str]:
    """Durability and rule-effect checks against the acknowledged writes.

    Every acknowledged deposit and its ledger posting must be present;
    deposits whose answer was lost may or may not be.  The decoupled
    audits may lag the deposits (``drained=False``) but never exceed
    them; once the pool is drained they must match exactly.
    """
    from repro.oodb.oid import Oid

    problems: list[str] = []
    touched = set(ledger.acked) | set(ledger.unknown)
    branch_delta: dict[int, int] = {}
    branch_posts: dict[int, int] = {}
    for index in sorted(touched):
        account = fetch(Oid(oracle.account_oids[index]))
        acked, unknown = ledger.acked.get(index, 0), ledger.unknown.get(index, 0)
        acked_n, unknown_n = ledger.acked_n.get(index, 0), ledger.unknown_n.get(index, 0)
        gained = account.balance - oracle.balances[index]
        if not acked <= gained <= acked + unknown:
            problems.append(f"account {index}: balance +{gained}, acknowledged +{acked}")
        if not acked_n <= account.deposits <= acked_n + unknown_n:
            problems.append(f"account {index}: {account.deposits} deposits, acknowledged {acked_n}")
        limit = account.deposits if unknown_n else acked_n
        if account.audited > limit or (drained and account.audited != account.deposits):
            problems.append(f"account {index}: {account.audited} audits for {account.deposits} deposits")
        branch = oracle.branch_of[index]
        branch_delta[branch] = branch_delta.get(branch, 0) + gained
        branch_posts[branch] = branch_posts.get(branch, 0) + account.deposits
    for branch, gained in branch_delta.items():
        record = fetch(Oid(oracle.branch_oids[branch]))
        if record.ledger != gained or record.posts != branch_posts[branch]:
            problems.append(
                f"branch {branch}: ledger {record.ledger}/{record.posts} posts, "
                f"deposits say {gained}/{branch_posts[branch]}"
            )
    return problems
