"""The preloaded store and the generator-side oracle.

The store is the same for every run: it comes from :data:`STORE_SEED`,
not from the workload seed, so the one built on a checkout's first run
serves every later run (each run works on a fresh copy of it).  The
workload seed only chooses which keys, amounts and ranges a run sends.

Sizes: 50 000 packed ``Account`` records and 64 ``Branch`` records make
a heap of about 5.5 MB, about 5.3 times the default buffer pool (256
pages of 4 KiB).  Keys follow a Zipf distribution (s = 0.99) over a
fixed random ranking of the accounts, so the hot set fits the pool and
the tail does not.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass

STORE_SEED = 1993
N_ACCOUNTS = 50_000
N_BRANCHES = 64
ZIPF_S = 0.99
#: Preloaded balances are distinct multiples of this step.
BALANCE_STEP = 100
#: Bumped whenever the store layout changes, so a stale cache is rebuilt.
STORE_VERSION = 1

MANIFEST = "perfbench-manifest.json"


@dataclass(frozen=True)
class Oracle:
    """What the generator knows about the preloaded store."""

    account_oids: list[int]
    branch_oids: list[int]
    balances: list[int]
    branch_of: list[int]
    #: Zipf rank r -> account index.
    ranking: list[int]
    sorted_balances: list[int]
    #: Cumulative Zipf weights, for ``random.choices``.
    cum_weights: list[float]
    #: Account oid -> account index.
    oid_index: dict[int, int]

    def owner(self, index: int) -> str:
        return f"owner-{index:05d}"

    def index_of(self, oid: object) -> "int | None":
        return self.oid_index.get(oid) if isinstance(oid, int) else None

    def count_in(self, lo: int, hi: int) -> int:
        """Accounts with ``lo <= balance < hi`` in the preloaded store."""
        return bisect.bisect_left(self.sorted_balances, hi) - bisect.bisect_left(
            self.sorted_balances, lo
        )

    def zipf_keys(self, rng: random.Random, k: int) -> list[int]:
        """``k`` account indexes drawn from the Zipf distribution."""
        ranks = rng.choices(range(N_ACCOUNTS), cum_weights=self.cum_weights, k=k)
        return [self.ranking[r] for r in ranks]


def make_oracle(account_oids: list[int], branch_oids: list[int]) -> Oracle:
    rng = random.Random(STORE_SEED)
    balances = [
        BALANCE_STEP * b for b in rng.sample(range(10_000, 10_000_000), N_ACCOUNTS)
    ]
    branch_of = [rng.randrange(N_BRANCHES) for _ in range(N_ACCOUNTS)]
    ranking = list(range(N_ACCOUNTS))
    rng.shuffle(ranking)
    weights = (1.0 / (r + 1) ** ZIPF_S for r in range(N_ACCOUNTS))
    return Oracle(
        account_oids=account_oids,
        branch_oids=branch_oids,
        balances=balances,
        branch_of=branch_of,
        ranking=ranking,
        sorted_balances=sorted(balances),
        cum_weights=list(itertools.accumulate(weights)),
        oid_index={oid: i for i, oid in enumerate(account_oids)},
    )


def build(path: str) -> None:
    """Generate the store into ``path`` (which must not exist yet)."""
    from repro.oodb import Database

    from bankapp import Account, Branch

    oracle = make_oracle([], [])
    db = Database(path, fsync="never")
    try:
        with db.transaction():
            branches = [Branch(code) for code in range(N_BRANCHES)]
            branch_oids = [db.add(branch).value for branch in branches]
        account_oids: list[int] = []
        batch = 2_000
        for start in range(0, N_ACCOUNTS, batch):
            with db.transaction():
                for i in range(start, min(start + batch, N_ACCOUNTS)):
                    account = Account(
                        number=i,
                        owner=oracle.owner(i),
                        balance=oracle.balances[i],
                        branch=branches[oracle.branch_of[i]],
                    )
                    account_oids.append(db.add(account).value)
        db.create_index(Account, "balance")
        db.checkpoint()
    finally:
        db.close()
    with open(os.path.join(path, MANIFEST), "w") as handle:
        json.dump(
            {
                "version": STORE_VERSION,
                "account_oids": account_oids,
                "branch_oids": branch_oids,
            },
            handle,
        )


def ensure(cache_dir: str) -> tuple[str, Oracle]:
    """The pristine store under ``cache_dir`` (built once) and its oracle."""
    path = os.path.join(cache_dir, f"store-v{STORE_VERSION}")
    if not os.path.exists(os.path.join(path, MANIFEST)):
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        build(tmp)
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
    with open(os.path.join(path, MANIFEST)) as handle:
        manifest = json.load(handle)
    return path, make_oracle(manifest["account_oids"], manifest["branch_oids"])


def fresh_copy(pristine: str, dest: str) -> str:
    """Copy the store's data files (not the manifest) to ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for name in os.listdir(pristine):
        if name != MANIFEST:
            shutil.copy2(os.path.join(pristine, name), os.path.join(dest, name))
    return dest


def dir_bytes(path: str) -> int:
    """Bytes of the store's data files."""
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if name != MANIFEST
    )
