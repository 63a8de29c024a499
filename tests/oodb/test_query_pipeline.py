"""The one query execution pipeline: plain and profiled runs agree.

Profiling (``explain(analyze=True)``, ``db.profile_queries``, an open
slow-op log) only times the stages of the same pipeline the plain path
runs, so both must return the same rows, fetch the same objects and
bump the same counters — and a ``limit`` must never fetch past itself.
"""

import pytest

from repro.obs.metrics import metrics
from repro.oodb import Persistent
from repro.oodb.database import Database, Snapshot


class Emp(Persistent):
    def __init__(self, name, salary, dept, rating):
        super().__init__()
        self.name = name
        self.salary = salary
        self.dept = dept
        self.rating = rating


ROWS = 200


@pytest.fixture
def staffed(mem_db):
    for i in range(ROWS):
        mem_db.add(Emp(f"e{i:03d}", 1000 + i * 10, f"d{i % 10}", (i * 37) % 101))
    mem_db.commit()
    mem_db.create_index(Emp, "salary")
    mem_db.create_index(Emp, "dept")
    mem_db.create_index(Emp, "name", kind="hash")
    return mem_db


@pytest.fixture
def spies(monkeypatch):
    """Record every ``fetch_many`` batch size and ``fetch_or_none`` call."""
    calls = {"fetch_many": [], "fetch_or_none": 0}
    fetch_many, fetch_or_none = Database.fetch_many, Snapshot.fetch_or_none

    def spy_many(self, oids):
        calls["fetch_many"].append(len(oids))
        return fetch_many(self, oids)

    def spy_one(self, oid):
        calls["fetch_or_none"] += 1
        return fetch_or_none(self, oid)

    monkeypatch.setattr(Database, "fetch_many", spy_many)
    monkeypatch.setattr(Snapshot, "fetch_or_none", spy_one)
    return calls


@pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
class TestLimitFetchesNothingPastIt:
    def test_limit_zero_fetches_nothing(self, staffed, spies, profiled):
        staffed.profile_queries = profiled
        assert list(staffed.query(Emp).limit(0)) == []
        assert spies["fetch_many"] == []

    def test_limit_of_one_batch_fetches_one_batch(self, staffed, spies, profiled):
        staffed.profile_queries = profiled
        assert len(list(staffed.query(Emp).limit(64))) == 64
        assert spies["fetch_many"] == [64]

    def test_snapshot_limit_fetches_exactly_limit(self, staffed, spies, profiled):
        staffed.profile_queries = profiled
        with staffed.snapshot():
            assert len(list(staffed.query(Emp).limit(10))) == 10
        assert spies["fetch_or_none"] == 10


#: A query builder per plan shape; the shape names its access path
#: unless ACCESS_PATHS maps it to another.
SHAPES = {
    "extent_scan": lambda db: db.query(Emp).where_op("rating", ">", 30),
    "index_eq": lambda db: db.query(Emp).where_eq("dept", "d3"),
    "index_range": lambda db: db.query(Emp).where_op("salary", ">", 1500),
    "index_range_two_sided": lambda db: (
        db.query(Emp).where_op("salary", ">=", 1400).where_op("salary", "<", 2600)
    ),
    "hash_eq": lambda db: db.query(Emp).where_eq("name", "e042"),
    "index_intersect": lambda db: (
        db.query(Emp)
        .where_eq("dept", "d3")
        .where_op("salary", ">=", 1200)
        .where_op("salary", "<", 1500)
    ),
    "index_order": lambda db: db.query(Emp).order_by("salary", descending=True),
    "sorted_in_memory": lambda db: db.query(Emp).order_by("rating"),
}
ACCESS_PATHS = {
    "index_range_two_sided": "index_range",
    "sorted_in_memory": "extent_scan",
}


def _counters(access_path):
    return (
        metrics.counter(f"query_executions{{access_path={access_path}}}").value,
        metrics.counter("index_hits").value,
    )


def _run(query, access_path, spies):
    spies["fetch_many"].clear()
    spies["fetch_or_none"] = 0
    before = _counters(access_path)
    oids = [obj._p_oid for obj in query]
    after = _counters(access_path)
    fetches = (list(spies["fetch_many"]), spies["fetch_or_none"])
    return oids, tuple(a - b for a, b in zip(after, before)), fetches


@pytest.mark.parametrize("in_snapshot", [False, True], ids=["live", "snapshot"])
@pytest.mark.parametrize("limit", [None, 0, 1, 64])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_profiled_and_plain_runs_agree(staffed, spies, shape, limit, in_snapshot):
    query = SHAPES[shape](staffed)
    if limit is not None:
        query.limit(limit)
    plan = query.explain()
    access_path = ACCESS_PATHS.get(shape, shape)
    assert plan.access_path == access_path
    assert plan.sort_needed == (shape == "sorted_in_memory")

    def run(profiled):
        staffed.profile_queries = profiled
        staffed.last_query_profile = None
        if not in_snapshot:
            return _run(query, access_path, spies)
        with staffed.snapshot():
            return _run(query, access_path, spies)

    plain_oids, plain_counts, plain_fetches = run(False)
    assert staffed.last_query_profile is None
    profiled_oids, profiled_counts, profiled_fetches = run(True)
    assert staffed.last_query_profile is not None

    assert profiled_oids == plain_oids
    assert profiled_counts == plain_counts
    assert profiled_fetches == plain_fetches
    assert plain_counts[0] == 1
    assert staffed.last_query_profile.stats.returned == len(plain_oids)
    if limit is not None:
        assert len(plain_oids) <= limit
