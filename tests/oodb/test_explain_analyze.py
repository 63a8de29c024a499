"""EXPLAIN ANALYZE: actual per-stage numbers next to planner estimates.

The text goldens pin the full rendering — estimated vs actual rows for
every access path — with only the wall-time line masked (the single
nondeterministic line).
"""

import re

import pytest

from repro.oodb import Database, Persistent
from repro.oodb.query import AnalyzedPlan, ExecutionStats, QueryPlan


class Emp(Persistent):
    def __init__(self, name, salary, dept, rating):
        super().__init__()
        self.name = name
        self.salary = salary
        self.dept = dept
        self.rating = rating


@pytest.fixture
def staffed(mem_db):
    objects = []
    for i in range(20):
        emp = Emp(f"e{i:02d}", 1000 + i * 100, "eng" if i % 2 else "ops", i)
        mem_db.add(emp)
        objects.append(emp)
    mem_db.commit()
    mem_db.create_index(Emp, "salary")
    mem_db.create_index(Emp, "dept")
    mem_db.create_index(Emp, "name", kind="hash")
    return mem_db, objects


def masked(analyzed):
    """The describe() text with the (nondeterministic) time line masked."""
    return re.sub(
        r"  time: access [0-9.]+µs, fetch [0-9.]+µs, filter [0-9.]+µs, "
        r"sort [0-9.]+µs, total [0-9.]+µs",
        "  time: <masked>",
        analyzed.describe(),
    )


GOLDEN_EXTENT_SCAN = """\
query plan: Emp (subclasses included)
  access: extent_scan, 20 extent rows
  residual: rating > 14
  index-only count/exists: no
analyze:
  rows: est ~20, scanned 20, returned 5
  index probes: 0
  fetch: 20 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 15
  time: <masked>"""

GOLDEN_INDEX_EQ = """\
query plan: Emp (subclasses included)
  access: index_eq via btree:Emp.dept (dept == 'eng'), est ~10 rows
  index-only count/exists: yes
analyze:
  rows: est ~10, scanned 10, returned 10
  index probes: 1
  fetch: 10 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_INDEX_RANGE = """\
query plan: Emp (subclasses included)
  access: index_range via btree:Emp.salary (salary > 2500), est ~5 rows
  index-only count/exists: yes
analyze:
  rows: est ~5, scanned 4, returned 4
  index probes: 1
  fetch: 4 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_TWO_SIDED_PLAN = """\
query plan: Emp (subclasses included)
  access: index_range via btree:Emp.salary (salary >= 1500 and salary < 2000), est ~6 rows
  index-only count/exists: yes"""

GOLDEN_INDEX_RANGE_TWO_SIDED = GOLDEN_TWO_SIDED_PLAN + """
analyze:
  rows: est ~6, scanned 5, returned 5
  index probes: 1
  fetch: 5 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_HASH_EQ = """\
query plan: Emp (subclasses included)
  access: hash_eq via hash:Emp.name (name == 'e05'), est ~1 rows
  index-only count/exists: yes
analyze:
  rows: est ~1, scanned 1, returned 1
  index probes: 1
  fetch: 1 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_INDEX_INTERSECT = """\
query plan: Emp (subclasses included)
  access: index_intersect via btree:Emp.dept (dept == 'eng'), est ~10 rows
  intersect: btree:Emp.salary (salary > 1400), est ~16 rows
  index-only count/exists: yes
analyze:
  rows: est ~10, scanned 8, returned 8
  index probes: 2
  fetch: 8 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_INDEX_ORDER = """\
query plan: Emp (subclasses included)
  access: index_order, 20 extent rows
  order: salary desc (streamed in key order)
  limit: 3
  index-only count/exists: yes
analyze:
  rows: est ~20, scanned 20, returned 3
  index probes: 1
  fetch: 20 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 0
  time: <masked>"""

GOLDEN_SORTED = """\
query plan: Emp (subclasses included)
  access: extent_scan, 20 extent rows
  residual: rating > 14
  order: rating asc (sorted in memory)
  index-only count/exists: no
analyze:
  rows: est ~20, scanned 20, returned 5
  index probes: 0
  fetch: 20 objects, 0 page pins
  buffer pool: untouched
  residual filter: dropped 15
  time: <masked>"""


class TestGoldenText:
    def test_extent_scan(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).where_op("rating", ">", 14).explain(
            analyze=True
        )
        assert masked(analyzed) == GOLDEN_EXTENT_SCAN

    def test_index_eq(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).where_op("dept", "==", "eng").explain(
            analyze=True
        )
        assert masked(analyzed) == GOLDEN_INDEX_EQ

    def test_index_range(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).where_op("salary", ">", 2500).explain(
            analyze=True
        )
        assert masked(analyzed) == GOLDEN_INDEX_RANGE

    def test_index_range_two_sided(self, staffed):
        db, _ = staffed
        query = (
            db.query(Emp)
            .where_op("salary", ">=", 1500)
            .where_op("salary", "<", 2000)
        )
        assert query.explain().describe() == GOLDEN_TWO_SIDED_PLAN
        assert masked(query.explain(analyze=True)) == (
            GOLDEN_INDEX_RANGE_TWO_SIDED
        )

    def test_hash_eq(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).where_eq("name", "e05").explain(analyze=True)
        assert masked(analyzed) == GOLDEN_HASH_EQ

    def test_index_intersect(self, staffed):
        db, _ = staffed
        analyzed = (
            db.query(Emp)
            .where_op("dept", "==", "eng")
            .where_op("salary", ">", 1400)
            .explain(analyze=True)
        )
        assert masked(analyzed) == GOLDEN_INDEX_INTERSECT

    def test_index_order(self, staffed):
        db, _ = staffed
        analyzed = (
            db.query(Emp)
            .order_by("salary", descending=True)
            .limit(3)
            .explain(analyze=True)
        )
        assert masked(analyzed) == GOLDEN_INDEX_ORDER

    def test_in_memory_sort(self, staffed):
        db, _ = staffed
        analyzed = (
            db.query(Emp)
            .where_op("rating", ">", 14)
            .order_by("rating")
            .explain(analyze=True)
        )
        assert masked(analyzed) == GOLDEN_SORTED


class TestGoldenJson:
    def test_json_shape(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).where_op("salary", ">", 2500).explain(
            analyze=True
        )
        data = analyzed.to_json()
        assert data["plan"] == {
            "class_name": "Emp",
            "include_subclasses": True,
            "access_path": "index_range",
            "index_filters": [
                {
                    "attribute": "salary",
                    "op": ">",
                    "value": "2500",
                    "index": "Emp.salary",
                    "kind": "btree",
                    "estimated_rows": 5,
                }
            ],
            "residual_filters": [],
            "predicates": 0,
            "order": None,
            "sort_needed": False,
            "index_only": True,
            "limit": None,
            "estimated_rows": 5,
            "extent_size": 20,
        }
        actual = data["actual"]
        assert actual["candidates"] == 4
        assert actual["fetched"] == 4
        assert actual["returned"] == 4
        assert actual["residual_dropped"] == 0
        assert actual["index_probes"] == 1
        assert actual["page_pins"] == 0
        assert actual["buffer_hits"] == 0
        assert actual["buffer_misses"] == 0
        assert actual["buffer_hit_rate"] == 0.0
        for key in ("access_us", "fetch_us", "filter_us", "sort_us",
                    "total_us"):
            assert isinstance(actual[key], float) and actual[key] >= 0.0

    def test_two_sided_json_carries_both_bounds(self, staffed):
        db, _ = staffed
        data = (
            db.query(Emp)
            .where_op("salary", "<", 2000)
            .where_op("salary", ">=", 1500)
            .explain(analyze=True)
            .to_json()
        )
        assert data["plan"]["index_filters"] == [
            {
                "attribute": "salary",
                "op": ">=",
                "value": "1500",
                "index": "Emp.salary",
                "kind": "btree",
                "estimated_rows": 6,
                "high_op": "<",
                "high": "2000",
            }
        ]
        assert data["plan"]["residual_filters"] == []
        assert data["actual"]["candidates"] == 5
        assert data["actual"]["returned"] == 5

    def test_misestimate_annotation(self):
        plan = QueryPlan(
            class_name="Emp", include_subclasses=True,
            access_path="index_range", index_filters=(),
            residual_filters=(), predicates=0, order=None,
            sort_needed=False, index_only=False, limit=None,
            estimated_rows=4, extent_size=100,
        )
        stats = ExecutionStats(candidates=32, fetched=32, returned=32)
        text = AnalyzedPlan(plan, stats).describe()
        assert "rows: est ~4, scanned 32, returned 32 (misestimate 8x)" in text


class TestSemantics:
    def test_analyze_returns_same_rows_as_execution(self, staffed):
        db, objects = staffed
        query = db.query(Emp).where_op("salary", ">", 1500)
        assert {o.name for o in query} == {
            o.name for o in objects if o.salary > 1500
        }
        analyzed = query.explain(analyze=True)
        assert analyzed.stats.returned == sum(
            1 for o in objects if o.salary > 1500
        )

    def test_explain_without_analyze_returns_plan(self, staffed):
        db, _ = staffed
        plan = db.query(Emp).explain()
        assert isinstance(plan, QueryPlan)
        assert not isinstance(plan, AnalyzedPlan)

    def test_profile_queries_flag_keeps_last_profile(self):
        db = Database(profile_queries=True)
        try:
            for i in range(5):
                db.add(Emp(f"p{i}", 100 * i, "eng", i))
            db.commit()
            rows = list(db.query(Emp).where_op("rating", ">", 2))
            assert len(rows) == 2
            profile = db.last_query_profile
            assert isinstance(profile, AnalyzedPlan)
            assert profile.stats.returned == 2
            assert profile.plan.access_path == "extent_scan"
        finally:
            db.close()

    def test_profiling_off_leaves_no_profile(self):
        db = Database()
        try:
            db.add(Emp("x", 1, "eng", 1))
            db.commit()
            list(db.query(Emp))
            assert db.last_query_profile is None
        finally:
            db.close()

    def test_limit_terminates_early_in_analyzed_streaming(self, staffed):
        db, _ = staffed
        analyzed = db.query(Emp).limit(2).explain(analyze=True)
        assert analyzed.stats.returned == 2
        # Candidates stop at the fetch chunk containing the limit, not
        # the full extent (mirrors the normal streaming path).
        assert analyzed.stats.candidates <= 20

    def test_mid_domain_two_sided_range_scans_only_matches(self, mem_db):
        """Regression: a two-sided range walks the index between its two
        bounds; it never scans from one bound to the end of the domain
        and drops the rest as residual."""
        for i in range(10_000):
            mem_db.add(Emp(f"m{i:05d}", i * 3, "eng", 0))
        mem_db.commit()
        mem_db.create_index(Emp, "salary")
        query = (
            mem_db.query(Emp)
            .where_op("salary", ">=", 14_000)
            .where_op("salary", "<", 16_000)
        )
        analyzed = query.explain(analyze=True)
        matches = sum(1 for i in range(10_000) if 14_000 <= i * 3 < 16_000)
        assert analyzed.stats.returned == matches
        assert analyzed.stats.candidates == matches
        assert analyzed.stats.residual_dropped == 0
        assert query.count() == matches

    def test_on_disk_query_counts_buffer_and_pins(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database(path)
        with db.transaction():
            for i in range(50):
                db.add(Emp(f"d{i:02d}", i * 10, "eng", i))
        db.close()

        db = Database(path)  # cold cache: fetches must touch the heap
        try:
            analyzed = db.query(Emp).where_op("rating", ">=", 0).explain(
                analyze=True
            )
            assert analyzed.stats.returned == 50
            assert analyzed.stats.page_pins > 0
            assert (
                analyzed.stats.buffer_hits + analyzed.stats.buffer_misses > 0
            )
        finally:
            db.close()
