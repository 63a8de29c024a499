"""Tests for the cost-aware query planner and the clustered read path."""

import random
import threading

import pytest

from repro.oodb import Database, Persistent
from repro.oodb.errors import ObjectNotFound
from repro.oodb.oid import Oid
from repro.obs.metrics import metrics

_MISSING = object()

_OPS = {
    "==": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Emp(Persistent):
    def __init__(self, name, salary, dept, rating):
        super().__init__()
        self.name = name
        self.salary = salary
        self.dept = dept
        self.rating = rating


def brute_force(objects, filters):
    """Reference semantics: missing attribute == no match."""
    out = []
    for obj in objects:
        for attribute, op, value in filters:
            attr_value = getattr(obj, attribute, _MISSING)
            if attr_value is _MISSING or not _OPS[op](attr_value, value):
                break
        else:
            out.append(obj)
    return out


@pytest.fixture
def staffed(mem_db):
    rng = random.Random(0xC0FFEE)
    objects = []
    for i in range(200):
        emp = Emp(
            f"emp{i:03d}",
            rng.randrange(30_000, 120_000, 500),
            rng.choice(["eng", "sales", "hr", "ops"]),
            rng.random(),
        )
        mem_db.add(emp)
        objects.append(emp)
    mem_db.commit()
    mem_db.create_index(Emp, "salary")
    mem_db.create_index(Emp, "dept")
    return mem_db, objects, rng


class TestPlannerEquivalence:
    """Property-style: every plan must agree with brute force."""

    def test_randomized_workloads_match_brute_force(self, staffed):
        db, objects, rng = staffed
        for _ in range(60):
            filters = []
            if rng.random() < 0.7:
                op = rng.choice(["==", "<", "<=", ">", ">="])
                filters.append(("salary", op, rng.randrange(30_000, 120_000, 250)))
                # More bounds on the same attribute: the planner folds
                # them into one two-sided range (or an empty one).
                for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                    op = rng.choice(["<", "<=", ">", ">="])
                    filters.append(
                        ("salary", op, rng.randrange(30_000, 120_000, 250))
                    )
            if rng.random() < 0.7:
                filters.append(("dept", "==", rng.choice(["eng", "sales", "qa"])))
            if rng.random() < 0.4:
                # rating has no index: always a residual filter.
                filters.append(("rating", rng.choice(["<", ">="]), rng.random()))
            query = db.query(Emp)
            for attribute, op, value in filters:
                query.where_op(attribute, op, value)
            expected = {obj.name for obj in brute_force(objects, filters)}
            got = {obj.name for obj in query}
            assert got == expected, (filters, query.explain().describe())
            assert query.count() == len(expected)
            assert query.exists() == bool(expected)

    def test_intersection_path_matches_brute_force(self, staffed):
        db, objects, _rng = staffed
        filters = [("salary", ">=", 100_000), ("dept", "==", "eng")]
        query = db.query(Emp)
        for attribute, op, value in filters:
            query.where_op(attribute, op, value)
        plan = query.explain()
        assert plan.access_path in ("index_intersect", "index_eq", "index_range")
        assert {o.name for o in query} == {
            o.name for o in brute_force(objects, filters)
        }

    def test_order_by_with_limit_streams_from_index(self, staffed):
        db, objects, _rng = staffed
        query = db.query(Emp).order_by("salary").limit(10)
        assert query.explain().access_path == "index_order"
        got = [o.salary for o in query]
        expected = sorted(o.salary for o in objects)[:10]
        assert got == expected

    def test_order_by_descending_on_range_filter(self, staffed):
        db, objects, _rng = staffed
        query = (
            db.query(Emp)
            .where_op("salary", ">=", 90_000)
            .order_by("salary", descending=True)
        )
        plan = query.explain()
        assert plan.access_path == "index_range"
        assert not plan.sort_needed
        got = [o.salary for o in query]
        assert got == sorted(
            (o.salary for o in objects if o.salary >= 90_000), reverse=True
        )


def _range_query(db, filters):
    query = db.query(Emp)
    for attribute, op, value in filters:
        query.where_op(attribute, op, value)
    return query


BOUND_PAIRS = [(">", "<"), (">", "<="), (">=", "<"), (">=", "<=")]


class TestTwoSidedRanges:
    """``lo <= x < hi`` plans as one bounded B-tree walk."""

    @pytest.mark.parametrize("lo_op,hi_op", BOUND_PAIRS)
    def test_bound_pairs_fold_into_one_index_walk(self, staffed, lo_op, hi_op):
        db, objects, _rng = staffed
        salaries = sorted({o.salary for o in objects})
        # Existing keys as bounds, so inclusive/exclusive ends matter.
        lo, hi = salaries[40], salaries[90]
        filters = [("salary", lo_op, lo), ("salary", hi_op, hi)]
        query = _range_query(db, filters)
        plan = query.explain()
        assert plan.access_path == "index_range"
        assert plan.residual_filters == ()
        assert plan.index_only
        (choice,) = plan.index_filters
        assert choice.comparisons == ((lo_op, lo), (hi_op, hi))
        expected = {o.name for o in brute_force(objects, filters)}
        assert expected
        assert {o.name for o in query} == expected
        metrics.counter("index_only_answers").reset()
        pins = metrics.counter("fetch_many_page_pins").value
        assert query.count() == len(expected)
        assert query.exists()
        # count() stays index-only: count_range(low, high), nothing fetched.
        assert metrics.counter("index_only_answers").value == 2
        assert metrics.counter("fetch_many_page_pins").value == pins

    @pytest.mark.parametrize("lo_op,hi_op", BOUND_PAIRS)
    def test_degenerate_ranges(self, staffed, lo_op, hi_op):
        db, objects, _rng = staffed
        salaries = sorted({o.salary for o in objects})
        key = salaries[50]
        for lo, hi in [(key, key), (salaries[60], salaries[20])]:
            filters = [("salary", lo_op, lo), ("salary", hi_op, hi)]
            query = _range_query(db, filters)
            expected = {o.name for o in brute_force(objects, filters)}
            if lo > hi or (lo_op, hi_op) != (">=", "<="):
                assert expected == set()
            else:
                assert expected  # lo == hi, both ends inclusive: one key
            assert {o.name for o in query} == expected
            assert query.count() == len(expected)
            assert query.exists() == bool(expected)
            with db.snapshot():
                assert {o.name for o in query} == expected
                assert query.count() == len(expected)

    def test_several_bounds_keep_the_tightest(self, staffed):
        db, objects, _rng = staffed
        filters = [
            ("salary", ">", 40_000),
            ("salary", ">=", 50_000),
            ("salary", "<", 100_000),
            ("salary", "<=", 90_000),
            ("salary", ">", 50_000),
            ("salary", "<=", 95_000),
        ]
        query = _range_query(db, filters)
        plan = query.explain()
        (choice,) = plan.index_filters
        assert choice.comparisons == ((">", 50_000), ("<=", 90_000))
        assert plan.residual_filters == ()
        expected = {o.name for o in brute_force(objects, filters)}
        assert {o.name for o in query} == expected
        assert query.count() == len(expected)

    def test_tie_prefers_the_exclusive_bound(self, staffed):
        db, _objects, _rng = staffed
        plan = _range_query(
            db,
            [
                ("salary", "<=", 80_000),
                ("salary", ">=", 60_000),
                ("salary", "<", 80_000),
                ("salary", ">", 60_000),
            ],
        ).explain()
        (choice,) = plan.index_filters
        assert choice.comparisons == ((">", 60_000), ("<", 80_000))

    def test_estimate_uses_both_bounds(self, staffed):
        db, objects, _rng = staffed
        plan = _range_query(
            db, [("salary", ">=", 70_000), ("salary", "<", 75_000)]
        ).explain()
        actual = sum(1 for o in objects if 70_000 <= o.salary < 75_000)
        one_sided = _range_query(db, [("salary", ">=", 70_000)]).explain()
        assert plan.estimated_rows < one_sided.estimated_rows // 4
        assert abs(plan.estimated_rows - actual) <= 16

    def test_two_sided_range_beats_equality_on_another_index(self, staffed):
        db, objects, _rng = staffed
        filters = [
            ("dept", "==", "eng"),
            ("salary", ">=", 70_000),
            ("salary", "<", 72_000),
        ]
        query = _range_query(db, filters)
        plan = query.explain()
        assert plan.index_filters[0].attribute == "salary"
        assert {o.name for o in query} == {
            o.name for o in brute_force(objects, filters)
        }

    def test_descending_order_streams_from_two_sided_walk(self, staffed):
        db, objects, _rng = staffed
        query = (
            db.query(Emp)
            .where_op("salary", ">", 60_000)
            .where_op("salary", "<=", 90_000)
            .order_by("salary", descending=True)
            .limit(7)
        )
        plan = query.explain()
        assert plan.access_path == "index_range" and not plan.sort_needed
        assert [o.salary for o in query] == sorted(
            (o.salary for o in objects if 60_000 < o.salary <= 90_000),
            reverse=True,
        )[:7]

    def test_dual_indexed_attribute_ranges_use_the_btree(self, mem_db):
        objects = []
        for i in range(120):
            emp = Emp(f"e{i:03d}", 30_000 + 500 * (i % 80), "eng", 0.0)
            mem_db.add(emp)
            objects.append(emp)
        mem_db.commit()
        mem_db.create_index(Emp, "salary", kind="hash")
        mem_db.create_index(Emp, "salary")
        for lo_op, hi_op in BOUND_PAIRS:
            filters = [("salary", lo_op, 40_000), ("salary", hi_op, 45_000)]
            query = _range_query(mem_db, filters)
            plan = query.explain()
            (choice,) = plan.index_filters
            assert (plan.access_path, choice.kind) == ("index_range", "btree")
            expected = {o.name for o in brute_force(objects, filters)}
            assert {o.name for o in query} == expected
            assert query.count() == len(expected)
        # Equality still prefers the hash; the range folds on the B-tree
        # and the intersection keeps both.
        filters = [
            ("salary", "==", 42_000),
            ("salary", ">=", 40_000),
            ("salary", "<", 45_000),
        ]
        query = _range_query(mem_db, filters)
        assert query.explain().index_filters[0].kind == "hash"
        assert {o.name for o in query} == {
            o.name for o in brute_force(objects, filters)
        }

    @pytest.mark.parametrize("lo_op,hi_op", BOUND_PAIRS)
    def test_snapshot_rechecks_both_bounds(self, staffed, lo_op, hi_op):
        db, objects, _rng = staffed
        lo, hi = 60_000, 80_000
        filters = [("salary", lo_op, lo), ("salary", hi_op, hi)]
        inside = [o for o in objects if 62_000 <= o.salary <= 78_000]
        above = next(o for o in objects if o.salary > 90_000)
        below = next(o for o in objects if o.salary < 50_000)
        leaver = inside[0]
        moves = {leaver: 100_000, above: 70_000, below: 71_000}
        query = _range_query(db, filters)

        def writer() -> None:
            with db.transaction():
                for obj, salary in moves.items():
                    db.fetch(obj._p_oid).salary = salary

        with db.snapshot() as snap:
            thread = threading.Thread(target=writer)
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
            copies = [snap.fetch(o._p_oid) for o in objects]
            at_snapshot = {o.name for o in brute_force(copies, filters)}
            got = {o.name for o in query}
            # Index candidates are read at query time: a row whose current
            # value left the range is not a candidate any more.  Rows that
            # moved *into* the index range carry out-of-range values in
            # their snapshot copies and fail the re-check of the upper
            # (``above``) or lower (``below``) bound.
            assert got == at_snapshot - {leaver.name}
            assert above.name not in got and below.name not in got
            assert query.count() == len(got)
            assert all(lo <= o.salary <= hi for o in query)
        now = {o.name for o in brute_force(objects, filters)}
        assert {above.name, below.name} <= now and leaver.name not in now
        assert {o.name for o in query} == now
        assert query.count() == len(now)


class TestPlanShapes:
    def test_eq_filter_plans_index_eq(self, staffed):
        db, _objects, _rng = staffed
        plan = db.query(Emp).where_eq("dept", "eng").explain()
        assert plan.access_path == "index_eq"
        assert plan.index_filters[0].index_name == "Emp.dept"
        assert plan.index_only

    def test_cheapest_index_wins(self, staffed):
        db, objects, _rng = staffed
        # A narrow salary band is far more selective than a whole dept.
        plan = (
            db.query(Emp)
            .where_eq("dept", "eng")
            .where_op("salary", ">=", 118_000)
            .explain()
        )
        assert plan.index_filters[0].attribute == "salary"

    def test_unindexed_filter_is_residual(self, staffed):
        db, _objects, _rng = staffed
        plan = db.query(Emp).where_op("rating", ">", 0.5).explain()
        assert plan.access_path == "extent_scan"
        assert plan.residual_filters == (("rating", ">", 0.5),)
        assert not plan.index_only

    def test_count_is_index_only(self, staffed):
        db, objects, _rng = staffed
        metrics.counter("index_only_answers").reset()
        before_pins = metrics.counter("fetch_many_page_pins").value
        query = db.query(Emp).where_op("salary", ">=", 60_000)
        expected = sum(1 for o in objects if o.salary >= 60_000)
        assert query.count() == expected
        assert metrics.counter("index_only_answers").value == 1
        assert metrics.counter("fetch_many_page_pins").value == before_pins

    def test_execution_metrics_are_labeled_by_access_path(self, staffed):
        db, _objects, _rng = staffed
        counter = metrics.counter("query_executions{access_path=index_eq}")
        before = counter.value
        db.query(Emp).where_eq("dept", "hr").all()
        assert counter.value == before + 1


class TestExplainGolden:
    def test_extent_scan_plan(self, mem_db):
        mem_db.add(Emp("solo", 50_000, "eng", 0.5))
        mem_db.commit()
        plan = mem_db.query(Emp, include_subclasses=False).where_eq(
            "name", "solo"
        )
        assert plan.explain().describe() == (
            "query plan: Emp (subclasses excluded)\n"
            "  access: extent_scan, 1 extent rows\n"
            "  residual: name == 'solo'\n"
            "  index-only count/exists: no"
        )

    def test_indexed_plan_with_order_and_limit(self, mem_db):
        for i in range(4):
            mem_db.add(Emp(f"e{i}", 40_000 + i * 10_000, "eng", 0.1))
        mem_db.commit()
        mem_db.create_index(Emp, "salary")
        plan = (
            mem_db.query(Emp)
            .where_op("salary", ">=", 50_000)
            .order_by("salary")
            .limit(2)
            .explain()
        )
        assert plan.describe() == (
            "query plan: Emp (subclasses included)\n"
            "  access: index_range via btree:Emp.salary (salary >= 50000),"
            " est ~3 rows\n"
            "  order: salary asc (streamed in key order)\n"
            "  limit: 2\n"
            "  index-only count/exists: yes"
        )


class TestHashIndexPlanning:
    """The extendible hash index behind the planner's cost model."""

    @pytest.fixture
    def hashed(self, mem_db):
        rng = random.Random(0xBEEF)
        objects = []
        for i in range(200):
            emp = Emp(
                f"emp{i:03d}",
                rng.randrange(30_000, 120_000, 500),
                rng.choice(["eng", "sales", "hr", "ops"]),
                rng.random(),
            )
            mem_db.add(emp)
            objects.append(emp)
        mem_db.commit()
        mem_db.create_index(Emp, "name", kind="hash")  # hash-only attr
        mem_db.create_index(Emp, "dept", kind="hash")
        mem_db.create_index(Emp, "dept")  # both kinds on dept
        mem_db.create_index(Emp, "salary")  # btree-only attr
        return mem_db, objects

    def test_eq_filter_plans_hash_eq(self, hashed):
        db, objects, = hashed
        query = db.query(Emp).where_eq("name", "emp042")
        plan = query.explain()
        assert plan.access_path == "hash_eq"
        assert plan.index_filters[0].kind == "hash"
        assert plan.index_only
        assert [o.name for o in query] == ["emp042"]
        assert query.count() == 1 and query.exists()

    def test_hash_beats_btree_for_point_lookups(self, hashed):
        db, objects = hashed
        # Both kinds cover dept; the hash probe is cheaper than the
        # B-tree descent at equal estimated rows.
        plan = db.query(Emp).where_eq("dept", "eng").explain()
        assert plan.access_path == "hash_eq"
        assert plan.index_filters[0].kind == "hash"
        choice = plan.index_filters[0]
        assert choice.cost < choice.estimated_rows + 1.0

    def test_hash_results_match_brute_force(self, hashed):
        db, objects = hashed
        for dept in ["eng", "sales", "hr", "ops", "missing"]:
            filters = [("dept", "==", dept)]
            query = db.query(Emp).where_eq("dept", dept)
            expected = {o.name for o in brute_force(objects, filters)}
            assert {o.name for o in query} == expected
            assert query.count() == len(expected)

    def test_hash_is_never_chosen_for_ranges(self, hashed):
        db, objects = hashed
        # ``name`` has only a hash index: a range filter over it must
        # fall back to an extent scan with a residual, never index_range.
        filters = [("name", ">=", "emp150")]
        query = db.query(Emp).where_op("name", ">=", "emp150")
        plan = query.explain()
        assert plan.access_path == "extent_scan"
        assert plan.residual_filters == (("name", ">=", "emp150"),)
        assert not plan.index_filters
        assert {o.name for o in query} == {
            o.name for o in brute_force(objects, filters)
        }

    def test_hash_is_never_chosen_for_order_by(self, hashed):
        db, objects = hashed
        query = db.query(Emp).order_by("name")
        plan = query.explain()
        assert plan.access_path != "index_order"
        assert plan.sort_needed
        assert [o.name for o in query] == sorted(o.name for o in objects)

    def test_range_on_dual_indexed_attribute_uses_btree(self, hashed):
        db, objects = hashed
        db.create_index(Emp, "salary", kind="hash")
        filters = [("salary", ">=", 100_000)]
        query = db.query(Emp).where_op("salary", ">=", 100_000)
        plan = query.explain()
        assert plan.access_path == "index_range"
        assert plan.index_filters[0].kind == "btree"
        assert {o.name for o in query} == {
            o.name for o in brute_force(objects, filters)
        }

    def test_hash_index_maintained_by_updates(self, hashed):
        db, objects = hashed
        target = objects[7]
        with db.transaction():
            target.dept = "research"
        query = db.query(Emp).where_eq("dept", "research")
        assert [o.name for o in query] == [target.name]
        assert db.query(Emp).where_eq("dept", "eng").count() == sum(
            1 for o in objects if o.dept == "eng"
        )

    def test_golden_hash_plan(self, mem_db):
        for i, dept in enumerate(["eng", "eng", "hr", "ops"]):
            mem_db.add(Emp(f"e{i}", 40_000, dept, 0.1))
        mem_db.commit()
        mem_db.create_index(Emp, "dept", kind="hash")
        plan = mem_db.query(Emp).where_eq("dept", "eng").explain()
        assert plan.describe() == (
            "query plan: Emp (subclasses included)\n"
            "  access: hash_eq via hash:Emp.dept (dept == 'eng'),"
            " est ~2 rows\n"
            "  index-only count/exists: yes"
        )

    def test_execution_metrics_labeled_hash_eq(self, hashed):
        db, _objects = hashed
        counter = metrics.counter("query_executions{access_path=hash_eq}")
        before = counter.value
        db.query(Emp).where_eq("dept", "hr").all()
        assert counter.value == before + 1


class TestFetchMany:
    def _build(self, tmp_path, count=120):
        db = Database(str(tmp_path / "db"), sync=False)
        oids = []
        # Payloads sized so the extent spans several heap pages.
        for i in range(count):
            emp = Emp(f"e{i:04d}", 30_000 + i, "eng", 0.0)
            emp.padding = "x" * 256
            db.add(emp)
            oids.append(emp._p_oid)
        db.commit()
        return db, oids

    def test_cold_fetch_crosses_page_boundaries(self, tmp_path):
        db, oids = self._build(tmp_path)
        try:
            assert db._heap.page_count > 1
            db.evict_cache()
            shuffled = list(oids)
            random.Random(7).shuffle(shuffled)
            objects = db.fetch_many(shuffled)
            assert [o._p_oid for o in objects] == shuffled
            assert all(o.padding == "x" * 256 for o in objects)
        finally:
            db.close()

    def test_duplicates_and_order_preserved(self, tmp_path):
        db, oids = self._build(tmp_path, count=30)
        try:
            db.evict_cache()
            batch = [oids[3], oids[7], oids[3], oids[0], oids[7]]
            objects = db.fetch_many(batch)
            assert [o._p_oid for o in objects] == batch
            assert objects[0] is objects[2]  # identity map holds
        finally:
            db.close()

    def test_pins_each_page_once(self, tmp_path):
        db, oids = self._build(tmp_path)
        try:
            db.evict_cache()
            pages = {db._locations[oid].page for oid in oids}
            before = metrics.counter("fetch_many_page_pins").value
            db.fetch_many(oids)
            assert (
                metrics.counter("fetch_many_page_pins").value - before
                == len(pages)
            )
        finally:
            db.close()

    def test_overflow_records_reassemble(self, tmp_path):
        db = Database(str(tmp_path / "db"), sync=False)
        try:
            big = Emp("big", 1, "eng", 0.0)
            big.blob = "y" * 20_000  # spills into an overflow chain
            small = Emp("small", 2, "eng", 0.0)
            db.add(big)
            db.add(small)
            db.commit()
            big_oid, small_oid = big._p_oid, small._p_oid
            db.evict_cache()
            fetched_big, fetched_small = db.fetch_many([big_oid, small_oid])
            assert fetched_big.blob == "y" * 20_000
            assert fetched_small.name == "small"
        finally:
            db.close()

    def test_unknown_oid_raises(self, tmp_path):
        db, oids = self._build(tmp_path, count=5)
        try:
            with pytest.raises(ObjectNotFound):
                db.fetch_many([oids[0], Oid(999_999)])
        finally:
            db.close()
