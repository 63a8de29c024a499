"""Tests for the B-tree and the index manager."""

import random

import pytest

from repro.oodb import Persistent
from repro.oodb.errors import DuplicateKey, QueryError
from repro.oodb.index import BTree, IndexDefinition, IndexManager
from repro.oodb.oid import Oid


class TestBTreeBasics:
    def test_insert_search(self):
        tree = BTree()
        tree.insert(5, "five")
        assert tree.search(5) == ["five"]
        assert tree.search(6) == []

    def test_duplicates_accumulate(self):
        tree = BTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.search("k") == [1, 2]
        assert len(tree) == 2

    def test_unique_rejects_duplicates(self):
        tree = BTree(unique=True)
        tree.insert("k", 1)
        with pytest.raises(DuplicateKey):
            tree.insert("k", 2)

    def test_contains(self):
        tree = BTree()
        tree.insert(1, "x")
        assert 1 in tree
        assert 2 not in tree

    def test_items_sorted(self):
        tree = BTree(order=3)
        keys = list(range(100))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 10)
        assert [k for k, _v in tree.items()] == list(range(100))

    def test_range_query(self):
        tree = BTree(order=4)
        for key in range(50):
            tree.insert(key, key)
        assert [k for k, _ in tree.range(10, 15)] == [10, 11, 12, 13, 14, 15]
        assert [k for k, _ in tree.range(10, 15, inclusive=(False, False))] == [
            11, 12, 13, 14,
        ]
        assert [k for k, _ in tree.range(45, None)] == [45, 46, 47, 48, 49]
        assert [k for k, _ in tree.range(None, 3)] == [0, 1, 2, 3]

    def test_bad_order(self):
        with pytest.raises(ValueError):
            BTree(order=1)


class TestBTreeDeletion:
    def test_delete_leaf_key(self):
        tree = BTree(order=2)
        for key in range(20):
            tree.insert(key, key)
        assert tree.delete(7)
        assert tree.search(7) == []
        assert len(tree) == 19
        tree.check_invariants()

    def test_delete_specific_value(self):
        tree = BTree()
        tree.insert("k", 1)
        tree.insert("k", 2)
        assert tree.delete("k", 1)
        assert tree.search("k") == [2]

    def test_delete_missing_returns_false(self):
        tree = BTree()
        tree.insert(1, "a")
        assert not tree.delete(99)
        assert not tree.delete(1, "not-there")

    def test_delete_everything(self):
        tree = BTree(order=2)
        keys = list(range(64))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        random.Random(6).shuffle(keys)
        for key in keys:
            assert tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0
        assert list(tree.items()) == []

    def test_interleaved_insert_delete(self):
        tree = BTree(order=3)
        rng = random.Random(9)
        shadow: dict[int, list[int]] = {}
        for step in range(2000):
            key = rng.randrange(200)
            if rng.random() < 0.6:
                tree.insert(key, step)
                shadow.setdefault(key, []).append(step)
            elif key in shadow and shadow[key]:
                value = shadow[key].pop(0)
                assert tree.delete(key, value)
                if not shadow[key]:
                    del shadow[key]
        tree.check_invariants()
        for key, values in shadow.items():
            assert tree.search(key) == values
        assert len(tree) == sum(len(v) for v in shadow.values())


class TestBTreeCounting:
    def make_tree(self, order=3):
        tree = BTree(order=order)
        entries = []
        rng = random.Random(17)
        for step in range(500):
            key = rng.randrange(80)
            tree.insert(key, step)
            entries.append(key)
        return tree, entries

    def test_count_key(self):
        tree, entries = self.make_tree()
        for key in (0, 13, 79, 200):
            assert tree.count_key(key) == entries.count(key)

    @pytest.mark.parametrize(
        "inclusive", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_count_range_matches_walk(self, inclusive):
        tree, _entries = self.make_tree()
        for low, high in [
            (None, None), (10, 50), (None, 40), (25, None), (30, 30),
            (50, 10), (31, 30),  # empty: low above high
        ]:
            walked = sum(1 for _ in tree.range(low, high, inclusive=inclusive))
            assert tree.count_range(low, high, inclusive=inclusive) == walked

    @pytest.mark.parametrize(
        "inclusive", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_range_values_matches_lazy_range(self, inclusive):
        tree, _entries = self.make_tree()
        for low, high in [
            (None, None), (10, 50), (None, 40), (25, None), (30, 30),
            (50, 10), (31, 30),
        ]:
            lazy = [v for _k, v in tree.range(low, high, inclusive=inclusive)]
            assert tree.range_values(low, high, inclusive=inclusive) == lazy

    def test_counts_survive_deletions(self):
        """Cached subtree counts must be invalidated by every delete shape."""
        by_key: dict[int, list[int]] = {}
        tree = BTree(order=3)
        _tree, entries = self.make_tree()
        for step, key in enumerate(entries):
            tree.insert(key, step)
            by_key.setdefault(key, []).append(step)
        tree.count_range(None, None)  # populate the subtree caches
        for key in list(by_key)[::2]:
            for value in by_key.pop(key):
                assert tree.delete(key, value)
        remaining = sum(len(v) for v in by_key.values())
        assert tree.count_range(None, None) == remaining
        assert tree.count_range(20, 60) == sum(
            len(v) for k, v in by_key.items() if 20 <= k <= 60
        )
        tree.check_invariants()

    def test_estimate_range_count_brackets_truth(self):
        tree, _entries = self.make_tree(order=16)
        for low, high in [(None, 40), (10, 50), (60, None)]:
            exact = tree.count_range(low, high)
            estimate = tree.estimate_range_count(low, high)
            assert 0 <= estimate <= len(tree)
            # The estimate ranks access paths; it should be in the right
            # ballpark, not exact.
            assert abs(estimate - exact) <= max(25, exact)


class TestIndexManager:
    @pytest.fixture
    def manager(self):
        # A tiny fake class hierarchy: Base covers Sub.
        families = {"Base": {"Base", "Sub"}, "Sub": {"Sub"}}
        return IndexManager(lambda name: families.get(name, {name}))

    def test_create_and_find(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Base", Oid(1), {"salary": 100})
        manager.on_add("Base", Oid(2), {"salary": 200})
        assert manager.find_eq("Base", "salary", 100) == [Oid(1)]

    def test_subclass_instances_indexed(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Sub", Oid(3), {"salary": 300})
        assert manager.find_eq("Base", "salary", 300) == [Oid(3)]

    def test_update_moves_key(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Base", Oid(1), {"salary": 100})
        manager.on_update("Base", Oid(1), "salary", 150)
        assert manager.find_eq("Base", "salary", 100) == []
        assert manager.find_eq("Base", "salary", 150) == [Oid(1)]

    def test_remove(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Base", Oid(1), {"salary": 100})
        manager.on_remove("Base", Oid(1))
        assert manager.find_eq("Base", "salary", 100) == []

    def test_range(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        for i in range(10):
            manager.on_add("Base", Oid(i + 1), {"salary": i * 10})
        assert manager.find_range("Base", "salary", 20, 40) == [
            Oid(3), Oid(4), Oid(5),
        ]

    def test_reindex(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Base", Oid(1), {"salary": 1})
        manager.reindex("Base", Oid(1), {"salary": 2})
        assert manager.find_eq("Base", "salary", 2) == [Oid(1)]

    def test_duplicate_index_rejected(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        with pytest.raises(QueryError):
            manager.create(IndexDefinition("Base", "salary"))

    def test_missing_index_rejected(self, manager):
        with pytest.raises(QueryError):
            manager.find_eq("Base", "nope", 1)

    def test_drop(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.drop("Base", "salary")
        with pytest.raises(QueryError):
            manager.find_eq("Base", "salary", 1)

    def test_unrelated_attribute_ignored(self, manager):
        manager.create(IndexDefinition("Base", "salary"))
        manager.on_add("Base", Oid(1), {"salary": 5})
        manager.on_update("Base", Oid(1), "name", "x")  # not indexed
        assert manager.find_eq("Base", "salary", 5) == [Oid(1)]


class IndexedEmp(Persistent):
    def __init__(self, name, salary):
        super().__init__()
        self.name = name
        self.salary = salary


class TestDatabaseIndexIntegration:
    def test_index_built_from_existing_extent(self, mem_db):
        for i in range(5):
            mem_db.add(IndexedEmp(f"e{i}", i * 10))
        mem_db.commit()
        mem_db.create_index(IndexedEmp, "salary")
        hits = mem_db.query(IndexedEmp).where_eq("salary", 30).all()
        assert [e.name for e in hits] == ["e3"]

    def test_index_follows_updates(self, mem_db):
        emp = IndexedEmp("e", 10)
        mem_db.add(emp)
        mem_db.commit()
        mem_db.create_index(IndexedEmp, "salary")
        emp.salary = 20
        assert mem_db.query(IndexedEmp).where_eq("salary", 20).count() == 1
        assert mem_db.query(IndexedEmp).where_eq("salary", 10).count() == 0

    def test_index_rolls_back_with_txn(self, mem_db):
        emp = IndexedEmp("e", 10)
        mem_db.add(emp)
        mem_db.commit()
        mem_db.create_index(IndexedEmp, "salary")
        try:
            with mem_db.transaction():
                emp.salary = 99
                raise RuntimeError
        except RuntimeError:
            pass
        assert mem_db.query(IndexedEmp).where_eq("salary", 10).count() == 1
        assert mem_db.query(IndexedEmp).where_eq("salary", 99).count() == 0
