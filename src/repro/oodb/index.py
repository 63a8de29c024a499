"""Secondary indexes: an in-memory B-tree plus the index manager.

The B-tree is a textbook implementation (order ``t``: internal nodes hold
between ``t-1`` and ``2t-1`` keys except the root) mapping keys to lists of
values.  The :class:`IndexManager` maintains one structure per
``(class, attribute, kind)`` triple — ``kind`` is ``"btree"`` or ``"hash"``
(see :mod:`repro.oodb.hashindex`) — keeps it current as attributes change
(hooked from :meth:`repro.oodb.schema.Persistent.__setattr__` via the
database) and rebuilds after transaction aborts.

Indexes are rebuilt from the heap at database open; their definitions are
persisted in the database catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .errors import DuplicateKey, QueryError
from .hashindex import ExtendibleHashIndex
from .oid import Oid

__all__ = ["BTree", "IndexManager", "IndexDefinition", "INDEX_KINDS"]

_MISSING = object()


class _Node:
    __slots__ = ("keys", "values", "children", "entries")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[Any]] = []
        self.children: list["_Node"] = []
        #: Cached subtree entry count; ``None`` marks it dirty.  Mutations
        #: invalidate every node they touch (conservative, never wrong);
        #: ``BTree._entries`` recomputes lazily, reusing clean children.
        self.entries: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTree:
    """A B-tree mapping comparable keys to lists of values.

    Duplicate keys accumulate values under one key slot; ``unique=True``
    rejects a second value for an existing key with
    :class:`~repro.oodb.errors.DuplicateKey`.
    """

    def __init__(self, order: int = 16, unique: bool = False) -> None:
        if order < 2:
            raise ValueError("B-tree order must be >= 2")
        self._t = order
        self._unique = unique
        self._root = _Node()
        self._size = 0
        self._distinct = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, key: Any) -> list[Any]:
        """Return the values stored under ``key`` (empty list if absent)."""
        node = self._root
        while True:
            idx = _bisect(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                return list(node.values[idx])
            if node.is_leaf:
                return []
            node = node.children[idx]

    def count_key(self, key: Any) -> int:
        """Number of values stored under ``key`` without copying them."""
        node = self._root
        while True:
            idx = _bisect(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                return len(node.values[idx])
            if node.is_leaf:
                return 0
            node = node.children[idx]

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
        reverse: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` in order.

        ``None`` bounds are open; ``inclusive`` controls each endpoint.
        ``reverse=True`` yields keys in descending order (values under one
        key keep insertion order either way).  Subtrees entirely outside
        the bounds are pruned, so a narrow range over a large tree does
        not walk the whole tree.
        """
        for key, values in self._range_walk(self._root, low, high, reverse):
            if not inclusive[0] and low is not None and key == low:
                continue
            if not inclusive[1] and high is not None and key == high:
                continue
            for value in values:
                yield key, value

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> int:
        """Exact number of entries with ``low <= key <= high``.

        Node-granular: sums value-list lengths per visited node instead of
        yielding entries one by one, so it is an order of magnitude
        cheaper than ``sum(1 for _ in range(...))`` — this is what makes
        index-only ``count()`` pay off.  An empty range (``low > high``)
        counts 0.
        """
        if low is not None and high is not None:
            if high < low:
                return 0
            if low == high:
                return self.count_key(low) if inclusive == (True, True) else 0
        total = self._count_range(self._root, low, high)
        if not inclusive[0] and low is not None:
            total -= self.count_key(low)
        if not inclusive[1] and high is not None:
            total -= self.count_key(high)
        return total

    def _count_range(self, node: _Node, low: Any, high: Any) -> int:
        keys = node.keys
        lo = 0 if low is None else _bisect(keys, low)
        hi = len(keys) if high is None else _bisect_right(keys, high)
        total = sum(map(len, node.values[lo:hi]))
        if node.is_leaf:
            return total
        children = node.children
        # Only the two boundary children can straddle a bound; everything
        # between them lies fully inside the range and is answered by the
        # cached subtree total — the walk is O(height), not O(matched).
        if lo == hi:
            return total + self._count_range(children[lo], low, high)
        total += self._count_range(children[lo], low, high)
        total += self._count_range(children[hi], low, high)
        for i in range(lo + 1, hi):
            total += self._entries(children[i])
        return total

    def _entries(self, node: _Node) -> int:
        """Subtree entry count, recomputed only where mutations dirtied it."""
        cached = node.entries
        if cached is None:
            cached = sum(map(len, node.values))
            for child in node.children:
                cached += self._entries(child)
            node.entries = cached
        return cached

    def range_values(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> list[Any]:
        """All values in ``[low, high]`` as one list, in key order.

        The eager counterpart of :meth:`range` for callers that need the
        whole result anyway (OID-set intersection): list ``extend`` per
        node, no generator frame or tuple per entry.
        """
        if low is not None and low == high:
            return list(self.search(low)) if inclusive == (True, True) else []
        out: list[Any] = []
        self._collect_range(self._root, low, high, out)
        # Boundary keys sit at the ends of the ordered result, so
        # exclusive bounds trim rather than filter.
        if not inclusive[0] and low is not None:
            del out[: self.count_key(low)]
        if not inclusive[1] and high is not None:
            count = self.count_key(high)
            if count:
                del out[len(out) - count :]
        return out

    def _collect_range(
        self, node: _Node, low: Any, high: Any, out: list[Any]
    ) -> None:
        keys = node.keys
        lo = 0 if low is None else _bisect(keys, low)
        hi = len(keys) if high is None else _bisect_right(keys, high)
        if node.is_leaf:
            for i in range(lo, hi):
                out.extend(node.values[i])
            return
        for i in range(lo, hi):
            self._collect_range(node.children[i], low, high, out)
            out.extend(node.values[i])
        self._collect_range(node.children[hi], low, high, out)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All ``(key, value)`` pairs in key order."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        for key, _values in self._range_walk(self._root, None, None, False):
            yield key

    def _range_walk(
        self, node: _Node, low: Any, high: Any, reverse: bool
    ) -> Iterator[tuple[Any, list[Any]]]:
        keys = node.keys
        lo = 0 if low is None else _bisect(keys, low)
        hi = len(keys) if high is None else _bisect_right(keys, high)
        if node.is_leaf:
            span = range(lo, hi)
            for i in reversed(span) if reverse else span:
                yield keys[i], node.values[i]
            return
        if reverse:
            yield from self._range_walk(node.children[hi], low, high, reverse)
            for i in reversed(range(lo, hi)):
                yield keys[i], node.values[i]
                yield from self._range_walk(node.children[i], low, high, reverse)
        else:
            for i in range(lo, hi):
                yield from self._range_walk(node.children[i], low, high, reverse)
                yield keys[i], node.values[i]
            yield from self._range_walk(node.children[hi], low, high, reverse)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Planner statistics
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        """Number of distinct keys currently in the tree."""
        return self._distinct

    def estimate_range_count(self, low: Any = None, high: Any = None) -> int:
        """Estimated number of entries with ``low <= key <= high``.

        Descends once per bound accumulating positional fractions, so the
        estimate costs O(height) — it never walks the range.  Accuracy is
        bounded by the fanout at each level; good enough to rank access
        paths, not to answer ``count()``.
        """
        if not self._size:
            return 0
        lo_frac = 0.0 if low is None else self._key_fraction(low)
        hi_frac = 1.0 if high is None else self._key_fraction(high)
        estimate = int((hi_frac - lo_frac) * self._size)
        if high is not None:
            estimate += self.count_key(high)
        return max(0, min(estimate, self._size))

    def _key_fraction(self, key: Any) -> float:
        """Approximate fraction of entries whose key is ``< key``."""
        node = self._root
        fraction = 0.0
        span = 1.0
        while True:
            n = len(node.keys)
            if n == 0:
                return fraction
            idx = _bisect(node.keys, key)
            if node.is_leaf:
                return fraction + span * (idx / n)
            fraction += span * (idx / (n + 1))
            span /= n + 1
            node = node.children[idx]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Add ``value`` under ``key``."""
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _Node()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, value)

    def _insert_nonfull(self, node: _Node, key: Any, value: Any) -> None:
        while True:
            node.entries = None
            idx = _bisect(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                if self._unique:
                    raise DuplicateKey(f"duplicate key {key!r} in unique index")
                node.values[idx].append(value)
                self._size += 1
                return
            if node.is_leaf:
                node.keys.insert(idx, key)
                node.values.insert(idx, [value])
                self._size += 1
                self._distinct += 1
                return
            child = node.children[idx]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, idx)
                if key == node.keys[idx]:
                    if self._unique:
                        raise DuplicateKey(
                            f"duplicate key {key!r} in unique index"
                        )
                    node.values[idx].append(value)
                    self._size += 1
                    return
                if key > node.keys[idx]:
                    idx += 1
                child = node.children[idx]
            node = child

    def _split_child(self, parent: _Node, idx: int) -> None:
        t = self._t
        child = parent.children[idx]
        parent.entries = None
        child.entries = None
        sibling = _Node()
        parent.keys.insert(idx, child.keys[t - 1])
        parent.values.insert(idx, child.values[t - 1])
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.children.insert(idx + 1, sibling)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: Any, value: Any = _MISSING) -> bool:
        """Remove ``value`` from ``key`` (or the whole key when omitted).

        Returns True if something was removed.  Deletion uses the classic
        rebalancing algorithm so the tree invariants hold afterwards.
        """
        removed = self._delete(self._root, key, value)
        if not self._root.keys and self._root.children:
            self._root = self._root.children[0]
        return removed

    def _delete(self, node: _Node, key: Any, value: Any) -> bool:
        node.entries = None
        t = self._t
        idx = _bisect(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            values = node.values[idx]
            if value is not _MISSING and (len(values) > 1 or value not in values):
                if value not in values:
                    return False
                values.remove(value)
                self._size -= 1
                return True
            # Remove the whole key slot.
            count = len(values) if value is _MISSING else 1
            if node.is_leaf:
                node.keys.pop(idx)
                node.values.pop(idx)
                self._size -= count
                self._distinct -= 1
                return True
            return self._delete_internal(node, idx, count)
        if node.is_leaf:
            return False
        child = node.children[idx]
        if len(child.keys) < t:
            self._fill(node, idx)
            return self._delete(node, key, value)
        return self._delete(child, key, value)

    def _delete_internal(self, node: _Node, idx: int, count: int) -> bool:
        t = self._t
        left, right = node.children[idx], node.children[idx + 1]
        if len(left.keys) >= t:
            pred_key, pred_values = self._max_entry(left)
            node.keys[idx], node.values[idx] = pred_key, pred_values
            self._size -= count
            removed = self._delete(left, pred_key, _MISSING)
            assert removed
            self._size += len(pred_values)
            return True
        if len(right.keys) >= t:
            succ_key, succ_values = self._min_entry(right)
            node.keys[idx], node.values[idx] = succ_key, succ_values
            self._size -= count
            removed = self._delete(right, succ_key, _MISSING)
            assert removed
            self._size += len(succ_values)
            return True
        key = node.keys[idx]
        self._merge(node, idx)
        return self._delete(node.children[idx], key, _MISSING)

    def _max_entry(self, node: _Node) -> tuple[Any, list[Any]]:
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1], list(node.values[-1])

    def _min_entry(self, node: _Node) -> tuple[Any, list[Any]]:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0], list(node.values[0])

    def _fill(self, node: _Node, idx: int) -> None:
        t = self._t
        if idx > 0 and len(node.children[idx - 1].keys) >= t:
            self._borrow_prev(node, idx)
        elif idx < len(node.children) - 1 and len(node.children[idx + 1].keys) >= t:
            self._borrow_next(node, idx)
        elif idx < len(node.children) - 1:
            self._merge(node, idx)
        else:
            self._merge(node, idx - 1)

    def _borrow_prev(self, node: _Node, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx - 1]
        node.entries = child.entries = sibling.entries = None
        child.keys.insert(0, node.keys[idx - 1])
        child.values.insert(0, node.values[idx - 1])
        node.keys[idx - 1] = sibling.keys.pop()
        node.values[idx - 1] = sibling.values.pop()
        if not sibling.is_leaf:
            child.children.insert(0, sibling.children.pop())

    def _borrow_next(self, node: _Node, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx + 1]
        node.entries = child.entries = sibling.entries = None
        child.keys.append(node.keys[idx])
        child.values.append(node.values[idx])
        node.keys[idx] = sibling.keys.pop(0)
        node.values[idx] = sibling.values.pop(0)
        if not sibling.is_leaf:
            child.children.append(sibling.children.pop(0))

    def _merge(self, node: _Node, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx + 1]
        node.entries = child.entries = None
        child.keys.append(node.keys.pop(idx))
        child.values.append(node.values.pop(idx))
        child.keys.extend(sibling.keys)
        child.values.extend(sibling.values)
        child.children.extend(sibling.children)
        node.children.pop(idx + 1)

    # ------------------------------------------------------------------
    # Invariant checking (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any B-tree invariant is violated."""
        self._check(self._root, None, None, is_root=True)
        keys = list(self.keys())
        assert keys == sorted(keys), "keys out of order"
        assert len(keys) == self._distinct, "distinct-key stat out of sync"
        self._check_entries(self._root)
        assert self._entries(self._root) == self._size, (
            "subtree entry counts out of sync with size"
        )

    def _check_entries(self, node: _Node) -> None:
        """Every *clean* cached subtree count must match a recount."""
        if node.entries is not None:
            actual = sum(map(len, node.values)) + sum(
                self._recount(child) for child in node.children
            )
            assert node.entries == actual, "stale cached subtree count"
        for child in node.children:
            self._check_entries(child)

    def _recount(self, node: _Node) -> int:
        return sum(map(len, node.values)) + sum(
            self._recount(child) for child in node.children
        )

    def _check(
        self, node: _Node, low: Any, high: Any, *, is_root: bool = False
    ) -> int:
        t = self._t
        if not is_root:
            assert len(node.keys) >= t - 1, "underfull node"
        assert len(node.keys) <= 2 * t - 1, "overfull node"
        for key in node.keys:
            if low is not None:
                assert key > low, "key below subtree bound"
            if high is not None:
                assert key < high, "key above subtree bound"
        if node.is_leaf:
            return 1
        assert len(node.children) == len(node.keys) + 1, "bad fanout"
        depths = set()
        bounds = [low, *node.keys, high]
        for i, child in enumerate(node.children):
            depths.add(self._check(child, bounds[i], bounds[i + 1]))
        assert len(depths) == 1, "leaves at different depths"
        return depths.pop() + 1


def _bisect(keys: list[Any], key: Any) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right(keys: list[Any], key: Any) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


#: Index structures the catalog knows how to build.
INDEX_KINDS = ("btree", "hash")


@dataclass(frozen=True, slots=True)
class IndexDefinition:
    """Catalog entry describing one secondary index.

    ``kind`` selects the structure: ``"btree"`` (ordered; equality, ranges
    and key-order streaming) or ``"hash"`` (extendible hashing; equality
    only, O(1) point probes).  Both kinds may coexist on the same
    attribute — the planner costs them against each other.
    """

    class_name: str
    attribute: str
    unique: bool = False
    kind: str = "btree"

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise QueryError(
                f"unknown index kind {self.kind!r}; expected one of "
                f"{INDEX_KINDS}"
            )

    @property
    def name(self) -> str:
        return f"{self.class_name}.{self.attribute}"

    @property
    def display(self) -> str:
        """Kind-qualified name for catalogs and tooling output."""
        return f"{self.kind}:{self.class_name}.{self.attribute}"


def _make_structure(definition: IndexDefinition) -> "BTree | ExtendibleHashIndex":
    if definition.kind == "hash":
        return ExtendibleHashIndex(unique=definition.unique)
    return BTree(unique=definition.unique)


@dataclass(slots=True)
class _IndexState:
    definition: IndexDefinition
    tree: "BTree | ExtendibleHashIndex"
    keyed: dict[Oid, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.definition.kind


class IndexManager:
    """Maintains secondary indexes (B-tree and hash) over object attributes."""

    def __init__(self, family_of: Callable[[str], set[str]]) -> None:
        # family_of(name) -> the class name plus its subclasses; indexes on
        # a class cover instances of its subclasses too.
        self._family_of = family_of
        self._indexes: dict[tuple[str, str, str], _IndexState] = {}
        self._by_class: dict[str, list[_IndexState]] = {}

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------
    def create(self, definition: IndexDefinition) -> None:
        key = (definition.class_name, definition.attribute, definition.kind)
        if key in self._indexes:
            raise QueryError(f"index {definition.display} already exists")
        state = _IndexState(definition, _make_structure(definition))
        self._indexes[key] = state
        self._by_class.clear()

    def drop(
        self, class_name: str, attribute: str, kind: str | None = None
    ) -> None:
        kinds = INDEX_KINDS if kind is None else (kind,)
        for k in kinds:
            self._indexes.pop((class_name, attribute, k), None)
        self._by_class.clear()

    def definitions(self) -> list[IndexDefinition]:
        return [s.definition for s in self._indexes.values()]

    def covers(self, class_name: str) -> bool:
        """True if any index applies to instances of ``class_name``."""
        return bool(self._indexes) and bool(self._states_for(class_name))

    def _states_for(self, class_name: str) -> list[_IndexState]:
        # Lazily cached: a class is covered by an index when it belongs to
        # the index class's family (itself or a transitive subclass).
        states = self._by_class.get(class_name)
        if states is None:
            states = [
                state
                for state in self._indexes.values()
                if class_name in self._family_of(state.definition.class_name)
            ]
            self._by_class[class_name] = states
        return states

    # ------------------------------------------------------------------
    # Maintenance hooks
    # ------------------------------------------------------------------
    def on_update(
        self, class_name: str, oid: Oid, attribute: str, new_value: Any
    ) -> None:
        for state in self._states_for(class_name):
            if state.definition.attribute != attribute:
                continue
            self._move(state, oid, new_value)

    def on_add(self, class_name: str, oid: Oid, attrs: dict[str, Any]) -> None:
        for state in self._states_for(class_name):
            attribute = state.definition.attribute
            if attribute in attrs:
                self._move(state, oid, attrs[attribute])

    def on_remove(self, class_name: str, oid: Oid) -> None:
        for state in self._states_for(class_name):
            old = state.keyed.pop(oid, _MISSING)
            if old is not _MISSING:
                state.tree.delete(old, oid)

    def reindex(self, class_name: str, oid: Oid, attrs: dict[str, Any]) -> None:
        """Drop and re-add all entries for ``oid`` (after txn rollback)."""
        self.on_remove(class_name, oid)
        self.on_add(class_name, oid, attrs)

    def _move(self, state: _IndexState, oid: Oid, new_value: Any) -> None:
        old = state.keyed.get(oid, _MISSING)
        if old is not _MISSING:
            if old == new_value:
                return
            state.tree.delete(old, oid)
        state.tree.insert(new_value, oid)
        state.keyed[oid] = new_value

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(
        self, class_name: str, attribute: str, kind: str | None = None
    ) -> "BTree | ExtendibleHashIndex | None":
        state = self._exact(class_name, attribute, kind)
        return state.tree if state else None

    def _exact(
        self, class_name: str, attribute: str, kind: str | None = None
    ) -> _IndexState | None:
        """Exact-class state; ``kind=None`` prefers btree, then hash."""
        kinds = INDEX_KINDS if kind is None else (kind,)
        for k in kinds:
            state = self._indexes.get((class_name, attribute, k))
            if state is not None:
                return state
        return None

    def covering(
        self, class_name: str, attribute: str, kind: str | None = None
    ) -> _IndexState | None:
        """The index state usable for ``attribute`` queries on ``class_name``.

        Unlike :meth:`lookup`, this also finds indexes defined on an
        *ancestor* class: an index on ``Animal.legs`` covers a query over
        the ``Dog`` extent, because index maintenance tracks the whole
        class family.  Exact matches win over inherited ones; ``kind``
        restricts the structure (``None`` prefers btree, then hash).
        """
        state = self._exact(class_name, attribute, kind)
        if state is not None:
            return state
        candidates = [
            state
            for state in self._states_for(class_name)
            if state.definition.attribute == attribute
            and (kind is None or state.kind == kind)
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda s: INDEX_KINDS.index(s.kind))
        return candidates[0]

    def covering_all(
        self, class_name: str, attribute: str
    ) -> list[_IndexState]:
        """Every index state usable for ``attribute`` on ``class_name``,
        one per kind at most (exact-class definitions shadow inherited
        ones).  The planner costs these against each other."""
        out: list[_IndexState] = []
        for kind in INDEX_KINDS:
            state = self._exact(class_name, attribute, kind)
            if state is None:
                for candidate in self._states_for(class_name):
                    if (
                        candidate.definition.attribute == attribute
                        and candidate.kind == kind
                    ):
                        state = candidate
                        break
            if state is not None:
                out.append(state)
        return out

    def find_eq(self, class_name: str, attribute: str, value: Any) -> list[Oid]:
        state = self._exact(class_name, attribute)
        if state is None:
            raise QueryError(f"no index on {class_name}.{attribute}")
        return list(state.tree.search(value))

    def find_range(
        self, class_name: str, attribute: str, low: Any = None, high: Any = None
    ) -> list[Oid]:
        state = self._exact(class_name, attribute, "btree")
        if state is None:
            raise QueryError(
                f"no btree index on {class_name}.{attribute} "
                "(hash indexes cannot serve ranges)"
            )
        tree = state.tree
        assert isinstance(tree, BTree)
        return [oid for _key, oid in tree.range(low, high)]

    def clear(self) -> None:
        for state in self._indexes.values():
            state.tree = _make_structure(state.definition)
            state.keyed.clear()
