"""In-memory B+-tree.

The **block-level index** on ``(bid, tid, Ts)`` (one tree per chain,
:mod:`repro.index.block_index`) inserts into it as blocks are appended.
Level 2 of the layered index is not a ``BPlusTree``: a per-block tree
that is bulk-loaded once and never changed is kept as its packed leaf
level, a :class:`~repro.index.sorted_run.SortedRun`, and so is the
Merkle B-tree (:mod:`repro.mht.mbtree`).  :meth:`BPlusTree.bulk_load`
builds the same tree that run stands for, with packed leaves.

Duplicate keys are supported: a key holds its one payload bare, or a
:class:`_Group` of two or more (DESIGN.md §9).
Leaves are chained for range scans.  The tree is append-friendly
(rightmost-leaf inserts of monotone keys keep leaves full) and supports
classic top-down search; deletion is deliberately absent because blocks
are immutable.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from ..common.errors import IndexError_


class _Group(tuple):
    """The payloads of a key that holds two or more."""

    __slots__ = ()


def _payloads(slot: Any) -> tuple[Any, ...]:
    """Every payload of a leaf slot, in insertion order."""
    return slot if type(slot) is _Group else (slot,)


class _Node:
    """Internal or leaf node."""

    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        # a leaf has no children and an internal node no payloads: the
        # unused one is the shared empty tuple, not a list per node
        self.children: Sequence[_Node] = () if is_leaf else []
        #: leaves only; parallel to keys: a payload or a _Group
        self.values: Sequence[Any] = [] if is_leaf else ()
        self.next_leaf: Optional[_Node] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} keys={self.keys!r}>"


class BPlusTree:
    """A B+-tree with order ``order`` (max children per internal node)."""

    __slots__ = ("_order", "_root", "_size", "_height")

    def __init__(self, order: int = 32) -> None:
        if order < 3:
            raise IndexError_("B+-tree order must be at least 3")
        self._order = order
        self._root: _Node = _Node(is_leaf=True)
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        """Number of distinct keys."""
        return self._size

    @property
    def order(self) -> int:
        return self._order

    @property
    def height(self) -> int:
        return self._height

    # -- construction -------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``value`` under ``key`` (duplicates accumulate)."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1

    def _insert(self, node: _Node, key: Any, value: Any) -> Optional[tuple[Any, _Node]]:
        if node.is_leaf:
            idx = _lower_bound(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = _Group(_payloads(node.values[idx]) + (value,))
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self._size += 1
            if len(node.keys) >= self._order:
                return self._split_leaf(node)
            return None
        idx = _upper_bound(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right)
        if len(node.children) > self._order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Node) -> tuple[Any, _Node]:
        mid = len(leaf.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    @classmethod
    def bulk_load(
        cls, pairs: Sequence[tuple[Any, Any]], order: int = 32
    ) -> "BPlusTree":
        """Build a tree from (key, value) pairs in one bottom-up pass.

        Input need not be sorted or unique; duplicates are grouped.  Leaves
        come out packed full, mirroring the paper's "a B+-tree is created
        for the block in a bulk loading way".
        """
        tree = cls(order=order)
        if not pairs:
            return tree
        grouped: dict[Any, list[Any]] = {}
        for key, value in pairs:
            grouped.setdefault(key, []).append(value)
        keys = sorted(grouped)
        tree._size = len(keys)
        # build packed leaves
        per_leaf = max(order - 1, 1)
        leaves: list[_Node] = []
        for start in range(0, len(keys), per_leaf):
            leaf = _Node(is_leaf=True)
            leaf.keys = keys[start : start + per_leaf]
            leaf.values = [
                values[0] if len(values) == 1 else _Group(values)
                for values in map(grouped.__getitem__, leaf.keys)
            ]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        # build internal levels bottom-up
        level: list[_Node] = leaves
        height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), order):
                group = level[start : start + order]
                parent = _Node(is_leaf=False)
                parent.children = group
                parent.keys = [_smallest_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    # -- queries -------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[_upper_bound(node.keys, key)]
        return node

    def search(self, key: Any) -> list[Any]:
        """All payloads stored under exactly ``key`` (empty if none)."""
        leaf = self._find_leaf(key)
        idx = _lower_bound(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(_payloads(leaf.values[idx]))
        return []

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, payload) for keys in [low, high], leaf-chain order.

        ``None`` bounds are open on that side.
        """
        if low is None:
            leaf: Optional[_Node] = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low)
            idx = _lower_bound(leaf.keys, low)
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if low is not None:
                    if key < low or (not include_low and key == low):
                        idx += 1
                        continue
                if high is not None:
                    if key > high or (not include_high and key == high):
                        return
                slot = leaf.values[idx]
                if type(slot) is _Group:
                    for payload in slot:
                        yield key, payload
                else:
                    yield key, slot
                idx += 1
            leaf = leaf.next_leaf
            idx = 0

    def floor(self, key: Any) -> Optional[tuple[Any, list[Any]]]:
        """Largest stored key <= ``key`` with its payloads, or ``None``."""
        leaf = self._find_leaf(key)
        idx = _upper_bound(leaf.keys, key) - 1
        if idx >= 0:
            return leaf.keys[idx], list(_payloads(leaf.values[idx]))
        # key smaller than everything in this leaf; scan from the start
        prev: Optional[tuple[Any, list[Any]]] = None
        for k, v in self.items():
            if k > key:
                break
            prev = (k, [v])  # not used on this path in practice
        if prev is None:
            return None
        return prev[0], self.search(prev[0])

    def keys(self) -> list[Any]:
        """The distinct keys, in order."""
        out: list[Any] = []
        leaf: Optional[_Node] = self._leftmost_leaf()
        while leaf is not None:
            out.extend(leaf.keys)
            leaf = leaf.next_leaf
        return out

    def min_key(self) -> Optional[Any]:
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def max_key(self) -> Optional[Any]:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, payload) pairs in key order."""
        leaf: Optional[_Node] = self._leftmost_leaf()
        while leaf is not None:
            for key, slot in zip(leaf.keys, leaf.values):
                for payload in _payloads(slot):
                    yield key, payload
            leaf = leaf.next_leaf

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if structural invariants are violated (test hook)."""
        count = self._check_node(self._root, None, None, is_root=True)
        if count != self._size:
            raise IndexError_(f"size mismatch: counted {count}, recorded {self._size}")

    def _check_node(self, node: _Node, low: Any, high: Any, is_root: bool) -> int:
        keys = node.keys
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise IndexError_(f"keys not strictly sorted: {keys!r}")
        for key in keys:
            if low is not None and key < low:
                raise IndexError_(f"key {key!r} below lower bound {low!r}")
            if high is not None and key >= high and node.is_leaf:
                raise IndexError_(f"key {key!r} at/above upper bound {high!r}")
        if node.is_leaf:
            if len(node.values) != len(keys):
                raise IndexError_("leaf keys/values length mismatch")
            if len(keys) >= self._order and not is_root:
                raise IndexError_("overfull leaf")
            return len(keys)
        if len(node.children) != len(keys) + 1:
            raise IndexError_("internal children/keys mismatch")
        total = 0
        bounds = [low] + list(keys) + [high]
        for child, (lo, hi) in zip(node.children, zip(bounds[:-1], bounds[1:])):
            total += self._check_node(child, lo, hi, is_root=False)
        return total


def _lower_bound(keys: list[Any], key: Any) -> int:
    """First index with keys[i] >= key."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _upper_bound(keys: list[Any], key: Any) -> int:
    """First index with keys[i] > key."""
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _smallest_key(node: _Node) -> Any:
    while not node.is_leaf:
        node = node.children[0]
    return node.keys[0]
