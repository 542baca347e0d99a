"""Byte-budgeted LRU cache.

Backs both cache policies compared in Fig 22: *block cache* (whole blocks
keyed by block id) and *transaction cache* (individual tuples keyed by
(block id, offset)).  Eviction is strictly least-recently-used and bounded
by a byte budget rather than an entry count, matching the paper's "cache
size 2 GB" setup.  The block store sizes each entry by the stored length
of the bytes it was decoded from, passed to :meth:`LRUCache.put`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """LRU cache bounded by the sum of entry sizes in bytes."""

    def __init__(
        self,
        capacity_bytes: int,
        size_of: Callable[[V], int] = lambda value: 1,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes cannot be negative")
        self._capacity = capacity_bytes
        self._size_of = size_of
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._sizes: dict[K, int] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: K) -> Optional[V]:
        """Return the cached value and mark it most recently used."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def peek(self, key: K) -> Optional[V]:
        """Read without updating recency or hit statistics."""
        return self._entries.get(key)

    def put(self, key: K, value: V, size: Optional[int] = None) -> None:
        """Insert/replace a value; evicts LRU entries to fit the budget.

        ``size`` is the entry's size when the caller already knows it (the
        block store passes the stored length of what it just decoded);
        ``None`` asks ``size_of``.  A value larger than the whole cache is
        simply not cached.
        """
        if size is None:
            size = self._size_of(value)
        if size > self._capacity:
            self.pop(key)
            return
        if key in self._entries:
            self._used -= self._sizes[key]
            del self._entries[key]
            del self._sizes[key]
        while self._used + size > self._capacity and self._entries:
            old_key, _ = self._entries.popitem(last=False)
            self._used -= self._sizes.pop(old_key)
            self.evictions += 1
        self._entries[key] = value
        self._sizes[key] = size
        self._used += size

    def pop(self, key: K) -> Optional[V]:
        """Remove and return a value, or ``None`` if absent."""
        if key not in self._entries:
            return None
        value = self._entries.pop(key)
        self._used -= self._sizes.pop(key)
        return value

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self._used = 0

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
