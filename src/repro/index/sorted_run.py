"""Packed sorted run: level 2 of the layered index.

The paper builds one B+-tree per block, bulk-loaded when the block is
chained and never changed afterwards.  A tree that is always full and
never updated needs no nodes: its leaf level in key order is the whole
structure.  A run keeps it as two parallel lists, each entry's key and
its payload (a transaction position in the block), and answers every
lookup with :mod:`bisect` bounds and a slice.

The plain layered index builds a run with a stable sort on the key, so
the payloads under one key stay in the order they were given (block
order).  The Merkle B-tree (:class:`~repro.mht.mbtree.MBTree`) is a run
in its own entry order with digest levels on top.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Iterator, Sequence


class SortedRun:
    """Entries sorted by key, kept as a key list and a payload list."""

    __slots__ = ("_keys", "_payloads")

    def __init__(self, keys: list[Any], payloads: list[Any]) -> None:
        self._keys = keys
        self._payloads = payloads

    @classmethod
    def bulk_load(cls, pairs: Sequence[tuple[Any, Any]]) -> "SortedRun":
        """Build from unsorted (key, payload) pairs; equal keys keep
        their payloads in input order."""
        entries = sorted(pairs, key=itemgetter(0))
        return cls([key for key, _ in entries],
                   [payload for _, payload in entries])

    def __len__(self) -> int:
        """Number of entries."""
        return len(self._keys)

    def _span(self, low: Any, high: Any, include_low: bool,
              include_high: bool) -> tuple[int, int]:
        """Half-open index bounds of the keys in the range; ``None``
        bounds are open on that side."""
        keys = self._keys
        if low is None:
            lo = 0
        else:
            lo = (bisect_left if include_low else bisect_right)(keys, low)
        if high is None:
            hi = len(keys)
        else:
            hi = (bisect_right if include_high else bisect_left)(keys, high)
        return lo, hi

    def search(self, key: Any) -> list[Any]:
        """All payloads stored under exactly ``key`` (empty if none)."""
        keys = self._keys
        return self._payloads[bisect_left(keys, key):bisect_right(keys, key)]

    def payloads(self, low: Any, high: Any) -> list[Any]:
        """The payloads of the keys in [low, high], in entry order."""
        lo, hi = self._span(low, high, True, True)
        return self._payloads[lo:hi]

    def slices(self, low: Any = None, high: Any = None) -> tuple[list[Any], list[Any]]:
        """The keys in [low, high] and their payloads, as two parallel
        lists in entry order."""
        lo, hi = self._span(low, high, True, True)
        return self._keys[lo:hi], self._payloads[lo:hi]

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True,
              include_high: bool = True) -> Iterator[tuple[Any, Any]]:
        """(key, payload) for the keys in [low, high], in entry order."""
        lo, hi = self._span(low, high, include_low, include_high)
        return zip(self._keys[lo:hi], self._payloads[lo:hi])

    def keys(self) -> list[Any]:
        """The distinct keys, in order."""
        return list(dict.fromkeys(self._keys))
