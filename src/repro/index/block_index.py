"""Block-level B+-tree index on ``(bid, tid, Ts)``.

Operation (i) of section IV-B: locate a block given a block id, a
transaction id, or a timestamp.  Because blocks are appended in order, for
any two blocks b_i earlier than b_j we have bid, first-tid and Ts all
smaller - so one tree keyed by bid with (first_tid, Ts, location) payloads
answers all three lookups via floor searches, and its leaves stay full
(keys arrive strictly increasing).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from typing import Optional

from ..common.errors import IndexError_
from ..model.block import Block
from ..storage.segment import BlockLocation
from .bitmap import Bitmap
from .bptree import BPlusTree


@dataclasses.dataclass(frozen=True)
class BlockEntry:
    """Payload per block: tid range, timestamps and physical location.

    ``min_ts``/``max_ts`` bound the *transaction* send timestamps inside
    the block, which is what query time windows range over; ``timestamp``
    is the block's packaging time.
    """

    bid: int
    first_tid: int
    last_tid: int
    timestamp: int
    min_ts: int
    max_ts: int
    location: BlockLocation


class BlockIndex:
    """The chain-wide block locator tree."""

    def __init__(self, order: int = 32) -> None:
        # three trees share BlockEntry payloads; each is append-only with
        # monotone keys so leaves stay full (paper: "leaf nodes are kept full")
        self._by_bid: BPlusTree = BPlusTree(order)
        self._by_tid: BPlusTree = BPlusTree(order)
        self._by_ts: BPlusTree = BPlusTree(order)
        self._entries: list[BlockEntry] = []
        self._last: Optional[BlockEntry] = None
        # window_bitmap's bounds on the blocks a window can touch: the
        # running maximum of max_ts per entry, and the suffix minimum of
        # min_ts as a stack of (entry index, min_ts) with both increasing,
        # one pair per entry whose min_ts is below every later one's
        self._max_ts_prefix: list[int] = []
        self._min_ts_at: list[int] = []
        self._min_ts_suffix: list[int] = []

    def __len__(self) -> int:
        return len(self._by_bid)

    def add_block(self, block: Block, location: BlockLocation) -> None:
        """Register a freshly appended block."""
        if not block.transactions:
            entry = BlockEntry(
                bid=block.height,
                first_tid=-1,
                last_tid=-1,
                timestamp=block.timestamp,
                min_ts=block.timestamp,
                max_ts=block.timestamp,
                location=location,
            )
        else:
            tx_ts = [tx.ts for tx in block.transactions]
            entry = BlockEntry(
                bid=block.height,
                first_tid=block.first_tid,
                last_tid=block.last_tid,
                timestamp=block.timestamp,
                min_ts=min(tx_ts),
                max_ts=max(tx_ts),
                location=location,
            )
        if self._last is not None:
            if entry.bid <= self._last.bid:
                raise IndexError_(
                    f"block ids must be increasing: {entry.bid} after {self._last.bid}"
                )
            if entry.timestamp < self._last.timestamp:
                raise IndexError_(
                    f"block timestamps must be non-decreasing: "
                    f"{entry.timestamp} after {self._last.timestamp}"
                )
        self._by_bid.insert(entry.bid, entry)
        if entry.first_tid >= 0:
            self._by_tid.insert(entry.first_tid, entry)
        # timestamps may repeat across blocks; B+-tree handles duplicates
        self._by_ts.insert((entry.timestamp, entry.bid), entry)
        prefix = self._max_ts_prefix
        prefix.append(max(prefix[-1], entry.max_ts) if prefix else entry.max_ts)
        at, suffix = self._min_ts_at, self._min_ts_suffix
        while suffix and suffix[-1] >= entry.min_ts:
            at.pop()
            suffix.pop()
        at.append(len(self._entries))
        suffix.append(entry.min_ts)
        self._entries.append(entry)
        self._last = entry

    # -- the three lookups of operation (i) -----------------------------------

    def by_bid(self, bid: int) -> Optional[BlockEntry]:
        """Block with exactly this block id."""
        hits = self._by_bid.search(bid)
        return hits[0] if hits else None

    def by_tid(self, tid: int) -> Optional[BlockEntry]:
        """Block containing the transaction with global id ``tid``."""
        found = self._by_tid.floor(tid)
        if found is None:
            return None
        entry: BlockEntry = found[1][0]
        if entry.last_tid >= 0 and tid > entry.last_tid:
            return None
        return entry

    def by_timestamp(self, ts: int) -> Optional[BlockEntry]:
        """Latest block with block timestamp <= ``ts``."""
        found = self._by_ts.floor((ts, float("inf")))
        if found is None:
            return None
        return found[1][0]

    # -- time windows (feeds Algorithms 1-3) ----------------------------------

    def window_bitmap(self, start_ts: Optional[int], end_ts: Optional[int]) -> Bitmap:
        """Bitmap of blocks that can hold transactions with Ts in [s, e].

        A block qualifies when its [min_ts, max_ts] transaction-timestamp
        range overlaps the window; ``None`` bounds are open.  This is the
        ``BI(c, e)`` step of Algorithms 1-3.  Only the entries between
        the first whose running ``max_ts`` reaches ``s`` and the last whose
        suffix-minimum ``min_ts`` is at most ``e`` are tested: every entry
        outside lies wholly before or after the window.
        """
        lo = 0 if start_ts is None else bisect_left(self._max_ts_prefix, start_ts)
        hi = len(self._entries)
        if end_ts is not None:
            # the last stack pair with min_ts <= e: every entry after its
            # index has a later min_ts above e
            k = bisect_right(self._min_ts_suffix, end_ts)
            hi = self._min_ts_at[k - 1] + 1 if k else 0
        bits = 0
        for entry in self._entries[lo:hi]:
            if ((start_ts is None or entry.max_ts >= start_ts)
                    and (end_ts is None or entry.min_ts <= end_ts)):
                bits |= 1 << entry.bid
        return Bitmap(bits)

    def all_blocks_bitmap(self) -> Bitmap:
        """Bitmap selecting every block currently indexed."""
        return Bitmap.range(0, len(self._by_bid))
