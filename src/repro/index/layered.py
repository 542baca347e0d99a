"""The layered index (section IV-B, Figure 4).

Level 1 describes, per block, where an attribute's values can be:

* **discrete** attribute - one bitmap per distinct value; bit i set when
  block i contains that value (used for ``SenID``, ``Tname``, string
  application columns);
* **continuous** attribute - one entry per block holding a bitmap over the
  buckets of an equal-depth histogram (a bucket's bit is set when the
  block contains a value inside that bucket's range).

Level 2 is, per block, the paper's bulk-loaded B+-tree on the attribute,
built when the block is chained and mapping values to transaction
positions inside the block.  A tree that never changes is kept as its
packed leaf level: a :class:`~repro.index.sorted_run.SortedRun`, searched
with ``bisect`` and answered with slices.  The Authenticated Layered
Index (ALI) swaps in Merkle B-trees via the ``tree_factory`` hook; they
are runs too, with digest levels on top.

Benefits reproduced from the paper: batch appends never rebalance an old
structure, empty queries are filtered at level 1, and the block-level index
composes with level 1 for time-window queries.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

from ..common.errors import IndexError_
from ..model.block import Block
from .bitmap import Bitmap
from .histogram import EqualDepthHistogram
from .sorted_run import SortedRun

RecordAt = Callable[[int], bytes]  # position in a block -> stored record
#: Builds a level-2 run from (key, position) pairs; receives the block's
#: records so authenticated factories can hash them into leaf digests.
TreeFactory = Callable[[Sequence[tuple[Any, Any]], RecordAt], SortedRun]
Extractor = Callable[..., Any]  # Transaction -> key value (or None to skip)


def _default_tree_factory(pairs: Sequence[tuple[Any, Any]],
                          record_at: RecordAt) -> SortedRun:
    """Plain level 2: the pairs stably sorted on the key, so a key's
    positions stay in block order."""
    return SortedRun.bulk_load(pairs)


class LayeredIndex:
    """Two-level index on one attribute of one table (or of all tables).

    Parameters
    ----------
    column:
        Attribute name this index covers (for diagnostics).
    extractor:
        Maps a transaction to its index key, or ``None`` to skip the
        transaction (wrong table, NULL value).
    continuous:
        Selects histogram level-1 entries (True) or per-value bitmaps.
    histogram:
        Required when ``continuous``; built by sampling history at index
        creation time (:meth:`IndexManager.create_layered_index` does it).
    tree_factory:
        Override to build authenticated (MB-tree) second levels.
    """

    def __init__(
        self,
        column: str,
        extractor: Extractor,
        continuous: bool,
        histogram: Optional[EqualDepthHistogram] = None,
        tree_factory: Optional[TreeFactory] = None,
    ) -> None:
        if continuous and histogram is None:
            raise IndexError_(
                f"layered index on continuous column {column!r} needs a histogram"
            )
        self.column = column
        self.continuous = continuous
        self.histogram = histogram
        self._extract = extractor
        self._tree_factory = tree_factory or _default_tree_factory
        # level 1, discrete: value -> block bitmap
        self._value_bitmaps: dict[Any, Bitmap] = {}
        # level 1, continuous: block id -> bucket bitmap (int), and the
        # same bits by bucket: bucket -> bitmap of the blocks holding it
        self._bucket_bits: dict[int, int] = {}
        self._bucket_blocks: dict[int, int] = {}
        # level 2: block id -> tree (only blocks with indexed values); its
        # keys are also the block's distinct values (join intersect test)
        self._trees: dict[int, SortedRun] = {}
        #: level 2 by block id, read-only: what the layered leaves walk
        self.trees: Mapping[int, SortedRun] = MappingProxyType(self._trees)
        self._num_blocks = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "continuous" if self.continuous else "discrete"
        return f"<LayeredIndex {self.column} ({kind}) blocks={self._num_blocks}>"

    @property
    def extractor(self) -> Extractor:
        """The key extractor (statistics refresh re-samples through it)."""
        return self._extract

    # -- maintenance -----------------------------------------------------------

    def add_block(self, block: Block,
                  names: Optional[Sequence[str]] = None) -> None:
        """Append-time update: :meth:`add_entries` keyed by the extractor.
        ``names``, one per transaction, are the store's shared strings for
        a ``senid`` / ``tname`` index's keys and are stored in their place
        (:meth:`~repro.storage.blockstore.BlockStore.record_names`)."""
        txs = block.transactions
        pairs: list[tuple[Any, int]] = []
        for position, tx in enumerate(txs):
            key = self._extract(tx)
            if key is not None:
                pairs.append((key if names is None else names[position], position))
        self.add_entries(block.height, pairs,
                         lambda position: txs[position].to_bytes())

    def add_entries(self, bid: int, pairs: list[tuple[Any, int]],
                    record_at: RecordAt) -> None:
        """Level-1 entry + bulk-loaded level-2 tree of block ``bid`` from
        its ``(key, position)`` pairs (NULL and skipped keys left out);
        ``record_at(position)`` is the stored record an ALI leaf hashes.
        The one build path, for append time and the manager's backfill."""
        if bid < self._num_blocks:
            raise IndexError_(
                f"layered index on {self.column!r} already covers block {bid}"
            )
        self._num_blocks = bid + 1
        if not pairs:
            return
        if self.continuous:
            self._add_buckets(bid, [key for key, _ in pairs])
        else:
            for value in {key for key, _ in pairs}:
                self._value_bitmaps.setdefault(value, Bitmap()).set(bid)
        self._trees[bid] = self._tree_factory(pairs, record_at)

    def refresh_histogram(self, histogram: EqualDepthHistogram) -> None:
        """Swap in a freshly sampled histogram and rebucket level 1.

        Bucket bounds move, so every block's bucket bitmap is recomputed
        - from the level-2 trees' sorted keys, no block-store I/O.  The
        trees and the discrete value bitmaps are untouched: only the
        histogram's view of the value distribution goes stale, never the
        per-block structures.
        """
        if not self.continuous:
            raise IndexError_(
                f"layered index on discrete column {self.column!r} has no "
                f"histogram to refresh"
            )
        self.histogram = histogram
        self._bucket_bits = {}
        self._bucket_blocks = {}
        for bid, tree in self._trees.items():
            self._add_buckets(bid, tree.keys())

    def _add_buckets(self, bid: int, keys: Sequence[Any]) -> None:
        """Block ``bid``'s continuous level-1 entry: the buckets its keys
        fall in, set in its bucket bitmap and the block set in theirs."""
        assert self.histogram is not None
        bucket_of = self.histogram.bucket_of
        bits = 0
        for key in keys:
            bits |= 1 << bucket_of(key)
        if not bits:
            return
        self._bucket_bits[bid] = bits
        block, by_bucket = 1 << bid, self._bucket_blocks
        while bits:
            lowest = bits & -bits
            bucket = lowest.bit_length() - 1
            by_bucket[bucket] = by_bucket.get(bucket, 0) | block
            bits ^= lowest

    # -- level-1 filtering -------------------------------------------------------

    def first_level_bitmap(self) -> Bitmap:
        """Blocks containing *any* indexed value (B' of Algorithms 2-3)."""
        if self.continuous:
            return Bitmap.from_indices(self._bucket_bits)
        return Bitmap.from_indices(self._trees)

    def candidate_blocks_eq(self, value: Any) -> Bitmap:
        """Blocks that can contain ``value``."""
        if self.continuous:
            return self.candidate_blocks_range(value, value)
        bitmap = self._value_bitmaps.get(value)
        return bitmap.copy() if bitmap is not None else Bitmap()

    def candidate_blocks_range(self, low: Any, high: Any) -> Bitmap:
        """Blocks whose level-1 entry intersects ``[low, high]``.

        For continuous attributes this is the paper's "bitwise AND on the
        subset of each entry and a range defined by the query predicate".
        """
        if self.continuous:
            assert self.histogram is not None
            blocks, by_bucket = 0, self._bucket_blocks
            for bucket in self.histogram.buckets_overlapping(low, high):
                blocks |= by_bucket.get(bucket, 0)
            return Bitmap(blocks)
        result = Bitmap()
        for value, bitmap in self._value_bitmaps.items():
            if (low is None or value >= low) and (high is None or value <= high):
                result = result | bitmap
        return result

    # -- level-2 access ------------------------------------------------------------

    def has_tree(self, bid: int) -> bool:
        return bid in self._trees

    def tree(self, bid: int) -> SortedRun:
        if bid not in self._trees:
            raise IndexError_(
                f"layered index on {self.column!r} has no entries for block {bid}"
            )
        return self._trees[bid]

    def search_block(self, bid: int, value: Any) -> list[int]:
        """Positions (within block ``bid``) of tuples with this value."""
        tree = self._trees.get(bid)
        return [] if tree is None else tree.search(value)

    def range_block(
        self, bid: int, low: Any = None, high: Any = None
    ) -> tuple[list[Any], list[int]]:
        """The values in [low, high] within block ``bid``, sorted, and
        their positions: two parallel lists."""
        tree = self._trees.get(bid)
        return ([], []) if tree is None else tree.slices(low, high)

    # -- join support ------------------------------------------------------------------

    def block_value_bounds(self, bid: int) -> Optional[tuple[Any, Any]]:
        """(min-possible, max-possible) attribute bounds of block ``bid``.

        Continuous: union of the bucket ranges present (``None`` ends are
        unbounded).  Discrete: exact min/max of the distinct values.
        Returns ``None`` when the block has no indexed values.
        """
        if self.continuous:
            bits = self._bucket_bits.get(bid)
            if not bits:
                return None
            assert self.histogram is not None
            buckets = [i for i in range(self.histogram.num_buckets) if bits >> i & 1]
            low = self.histogram.bucket_range(buckets[0])[0]
            high = self.histogram.bucket_range(buckets[-1])[1]
            return (low, high)
        tree = self._trees.get(bid)
        if tree is None:
            return None
        values = tree.keys()
        return (values[0], values[-1])

    def block_bucket_ranges(self, bid: int) -> list[tuple[Any, Any]]:
        """Ranges (l, u) of the buckets present in block ``bid``.

        This is the e_{r_i} of Algorithm 2's ``intersect`` test.  Discrete
        indexes degenerate to one point range per distinct value.
        """
        if self.continuous:
            bits = self._bucket_bits.get(bid)
            if not bits:
                return []
            assert self.histogram is not None
            return [
                self.histogram.bucket_range(i)
                for i in range(self.histogram.num_buckets)
                if bits >> i & 1
            ]
        tree = self._trees.get(bid)
        return [] if tree is None else [(v, v) for v in tree.keys()]

    def block_values(self, bid: int) -> set[Any]:
        """Distinct values in block ``bid`` (discrete indexes only)."""
        if self.continuous:
            raise IndexError_("block_values is only defined for discrete indexes")
        tree = self._trees.get(bid)
        return set() if tree is None else set(tree.keys())


def ranges_intersect(
    left: Sequence[tuple[Any, Any]], right: Sequence[tuple[Any, Any]]
) -> bool:
    """Algorithm 2's ``intersect(b_r, b_s)``.

    True iff some bucket k of the left block and m of the right block
    overlap: NOT (k.u < m.l OR k.l > m.u), with ``None`` as +/- infinity.
    """

    def overlaps(a: tuple[Any, Any], b: tuple[Any, Any]) -> bool:
        a_lo, a_hi = a
        b_lo, b_hi = b
        if a_hi is not None and b_lo is not None and a_hi < b_lo:
            return False
        if a_lo is not None and b_hi is not None and a_lo > b_hi:
            return False
        return True

    return any(overlaps(k, m) for k in left for m in right)
