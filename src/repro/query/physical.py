"""Volcano-style streaming physical operators for the read path.

Every read statement compiles to a tree of :class:`PhysicalOperator`
nodes; execution pulls rows through generator pipelines, so upstream I/O
stops the moment a downstream operator (``Limit``, a consumed stream)
stops pulling.  Each operator counts its own rows out as it yields them
and keeps its seeks, page transfers and modelled milliseconds, which
``EXPLAIN ANALYZE`` renders (with wall-clock, timed for it alone).  Only
leaf operators read: each charges its own tracker through its
:class:`~repro.storage.scan.StoreScanner`, and the query's cost is the sum
of those trackers (:meth:`repro.query.plan.PhysicalPlan.cost`).

Element types flowing between operators:

* access-path leaves and trace leaves yield :class:`Transaction`;
* join operators yield ``(left, right)`` pairs;
* row builders (:class:`Project`, :class:`JoinRows`, :class:`TraceRows`)
  and everything above them yield ``Row = (tx | None, values
  tuple)`` - ``tx`` is the VO-relevant transaction behind the row, and
  is ``None`` once an operator (sort, distinct, aggregate, pruned join
  projection) loses the row/transaction alignment.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from typing import Any, Callable, Collection, Iterator, Optional, Sequence

from ..common.errors import QueryError
from ..index.bitmap import Bitmap
from ..index.layered import LayeredIndex, ranges_intersect
from ..model.schema import TableSchema
from ..model.transaction import SCHEMA_TNAME, Transaction
from ..offchain.adapter import OffChainDatabase
from ..sqlparser.nodes import ColumnRef, Select, TimeWindow
from ..storage.blockstore import BlockStore
from ..storage.costmodel import CostModel
from .aggregates import aggregate_rows
from .operators import RangeConstraint, project

Row = tuple[Optional[Transaction], tuple[Any, ...]]


def in_window(tx: Transaction, window: Optional[TimeWindow]) -> bool:
    if window is None:
        return True
    if window.start is not None and tx.ts < window.start:
        return False
    if window.end is not None and tx.ts > window.end:
        return False
    return True


@dataclasses.dataclass
class OperatorStats:
    """Per-operator execution counters (EXPLAIN ANALYZE)."""

    rows_out: int = 0
    #: inclusive wall-clock (children are pulled inside this operator)
    wall_ms: float = 0.0
    #: a leaf's own I/O ledger; None on the operators that never read
    tracker: Optional[CostModel] = None
    #: the children's stats: rows in are exactly the rows they yielded
    inputs: tuple["OperatorStats", ...] = ()

    @property
    def rows_in(self) -> int:
        return sum(stats.rows_out for stats in self.inputs)

    @property
    def seeks(self) -> int:
        return self.tracker.seeks if self.tracker else 0

    @property
    def page_transfers(self) -> int:
        return self.tracker.page_transfers if self.tracker else 0

    @property
    def modelled_ms(self) -> float:
        return self.tracker.elapsed_ms() if self.tracker else 0.0


class PhysicalOperator:
    """One node of the physical plan: a restartless row generator."""

    name = "Operator"

    def __init__(self, children: Sequence["PhysicalOperator"] = ()) -> None:
        self.children = tuple(children)
        self.stats = OperatorStats(inputs=tuple(c.stats for c in self.children))
        self.est_rows: Optional[int] = None
        self.est_cost_ms: Optional[float] = None
        self.timed = False

    # -- contract ----------------------------------------------------------

    def describe(self) -> str:
        """Short argument summary shown in the plan tree."""
        return ""

    def _rows(self) -> Iterator[Any]:
        """The operator's rows; it adds each to ``stats.rows_out`` as it
        yields it."""
        raise NotImplementedError

    def execute(self) -> Iterator[Any]:
        """The operator's rows (each pull timed into ``stats.wall_ms``
        once EXPLAIN ANALYZE has set ``timed``)."""
        return self._timed_rows() if self.timed else self._rows()

    def _timed_rows(self) -> Iterator[Any]:
        # wall_ms is observability-only (EXPLAIN ANALYZE); it never feeds
        # back into simulated time, event order, or any replayed state
        stats, iterator = self.stats, self._rows()
        while True:
            t0 = time.perf_counter()  # sebdb: allow[determinism] stats only
            try:
                item = next(iterator)
            except StopIteration:
                stats.wall_ms += (time.perf_counter() - t0) * 1000.0  # sebdb: allow[determinism] stats only
                return
            stats.wall_ms += (time.perf_counter() - t0) * 1000.0  # sebdb: allow[determinism] stats only
            yield item

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "PhysicalOperator"]]:
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _LeafOperator(PhysicalOperator):
    """An operator that performs I/O through the scan interface."""

    def __init__(self, store: BlockStore) -> None:
        super().__init__()
        self.stats.tracker = store.cost.tracker()
        self.scanner = store.scanner(self.stats.tracker)


# -- access-path leaves (yield Transaction) --------------------------------


class _BlockScan(_LeafOperator):
    """Read candidate blocks whole, emit one table's in-window tuples."""

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        schema: TableSchema,
        window: Optional[TimeWindow],
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._schema = schema
        self._window = window

    def describe(self) -> str:
        return f"{self._schema.name}, blocks={len(self._candidate)}"

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        tnames = (self._schema.name,)
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, tnames):
                if tx.tname != self._schema.name:
                    continue
                if not in_window(tx, self._window):
                    continue
                stats.rows_out += 1
                yield tx


class SeqScan(_BlockScan):
    """Eq. (1): every block in the window is read sequentially."""

    name = "SeqScan"


class BitmapScan(_BlockScan):
    """Eq. (2): only the k blocks holding the table are read."""

    name = "BitmapScan"


class LayeredLookup(_LeafOperator):
    """Eq. (3): level-1 bitmap -> level-2 trees -> per-tuple random I/O."""

    name = "LayeredLookup"

    def __init__(
        self,
        store: BlockStore,
        index: LayeredIndex,
        constraint: RangeConstraint,
        candidate: Bitmap,
        schema: TableSchema,
        window: Optional[TimeWindow],
    ) -> None:
        super().__init__(store)
        self._index = index
        self._constraint = constraint
        self._candidate = candidate
        self._schema = schema
        self._window = window

    def describe(self) -> str:
        c = self._constraint
        return (f"{self._schema.name}.{self._index.column} "
                f"[{c.low!r}, {c.high!r}], blocks={len(self._candidate)}")

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        low, high = self._constraint.low, self._constraint.high
        tree_of = self._index.trees.get
        read, tracker = self.scanner.positional_read()
        for bid in self._candidate:
            tree = tree_of(bid)
            if tree is None:
                continue
            positions = tree.payloads(low, high)
            if not positions:
                continue
            for tx in read(bid, positions, tracker):
                if tx.tname != self._schema.name:
                    continue
                if not in_window(tx, self._window):
                    continue
                stats.rows_out += 1
                yield tx


# -- trace leaves (Algorithm 1; yield Transaction) --------------------------


class _TraceBlockScan(_LeafOperator):
    """Whole-block trace: scan or table-level-bitmap pruned."""

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        operator: Optional[str],
        operation: Optional[str],
        window: Optional[TimeWindow],
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._operator = operator
        self._operation = operation
        self._window = window

    def describe(self) -> str:
        parts = [f"blocks={len(self._candidate)}"]
        if self._operator is not None:
            parts.append(f"operator={self._operator!r}")
        if self._operation is not None:
            parts.append(f"operation={self._operation!r}")
        return ", ".join(parts)

    def _matches(self, tx: Transaction) -> bool:
        if tx.tname == SCHEMA_TNAME:
            return False
        if self._operator is not None and tx.senid != self._operator:
            return False
        if self._operation is not None and tx.tname != self._operation:
            return False
        return in_window(tx, self._window)

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        tnames = None if self._operation is None else (self._operation,)
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, tnames, self._operator):
                if self._matches(tx):
                    stats.rows_out += 1
                    yield tx


class TraceScan(_TraceBlockScan):
    name = "TraceScan"


class TraceBitmap(_TraceBlockScan):
    name = "TraceBitmap"


class TraceLayered(_LeafOperator):
    """Algorithm 1: AND first-level bitmaps, intersect level-2 postings."""

    name = "TraceLayered"

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        sender_index: Optional[LayeredIndex],
        tname_index: Optional[LayeredIndex],
        operator: Optional[str],
        operation: Optional[str],
        window: Optional[TimeWindow],
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._sender_index = sender_index
        self._tname_index = tname_index
        self._operator = operator
        self._operation = operation
        self._window = window

    def describe(self) -> str:
        dims = []
        if self._sender_index is not None:
            dims.append(f"senid={self._operator!r}")
        if self._tname_index is not None:
            dims.append(f"tname={self._operation!r}")
        return f"blocks={len(self._candidate)}, " + ", ".join(dims)

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        read, tracker = self.scanner.positional_read()
        sender_tree = (None if self._sender_index is None
                       else self._sender_index.trees.get)
        tname_tree = (None if self._tname_index is None
                      else self._tname_index.trees.get)
        for bid in self._candidate:
            positions: Optional[Collection[int]] = None
            if sender_tree is not None:
                tree = sender_tree(bid)
                positions = [] if tree is None else tree.search(self._operator)
            if tname_tree is not None:
                tree = tname_tree(bid)
                tname_positions = [] if tree is None else tree.search(self._operation)
                positions = (tname_positions if positions is None
                             else set(positions).intersection(tname_positions))
            assert positions is not None
            if not positions:
                continue
            for tx in read(bid, sorted(positions), tracker):
                if tx.tname == SCHEMA_TNAME:
                    continue
                if self._operator is not None and tx.senid != self._operator:
                    continue
                if self._operation is not None and tx.tname != self._operation:
                    continue
                if in_window(tx, self._window):
                    stats.rows_out += 1
                    yield tx


# -- GET BLOCK leaf ---------------------------------------------------------


class BlockLookup(_LeafOperator):
    """Read one block located through the block-level B+-tree."""

    name = "BlockLookup"

    def __init__(
        self,
        store: BlockStore,
        height: int,
        label: str,
    ) -> None:
        super().__init__(store)
        self._height = height
        self._label = label
        self.block = None  # filled at execution

    def describe(self) -> str:
        return self._label

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        self.block = self.scanner.read_block(self._height)
        for tx in self.block.transactions:
            stats.rows_out += 1
            yield tx


# -- streaming relational operators ----------------------------------------


class Filter(PhysicalOperator):
    """Keep elements satisfying a residual predicate."""

    name = "Filter"

    def __init__(
        self,
        child: PhysicalOperator,
        accept: Callable[[Any], bool],
        label: str = "",
    ) -> None:
        super().__init__((child,))
        self._accept = accept
        self._label = label

    def describe(self) -> str:
        return self._label

    def _rows(self) -> Iterator[Any]:
        stats = self.stats
        for item in self.children[0].execute():
            if self._accept(item):
                stats.rows_out += 1
                yield item


class Project(PhysicalOperator):
    """Transaction -> Row; keeps the transaction behind each row."""

    name = "Project"

    def __init__(
        self,
        child: PhysicalOperator,
        schema: TableSchema,
        projection: Sequence[ColumnRef],
    ) -> None:
        super().__init__((child,))
        self._schema = schema
        self._projection = tuple(projection)

    def describe(self) -> str:
        if not self._projection:
            return "*"
        return ", ".join(str(ref) for ref in self._projection)

    def _rows(self) -> Iterator[Row]:
        stats, schema, projection = self.stats, self._schema, self._projection
        for tx in self.children[0].execute():
            stats.rows_out += 1
            yield tx, project(tx, schema, projection)


class TraceRows(PhysicalOperator):
    """Transaction -> Row over the system columns (TRACE / GET BLOCK)."""

    name = "Output"
    COLUMNS = ("tid", "ts", "senid", "tname", "values")

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__((child,))

    def describe(self) -> str:
        return ", ".join(self.COLUMNS)

    def _rows(self) -> Iterator[Row]:
        stats = self.stats
        for tx in self.children[0].execute():
            stats.rows_out += 1
            yield tx, (tx.tid, tx.ts, tx.senid, tx.tname, tx.values)


class Distinct(PhysicalOperator):
    """Streaming first-occurrence dedup on the value tuples."""

    name = "Distinct"

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__((child,))

    def _rows(self) -> Iterator[Row]:
        seen: set = set()
        for _tx, values in self.children[0].execute():
            if values in seen:
                continue
            seen.add(values)
            # dedup loses the row/transaction alignment
            self.stats.rows_out += 1
            yield None, values


class Sort(PhysicalOperator):
    """Blocking sort on one output column (NULLs last)."""

    name = "Sort"

    def __init__(self, child: PhysicalOperator, key_index: int,
                 column: str, descending: bool) -> None:
        super().__init__((child,))
        self._key_index = key_index
        self._column = column
        self._descending = descending

    def describe(self) -> str:
        return f"{self._column} {'DESC' if self._descending else 'ASC'}"

    def _rows(self) -> Iterator[Row]:
        index = self._key_index
        rows = [values for _tx, values in self.children[0].execute()]
        rows.sort(
            key=lambda row: (row[index] is None, row[index]),
            reverse=self._descending,
        )
        for values in rows:
            self.stats.rows_out += 1
            yield None, values


class Limit(PhysicalOperator):
    """Stop pulling after n rows - the LIMIT pushdown is the laziness of
    everything below it (a blocking Sort/Aggregate in between absorbs it,
    which is exactly when pushdown would be illegal)."""

    name = "Limit"

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        super().__init__((child,))
        self._limit = limit

    def describe(self) -> str:
        return str(self._limit)

    def _rows(self) -> Iterator[Row]:
        if self._limit <= 0:
            return
        stats = self.stats
        for count, item in enumerate(self.children[0].execute(), start=1):
            stats.rows_out += 1
            yield item
            if count >= self._limit:
                return


class Aggregate(PhysicalOperator):
    """Blocking aggregation/grouping over the input transactions."""

    name = "Aggregate"

    def __init__(self, child: PhysicalOperator, stmt: Select,
                 schema: TableSchema) -> None:
        super().__init__((child,))
        self._stmt = stmt
        self._schema = schema

    def describe(self) -> str:
        items = ", ".join(
            item.label if hasattr(item, "label") else str(item)
            for item in self._stmt.projection
        )
        if self._stmt.group_by is not None:
            items += f" GROUP BY {self._stmt.group_by}"
        return items

    def _rows(self) -> Iterator[Row]:
        txs = list(self.children[0].execute())
        _columns, rows = aggregate_rows(self._stmt, self._schema, txs)
        for values in rows:
            self.stats.rows_out += 1
            yield None, values


class _Reversed:
    """Inverts comparisons so a min-heap merges in descending order."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


_EXHAUSTED = object()


class ShardMerge(PhysicalOperator):
    """Merge the per-shard subplans of a fanned-out statement.

    Two modes, both streaming:

    * **concat** (``key_index is None``): pull each shard's subtree to
      exhaustion in shard order - the lazy union for unordered scans,
      TRACE output, and aggregate inputs;
    * **ordered** (``key_index`` set): incremental ``heapq`` k-way merge
      over the shards' individually sorted Row streams, pulling exactly
      one row per shard ahead of the output.  A downstream ``Limit k``
      therefore costs each shard at most ``k + 1`` rows - the ordered
      LIMIT laziness of the single-chain plan survives the fan-out.

    NULL placement matches :class:`Sort`: NULLs last ascending, first
    descending.  Ties break on shard position, so the merge is a
    deterministic function of the per-shard streams.
    """

    name = "ShardMerge"

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        shard_ids: Sequence[int],
        key_index: Optional[int] = None,
        column: str = "",
        descending: bool = False,
    ) -> None:
        require(len(children) == len(shard_ids),
                "ShardMerge needs one subplan per shard")
        require(len(children) > 0, "ShardMerge needs at least one shard")
        super().__init__(children)
        self._shard_ids = tuple(shard_ids)
        self._key_index = key_index
        self._column = column
        self._descending = descending

    def describe(self) -> str:
        shards = ",".join(str(s) for s in self._shard_ids)
        if self._key_index is None:
            return f"shards=[{shards}]"
        order = "DESC" if self._descending else "ASC"
        return f"shards=[{shards}], ordered on {self._column} {order}"

    def _key(self, item: Row) -> tuple:
        value = item[1][self._key_index]
        if self._descending:
            if value is None:
                return (0, 0)
            return (1, _Reversed(value))
        if value is None:
            return (1, 0)
        return (0, value)

    def _rows(self) -> Iterator[Any]:
        stats = self.stats
        if self._key_index is None:
            for child in self.children:
                for item in child.execute():
                    stats.rows_out += 1
                    yield item
            return
        iterators = [child.execute() for child in self.children]
        heap: list[tuple[tuple, int, Any]] = []
        for position, iterator in enumerate(iterators):
            item = next(iterator, _EXHAUSTED)
            if item is not _EXHAUSTED:
                heapq.heappush(heap, (self._key(item), position, item))
        while heap:
            _key, position, item = heapq.heappop(heap)
            stats.rows_out += 1
            yield item
            item = next(iterators[position], _EXHAUSTED)
            if item is not _EXHAUSTED:
                heapq.heappush(heap, (self._key(item), position, item))


# -- off-chain access -------------------------------------------------------


class OffchainScan(PhysicalOperator):
    """Fetch one off-chain table from the local RDBMS; yields Rows."""

    name = "OffchainScan"

    def __init__(self, offchain: OffChainDatabase, table: str) -> None:
        super().__init__()
        self._offchain = offchain
        self._table = table

    def describe(self) -> str:
        return self._table

    def _rows(self) -> Iterator[Row]:
        stats = self.stats
        for row in self._offchain.fetch_all(self._table):
            stats.rows_out += 1
            yield None, tuple(row)


class ProjectIndices(PhysicalOperator):
    """Prune Row values down to precomputed positions."""

    name = "Project"

    def __init__(self, child: PhysicalOperator, indices: Sequence[int],
                 columns: Sequence[str]) -> None:
        super().__init__((child,))
        self._indices = tuple(indices)
        self._columns = tuple(columns)

    def describe(self) -> str:
        return ", ".join(self._columns)

    def _rows(self) -> Iterator[Row]:
        stats, indices = self.stats, self._indices
        for _tx, values in self.children[0].execute():
            stats.rows_out += 1
            yield None, tuple(values[i] for i in indices)


# -- joins (yield pairs) ----------------------------------------------------


class HashJoin(_LeafOperator):
    """One-pass scan hash join over two on-chain tables (section V-B).

    Scans the candidate blocks once, partitioning both tables' tuples;
    builds a hash index on the right partitions and probes with the left.
    Single-side predicate pushdowns filter tuples at intake, before they
    enter the build table or the probe list.
    """

    name = "HashJoin"

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        left: TableSchema,
        right: TableSchema,
        left_column: str,
        right_column: str,
        window: Optional[TimeWindow],
        left_accept: Optional[Callable[[Transaction], bool]] = None,
        right_accept: Optional[Callable[[Transaction], bool]] = None,
        pushed: str = "",
        build_side: str = "right",
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._left = left
        self._right = right
        self._left_key = left.column_index(left_column)
        self._right_key = right.column_index(right_column)
        self._window = window
        self._left_accept = left_accept
        self._right_accept = right_accept
        self._pushed = pushed
        if build_side not in ("left", "right"):
            raise ValueError(f"unknown hash build side {build_side!r}")
        self._build_side = build_side

    def describe(self) -> str:
        base = (f"{self._left.name} x {self._right.name}, "
                f"blocks={len(self._candidate)}")
        if self._build_side != "right":
            base += f", build={self._build_side}"
        return base + (f", pushed: {self._pushed}" if self._pushed else "")

    def _rows(self) -> Iterator[tuple[Transaction, Transaction]]:
        # one table builds the hash index, the other probes; output stays
        # (left, right) oriented either way, so the build side is purely a
        # memory/CPU choice the optimizer costs (smaller side builds)
        build_on_left = self._build_side == "left"
        build_name = self._left.name if build_on_left else self._right.name
        probe_name = self._right.name if build_on_left else self._left.name
        build_key = self._left_key if build_on_left else self._right_key
        probe_key = self._right_key if build_on_left else self._left_key
        build_accept = self._left_accept if build_on_left else self._right_accept
        probe_accept = self._right_accept if build_on_left else self._left_accept
        build: dict[Any, list[Transaction]] = {}
        probes: list[Transaction] = []
        tnames = (self._left.name, self._right.name)
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, tnames):
                if not in_window(tx, self._window):
                    continue
                # a self-join names one table twice: every tuple is offered
                # to both sides, each under its own accept predicate
                if tx.tname == build_name and (
                        build_accept is None or build_accept(tx)):
                    key = tx.row()[build_key]
                    if key is not None:
                        build.setdefault(key, []).append(tx)
                if tx.tname == probe_name and (
                        probe_accept is None or probe_accept(tx)):
                    probes.append(tx)
        stats = self.stats
        for tx in probes:
            key = tx.row()[probe_key]
            if key is None:
                continue
            for match in build.get(key, ()):
                stats.rows_out += 1
                if build_on_left:
                    yield match, tx
                else:
                    yield tx, match


class MergeJoin(_LeafOperator):
    """Algorithm 2: intersect-filtered per-block-pair sort-merge join.

    Streams joining pairs block pair by block pair; only tuples that
    actually join are read from disk (the level-2 leaves are sorted on
    the join attribute)."""

    name = "MergeJoin"

    def __init__(
        self,
        store: BlockStore,
        left_index: LayeredIndex,
        right_index: LayeredIndex,
        left_blocks: Bitmap,
        right_blocks: Bitmap,
        left: TableSchema,
        right: TableSchema,
        window: Optional[TimeWindow],
        left_accept: Optional[Callable[[Transaction], bool]] = None,
        right_accept: Optional[Callable[[Transaction], bool]] = None,
        pushed: str = "",
    ) -> None:
        super().__init__(store)
        self._left_index = left_index
        self._right_index = right_index
        self._left_blocks = left_blocks
        self._right_blocks = right_blocks
        self._left = left
        self._right = right
        self._window = window
        self._left_accept = left_accept
        self._right_accept = right_accept
        self._pushed = pushed

    def describe(self) -> str:
        base = (f"{self._left.name} x {self._right.name}, "
                f"blocks={len(self._left_blocks)}x{len(self._right_blocks)}")
        return base + (f", pushed: {self._pushed}" if self._pushed else "")

    def _rows(self) -> Iterator[tuple[Transaction, Transaction]]:
        right_list = list(self._right_blocks)
        for lbid in self._left_blocks:
            left_ranges = self._left_index.block_bucket_ranges(lbid)
            if not left_ranges:
                continue
            for rbid in right_list:
                right_ranges = self._right_index.block_bucket_ranges(rbid)
                if not right_ranges or not ranges_intersect(left_ranges, right_ranges):
                    continue
                yield from self._merge_block_pair(lbid, rbid)

    def _merge_block_pair(
        self, lbid: int, rbid: int
    ) -> Iterator[tuple[Transaction, Transaction]]:
        left_keys, left_positions = self._left_index.range_block(lbid)
        right_keys, right_positions = self._right_index.range_block(rbid)
        read, tracker = self.scanner.positional_read()
        i = j = 0
        while i < len(left_keys) and j < len(right_keys):
            lkey = left_keys[i]
            rkey = right_keys[j]
            if lkey < rkey:
                i += 1
            elif lkey > rkey:
                j += 1
            else:
                i_end = i
                while i_end < len(left_keys) and left_keys[i_end] == lkey:
                    i_end += 1
                j_end = j
                while j_end < len(right_keys) and right_keys[j_end] == rkey:
                    j_end += 1
                left_txs = list(read(lbid, left_positions[i:i_end], tracker))
                right_txs = list(read(rbid, right_positions[j:j_end], tracker))
                for ltx in left_txs:
                    if ltx.tname != self._left.name or not in_window(ltx, self._window):
                        continue
                    if self._left_accept is not None and not self._left_accept(ltx):
                        continue
                    for rtx in right_txs:
                        if (rtx.tname != self._right.name
                                or not in_window(rtx, self._window)):
                            continue
                        if (self._right_accept is not None
                                and not self._right_accept(rtx)):
                            continue
                        self.stats.rows_out += 1
                        yield ltx, rtx
                i, j = i_end, j_end


class OnOffHashJoin(_LeafOperator):
    """On/off-chain hash join: build on the off-chain rows, probe the chain."""

    name = "OnOffHashJoin"

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        offchain: OffChainDatabase,
        onchain: TableSchema,
        on_column: str,
        off_table: str,
        off_key: int,
        window: Optional[TimeWindow],
        on_accept: Optional[Callable[[Transaction], bool]] = None,
        pushed: str = "",
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._offchain = offchain
        self._onchain = onchain
        self._on_key = onchain.column_index(on_column)
        self._off_table = off_table
        self._off_key = off_key
        self._window = window
        self._on_accept = on_accept
        self._pushed = pushed

    def describe(self) -> str:
        base = (f"{self._onchain.name} x offchain.{self._off_table}, "
                f"blocks={len(self._candidate)}")
        return base + (f", pushed: {self._pushed}" if self._pushed else "")

    def _rows(self) -> Iterator[tuple[Transaction, tuple]]:
        stats = self.stats
        build: dict[Any, list[tuple]] = {}
        for row in self._offchain.fetch_all(self._off_table):
            key = row[self._off_key]
            if key is not None:
                build.setdefault(key, []).append(row)
        tnames = (self._onchain.name,)
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, tnames):
                if tx.tname != self._onchain.name or not in_window(tx, self._window):
                    continue
                if self._on_accept is not None and not self._on_accept(tx):
                    continue
                key = tx.row()[self._on_key]
                if key is None:
                    continue
                for row in build.get(key, ()):
                    stats.rows_out += 1
                    yield tx, row


class OnOffMergeJoin(_LeafOperator):
    """Algorithm 3: level-1 pruning by the off-chain [min, max] (or the OR
    of value bitmaps for discrete attributes), then per-block sort-merge
    against the off-chain rows sorted on the join attribute."""

    name = "OnOffMergeJoin"

    def __init__(
        self,
        store: BlockStore,
        candidate: Bitmap,
        index: LayeredIndex,
        onchain: TableSchema,
        off_table: str,
        off_rows: Sequence[tuple],
        off_key: int,
        window: Optional[TimeWindow],
        on_accept: Optional[Callable[[Transaction], bool]] = None,
        pushed: str = "",
    ) -> None:
        super().__init__(store)
        self._candidate = candidate
        self._index = index
        self._onchain = onchain
        self._off_table = off_table
        self._off_rows = off_rows
        self._off_key = off_key
        self._window = window
        self._on_accept = on_accept
        self._pushed = pushed

    def describe(self) -> str:
        base = (f"{self._onchain.name} x offchain.{self._off_table}, "
                f"blocks={len(self._candidate)}")
        return base + (f", pushed: {self._pushed}" if self._pushed else "")

    def _rows(self) -> Iterator[tuple[Transaction, tuple]]:
        for bid in self._candidate:
            yield from self._merge_block(bid)

    def _merge_block(self, bid: int) -> Iterator[tuple[Transaction, tuple]]:
        keys, positions = self._index.range_block(bid)
        off_rows, off_key = self._off_rows, self._off_key
        read, tracker = self.scanner.positional_read()
        i = j = 0
        while i < len(keys) and j < len(off_rows):
            lkey = keys[i]
            rkey = off_rows[j][off_key]
            if rkey is None or lkey > rkey:
                j += 1
            elif lkey < rkey:
                i += 1
            else:
                i_end = i
                while i_end < len(keys) and keys[i_end] == lkey:
                    i_end += 1
                j_end = j
                while j_end < len(off_rows) and off_rows[j_end][off_key] == rkey:
                    j_end += 1
                txs = list(read(bid, positions[i:i_end], tracker))
                for tx in txs:
                    if (tx.tname != self._onchain.name
                            or not in_window(tx, self._window)):
                        continue
                    if self._on_accept is not None and not self._on_accept(tx):
                        continue
                    for row in off_rows[j:j_end]:
                        self.stats.rows_out += 1
                        yield tx, row
                i, j = i_end, j_end


class JoinRows(PhysicalOperator):
    """Pair -> Row: builds (optionally column-pruned) joined output rows.

    When the planner pushed the projection below the join, ``picks`` holds
    ``(side, column index)`` pairs and only those columns are ever
    materialized; the full concatenated row is never built.
    """

    name = "JoinRows"

    def __init__(
        self,
        child: PhysicalOperator,
        columns: Sequence[str],
        picks: Optional[Sequence[tuple[int, int]]] = None,
        right_is_offchain: bool = False,
    ) -> None:
        super().__init__((child,))
        self._columns = tuple(columns)
        self._picks = tuple(picks) if picks is not None else None
        self._right_is_offchain = right_is_offchain

    def describe(self) -> str:
        if self._picks is None:
            return "*"
        return ", ".join(self._columns)

    def _rows(self) -> Iterator[Row]:
        stats = self.stats
        for left, right in self.children[0].execute():
            stats.rows_out += 1
            lrow = left.row()
            rrow = tuple(right) if self._right_is_offchain else right.row()
            if self._picks is None:
                # unpruned join rows keep their left transaction aligned
                yield left, lrow + rrow
            else:
                sides = (lrow, rrow)
                yield None, tuple(sides[s][i] for s, i in self._picks)


# -- plan rendering ---------------------------------------------------------


def render_plan(root: PhysicalOperator, analyze: bool = False) -> list[str]:
    """The EXPLAIN / EXPLAIN ANALYZE tree, one line per operator."""
    lines = []
    for depth, op in root.walk():
        prefix = "   " * depth + ("-> " if depth else "")
        desc = op.describe()
        head = f"{op.name}({desc})" if desc else op.name
        if analyze:
            stats = op.stats
            parts = [f"rows={stats.rows_out}"]
            if stats.rows_in:
                parts.insert(0, f"rows_in={stats.rows_in}")
            if stats.tracker is not None:
                parts.append(f"seeks={stats.seeks}")
                parts.append(f"pages={stats.page_transfers}")
                parts.append(f"io_ms={stats.modelled_ms:.3f}")
            if op.est_cost_ms:
                parts.append(f"est_ms={op.est_cost_ms:.3f}")
                drift = (stats.modelled_ms - op.est_cost_ms) / op.est_cost_ms
                parts.append(f"drift={drift * 100.0:+.1f}%")
            parts.append(f"wall_ms={stats.wall_ms:.3f}")
            head += "  (" + " ".join(parts) + ")"
        else:
            parts = []
            if op.est_rows is not None:
                parts.append(f"est_rows={op.est_rows}")
            if op.est_cost_ms is not None:
                parts.append(f"est_ms={op.est_cost_ms:.3f}")
            if parts:
                head += "  (" + " ".join(parts) + ")"
        lines.append(prefix + head)
    return lines


def require(condition: bool, message: str) -> None:
    """Planner-side invariant check that surfaces as a QueryError."""
    if not condition:
        raise QueryError(message)
