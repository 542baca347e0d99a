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

* the on-chain leaves (:class:`BlockScan`, :class:`PositionScan`,
  :class:`BlockLookup`) yield :class:`Transaction`;
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
import math
import time
from bisect import bisect_right
from typing import Any, Callable, Iterator, Optional, Sequence

from ..common.errors import QueryError
from ..index.bitmap import Bitmap
from ..index.layered import LayeredIndex, ranges_intersect
from ..model.schema import TableSchema
from ..model.transaction import SCHEMA_TNAME, Transaction, column_getter
from ..offchain.adapter import OffChainDatabase
from ..sqlparser.nodes import ColumnRef, Predicate, Select, TimeWindow, predicate_text
from ..storage.blockstore import BlockStore
from ..storage.costmodel import CostModel

Row = tuple[Optional[Transaction], tuple[Any, ...]]
RowTest = Callable[[Transaction], bool]


def row_test(
    table: Optional[str] = None,
    sender: Optional[str] = None,
    window: Optional[TimeWindow] = None,
    accept: Optional[RowTest] = None,
) -> RowTest:
    """The one test a tuple passes to leave a leaf or enter a join side.

    It keeps the tuples of ``table`` (of every table when ``None``) sent
    by ``sender`` (by anyone when ``None``; one of the two is named)
    inside ``window`` that ``accept`` (a join side's pushed conjuncts)
    keeps; the schema log is never kept.  Built once per plan, each
    common shape as one straight-line lambda: it runs once per tuple a
    leaf reads.
    """
    assert table is not None or sender is not None
    if accept is not None:
        test = row_test(table, sender, window)
        return lambda tx: test(tx) and accept(tx)
    if table == SCHEMA_TNAME:
        return lambda tx: False
    if window is None or window.is_open:
        if sender is None:
            return lambda tx: tx.tname == table
        if table is None:
            return lambda tx: tx.senid == sender and tx.tname != SCHEMA_TNAME
        return lambda tx: tx.senid == sender and tx.tname == table
    # an int compared with a float infinity is slow: only a half-open
    # window pays for it
    low = -math.inf if window.start is None else window.start
    high = math.inf if window.end is None else window.end
    if sender is None:
        return lambda tx: tx.tname == table and low <= tx.ts <= high
    if table is None:
        return lambda tx: (tx.senid == sender and tx.tname != SCHEMA_TNAME
                           and low <= tx.ts <= high)
    return lambda tx: (tx.senid == sender and tx.tname == table
                       and low <= tx.ts <= high)


@dataclasses.dataclass(slots=True)
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
    #: the planner's estimates, set on the operators it has them for
    est_rows: Optional[int] = None
    est_cost_ms: Optional[float] = None
    #: set on every operator of a tree EXPLAIN ANALYZE times
    timed = False

    def __init__(self, children: Sequence["PhysicalOperator"] = ()) -> None:
        self.children = tuple(children)
        self.stats = OperatorStats(inputs=tuple([c.stats for c in self.children]))

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
    """An operator that performs I/O through the scan interface; EXPLAIN
    prints the label the planner gave it."""

    def __init__(self, store: BlockStore, label: str) -> None:
        super().__init__()
        self.stats.tracker = store.cost.tracker()
        self.scanner = store.scanner(self.stats.tracker)
        self._label = label

    def describe(self) -> str:
        return self._label


# -- candidate-block leaves (yield Transaction) -----------------------------
#
# Every select and TRACE path reads one of two ways: whole candidate
# blocks (eqs 1-2, Algorithm 1 without indexes) or the indexed positions
# of each candidate block (eq. 3, Algorithm 1 over the layered indexes).
# The planner names each leaf for the access path it stands for.


class BlockScan(_LeafOperator):
    """Read each candidate block whole; the store picks ``table``'s and
    ``sender``'s tuples on its scan tags, the row test then decides."""

    def __init__(self, store: BlockStore, name: str, label: str,
                 candidate: Bitmap, test: RowTest, table: Optional[str] = None,
                 sender: Optional[str] = None) -> None:
        super().__init__(store, label)
        self.name = name
        self._candidate = candidate
        self._test = test
        self._tnames = None if table is None else (table,)
        self._sender = sender

    def _rows(self) -> Iterator[Transaction]:
        stats, test, tnames, sender = self.stats, self._test, self._tnames, self._sender
        scan = self.scanner.scan_block
        for bid in self._candidate:
            for tx in scan(bid, tnames, sender):
                if test(tx):
                    stats.rows_out += 1
                    yield tx


#: candidate blocks -> ``(block, positions)`` for each block holding any,
#: listed before the first read: a list costs less per block than a
#: generator, the runs are in memory, and a LIMIT still stops the reads
Positions = Callable[[Bitmap], list[tuple[int, Sequence[int]]]]


def range_positions(index: LayeredIndex, low: Any, high: Any) -> Positions:
    """The positions whose ``index`` key is in [low, high], in key order
    (eq. 3)."""
    tree_of = index.trees.get

    def positions(candidate: Bitmap) -> list[tuple[int, Sequence[int]]]:
        return [(bid, found) for bid in candidate
                if (tree := tree_of(bid)) is not None
                and (found := tree.payloads(low, high))]
    return positions


def key_positions(index: LayeredIndex, key: Any) -> Positions:
    """The positions holding ``key`` in ``index``, in block order:
    Algorithm 1 on one index.  Sorted only when the index's level 2 does
    not keep them so (an MB-tree orders equal keys by payload repr)."""
    tree_of = index.trees.get

    def positions(candidate: Bitmap) -> list[tuple[int, Sequence[int]]]:
        return [(bid, found) for bid in candidate
                if (tree := tree_of(bid)) is not None
                and (found := tree.search(key))]
    if index.keys_in_block_order:
        return positions

    def sorted_positions(candidate: Bitmap) -> list[tuple[int, Sequence[int]]]:
        return [(bid, sorted(found)) for bid, found in positions(candidate)]
    return sorted_positions


def common_positions(index: LayeredIndex, key: Any, other: LayeredIndex,
                     other_key: Any) -> Positions:
    """The positions holding ``key`` in ``index`` and ``other_key`` in
    ``other``, in block order (Algorithm 1 intersecting two postings)."""
    tree_of, other_of = index.trees.get, other.trees.get

    def positions(candidate: Bitmap) -> list[tuple[int, Sequence[int]]]:
        return [(bid, sorted(found)) for bid in candidate
                if (tree := tree_of(bid)) is not None
                and (other_tree := other_of(bid)) is not None
                and (found := set(tree.search(key)).intersection(
                    other_tree.search(other_key)))]
    return positions


class PositionScan(_LeafOperator):
    """Read only the positions ``positions`` finds in the candidate
    blocks' level-2 runs, one random I/O each; the row test decides."""

    def __init__(self, store: BlockStore, name: str, label: str,
                 candidate: Bitmap, positions: Positions, test: RowTest) -> None:
        super().__init__(store, label)
        self.name = name
        self._candidate = candidate
        self._positions = positions
        self._test = test

    def _rows(self) -> Iterator[Transaction]:
        stats, test = self.stats, self._test
        read, tracker = self.scanner.positional_read()
        for bid, wanted in self._positions(self._candidate):
            for tx in read(bid, wanted, tracker):
                if test(tx):
                    stats.rows_out += 1
                    yield tx


# -- GET BLOCK leaf ---------------------------------------------------------


class BlockLookup(_LeafOperator):
    """Read one block located through the block-level B+-tree."""

    name = "BlockLookup"

    def __init__(self, store: BlockStore, height: int, label: str) -> None:
        super().__init__(store, label)
        self._height = height
        self.block = None  # filled at execution

    def _rows(self) -> Iterator[Transaction]:
        stats = self.stats
        self.block = self.scanner.read_block(self._height)
        for tx in self.block.transactions:
            stats.rows_out += 1
            yield tx


# -- streaming relational operators ----------------------------------------


class Filter(PhysicalOperator):
    """Keep elements satisfying a residual predicate (``accept`` is its
    row test; the predicate itself is rendered only by EXPLAIN)."""

    name = "Filter"

    def __init__(
        self,
        child: PhysicalOperator,
        accept: Callable[[Any], bool],
        predicate: Predicate,
    ) -> None:
        super().__init__((child,))
        self._accept = accept
        self._predicate = predicate

    def describe(self) -> str:
        return predicate_text(self._predicate)

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
        projection: Sequence[ColumnRef],
        row: Callable[[Transaction], tuple[Any, ...]],
    ) -> None:
        super().__init__((child,))
        self._projection = tuple(projection)
        self._row = row

    def describe(self) -> str:
        if not self._projection:
            return "*"
        return ", ".join(str(ref) for ref in self._projection)

    def _rows(self) -> Iterator[Row]:
        stats, row = self.stats, self._row
        for tx in self.children[0].execute():
            stats.rows_out += 1
            yield tx, row(tx)


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

    def __init__(
        self,
        child: PhysicalOperator,
        stmt: Select,
        evaluate: Callable[[Sequence[Transaction]], list[tuple[Any, ...]]],
    ) -> None:
        super().__init__((child,))
        self._stmt = stmt
        self._evaluate = evaluate

    def describe(self) -> str:
        items = ", ".join(
            item.label if hasattr(item, "label") else str(item)
            for item in self._stmt.projection
        )
        if self._stmt.group_by is not None:
            items += f" GROUP BY {self._stmt.group_by}"
        return items

    def _rows(self) -> Iterator[Row]:
        for values in self._evaluate(list(self.children[0].execute())):
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
#
# Each join side keeps the tuples its row test passes: the side's table
# inside the statement's window, under its pushed WHERE conjuncts.


def equal_runs(
    left: Sequence[Any], right: Sequence[Any]
) -> Iterator[tuple[int, int, int, int]]:
    """The sort-merge walk of two ascending key lists: ``(i, i_end, j,
    j_end)`` for each key both hold, ``left[i:i_end]`` and
    ``right[j:j_end]`` being every copy of it."""
    i = j = 0
    while i < len(left) and j < len(right):
        key, other = left[i], right[j]
        if key < other:
            i += 1
        elif key > other:
            j += 1
        else:
            i_end = bisect_right(left, key, i + 1)
            j_end = bisect_right(right, key, j + 1)
            yield i, i_end, j, j_end
            i, j = i_end, j_end


class HashJoin(_LeafOperator):
    """One-pass scan hash join over two on-chain tables (section V-B).

    Scans the candidate blocks once, partitioning both tables' tuples;
    builds a hash index on one side and probes with the other.  Each
    side's row test drops tuples at intake, before they enter the build
    table or the probe list.
    """

    name = "HashJoin"

    def __init__(
        self,
        store: BlockStore,
        label: str,
        candidate: Bitmap,
        left: TableSchema,
        right: TableSchema,
        left_column: str,
        right_column: str,
        left_test: RowTest,
        right_test: RowTest,
        build_side: str = "right",
    ) -> None:
        super().__init__(store, label)
        if build_side not in ("left", "right"):
            raise ValueError(f"unknown hash build side {build_side!r}")
        self._candidate = candidate
        self._tnames = (left.name, right.name)
        left_key = column_getter(left.column_index(left_column))
        right_key = column_getter(right.column_index(right_column))
        # one table builds the hash index, the other probes; output stays
        # (left, right) oriented either way, so the build side is purely a
        # memory/CPU choice the optimizer costs (smaller side builds)
        self._build_on_left = build_side == "left"
        sides = ((left_key, left_test), (right_key, right_test))
        #: (build, probe), each a key getter and a row test
        self._sides = sides if self._build_on_left else sides[::-1]

    def _rows(self) -> Iterator[tuple[Transaction, Transaction]]:
        (build_key, build_test), (probe_key, probe_test) = self._sides
        build: dict[Any, list[Transaction]] = {}
        probes: list[Transaction] = []
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, self._tnames):
                # a self-join names one table twice: every tuple is offered
                # to both sides, each under its own test
                if build_test(tx):
                    key = build_key(tx)
                    if key is not None:
                        build.setdefault(key, []).append(tx)
                if probe_test(tx):
                    probes.append(tx)
        stats, build_on_left = self.stats, self._build_on_left
        for tx in probes:
            key = probe_key(tx)
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
    actually join are read from disk (the level-2 runs are sorted on
    the join attribute).  Each key's tuples on both sides are read
    before its first pair is yielded."""

    name = "MergeJoin"

    def __init__(
        self,
        store: BlockStore,
        label: str,
        left_index: LayeredIndex,
        right_index: LayeredIndex,
        left_blocks: Bitmap,
        right_blocks: Bitmap,
        left_test: RowTest,
        right_test: RowTest,
    ) -> None:
        super().__init__(store, label)
        self._left_index = left_index
        self._right_index = right_index
        self._left_blocks = left_blocks
        self._right_blocks = right_blocks
        self._left_test = left_test
        self._right_test = right_test

    def _rows(self) -> Iterator[tuple[Transaction, Transaction]]:
        stats, left_index, right_index = self.stats, self._left_index, self._right_index
        left_test, right_test = self._left_test, self._right_test
        read, tracker = self.scanner.positional_read()
        right_list = list(self._right_blocks)
        for lbid in self._left_blocks:
            left_ranges = left_index.block_bucket_ranges(lbid)
            if not left_ranges:
                continue
            for rbid in right_list:
                right_ranges = right_index.block_bucket_ranges(rbid)
                if not right_ranges or not ranges_intersect(left_ranges, right_ranges):
                    continue
                left_keys, left_positions = left_index.range_block(lbid)
                right_keys, right_positions = right_index.range_block(rbid)
                for i, i_end, j, j_end in equal_runs(left_keys, right_keys):
                    lefts = [tx for tx in read(lbid, left_positions[i:i_end], tracker)
                             if left_test(tx)]
                    rights = [tx for tx in read(rbid, right_positions[j:j_end], tracker)
                              if right_test(tx)]
                    for ltx in lefts:
                        for rtx in rights:
                            stats.rows_out += 1
                            yield ltx, rtx


class OnOffHashJoin(_LeafOperator):
    """On/off-chain hash join: build on the off-chain rows, probe the chain."""

    name = "OnOffHashJoin"

    def __init__(
        self,
        store: BlockStore,
        label: str,
        candidate: Bitmap,
        offchain: OffChainDatabase,
        onchain: TableSchema,
        on_column: str,
        off_table: str,
        off_key: int,
        on_test: RowTest,
    ) -> None:
        super().__init__(store, label)
        self._candidate = candidate
        self._offchain = offchain
        self._tnames = (onchain.name,)
        self._on_key = column_getter(onchain.column_index(on_column))
        self._off_table = off_table
        self._off_key = off_key
        self._on_test = on_test

    def _rows(self) -> Iterator[tuple[Transaction, tuple]]:
        stats, on_key, on_test = self.stats, self._on_key, self._on_test
        build: dict[Any, list[tuple]] = {}
        for row in self._offchain.fetch_all(self._off_table):
            key = row[self._off_key]
            if key is not None:
                build.setdefault(key, []).append(row)
        for bid in self._candidate:
            for tx in self.scanner.scan_block(bid, self._tnames):
                if not on_test(tx):
                    continue
                key = on_key(tx)
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
        label: str,
        candidate: Bitmap,
        index: LayeredIndex,
        off_rows: Sequence[tuple],
        off_key: int,
        on_test: RowTest,
    ) -> None:
        super().__init__(store, label)
        self._candidate = candidate
        self._index = index
        self._off_rows = off_rows
        self._off_key = off_key
        self._on_test = on_test

    def _rows(self) -> Iterator[tuple[Transaction, tuple]]:
        stats, index, on_test = self.stats, self._index, self._on_test
        off_key = self._off_key
        # a NULL key joins nothing: the walk never sees one
        off_rows = [row for row in self._off_rows if row[off_key] is not None]
        off_keys = [row[off_key] for row in off_rows]
        read, tracker = self.scanner.positional_read()
        for bid in self._candidate:
            keys, positions = index.range_block(bid)
            for i, i_end, j, j_end in equal_runs(keys, off_keys):
                txs = [tx for tx in read(bid, positions[i:i_end], tracker)
                       if on_test(tx)]
                for tx in txs:
                    for row in off_rows[j:j_end]:
                        stats.rows_out += 1
                        yield tx, row


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
