"""Physical plan construction over the logical IR, plus access-path ranking.

Implements the cost comparison of section IV-B: a scan pays eq. (1), the
table-level bitmap pays eq. (2) over the k blocks holding the table, and
the layered index pays eq. (3) - one random I/O per matching tuple.  The
planner estimates p (matching tuples) from the layered index's histogram
(continuous) or distinct-value bitmaps (discrete); benchmarks override the
choice explicitly to reproduce the paper's per-method curves.

This module is the *builder* half of the read path: the binder
(:mod:`repro.query.logical`) lowers statements into the logical IR,
:meth:`Planner.build` compiles IR + a *decision* (access path, join
method, hash build side) into a tree of streaming operators
(:mod:`repro.query.physical`), and every decision is taken in
:mod:`repro.query.optimizer`, which enumerates them and picks the
cheapest whole plan.  Nothing here chooses: an on-chain scan, join or
TRACE source without a decision is an error.

Pushdowns are explicit plan rewrites made here:

* LIMIT caps upstream iteration through generator laziness - it is only
  separated from the access path by streaming operators when no ORDER BY
  or aggregate (which are blocking and must see all rows) intervenes;
* single-side WHERE conjuncts of a join become intake filters *inside*
  the join operator (tuples are dropped before pairing);
* a projection over a join is fused into the row builder so pruned
  columns are never materialized.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from ..common.errors import CatalogError, ForcedPathError, QueryError
from ..index.bitmap import Bitmap
from ..index.layered import LayeredIndex
from ..index.manager import IndexManager
from ..model.catalog import Catalog
from ..offchain.adapter import OffChainDatabase
from ..sqlparser import nodes
from ..sqlparser.nodes import predicate_text
from ..storage.blockstore import BlockStore
from ..storage.costmodel import CostSnapshot
from . import physical as phys
from .aggregates import aggregate_columns, resolve_order_index
from .logical import (
    LAggregate,
    LBlockLookup,
    LDistinct,
    LFilter,
    LJoin,
    LLimit,
    LOffScan,
    LProject,
    LScan,
    LSort,
    LTrace,
    LogicalPlan,
    Lowering,
    lower,
    lowering,
)
from .operators import (
    RangeConstraint,
    projected_columns,
    qualifier_side,
)

__all__ = [
    "AccessPath",
    "CandidateInfo",
    "JoinDecision",
    "PathChoice",
    "PhysicalPlan",
    "Planner",
    "SelectDecision",
    "TraceDecision",
    "avg_block_size",
    "estimate_matching_tuples",
    "finish_pipeline",
    "pick_access_path",
    "rank_access_paths",
    "resolve_join_projection",
    "usable_indexes",
    "window_bitmap",
]


class AccessPath(enum.Enum):
    """The three physical select strategies compared throughout Figs 8-16."""

    SCAN = "scan"
    BITMAP = "bitmap"
    LAYERED = "layered"


@dataclasses.dataclass
class PathChoice:
    """Planner output: chosen path plus the estimates that drove it."""

    path: AccessPath
    index: Optional[LayeredIndex] = None
    constraint: Optional[RangeConstraint] = None
    est_cost_ms: float = 0.0
    est_rows: int = 0
    #: modelled seek count (n for scan, k for bitmap, p for layered) -
    #: the documented tie-breaker when costs are equal
    est_seeks: int = 0


def estimate_matching_tuples(
    index: LayeredIndex, constraint: RangeConstraint, table_tuples: int
) -> int:
    """Estimate p, the tuples satisfying the constraint."""
    if table_tuples == 0:
        return 0
    if index.continuous and index.histogram is not None:
        buckets = index.histogram.num_buckets
        covered = len(
            index.histogram.buckets_overlapping(constraint.low, constraint.high)
        )
        return max(1, table_tuples * covered // max(buckets, 1))
    # discrete: assume uniform spread over distinct values
    candidates = index.candidate_blocks_eq(constraint.low)
    total_blocks = max(len(index.first_level_bitmap()), 1)
    return max(1, table_tuples * len(candidates) // total_blocks)


#: Stable order among paths whose cost AND seek count tie: layered first
#: (it reads only matching tuples), then scan, then bitmap - chosen so a
#: bitmap covering the whole chain (k == n) never displaces the plain
#: scan it is identical to.
_PATH_TIE_ORDER = {AccessPath.LAYERED: 0, AccessPath.SCAN: 1, AccessPath.BITMAP: 2}


def path_rank_key(choice: PathChoice) -> tuple:
    """Deterministic, documented ranking of access-path alternatives.

    1. modelled cost (eqs 1-3);
    2. modelled seeks - on equal cost, prefer the path that touches the
       disk fewer times (seeks dominate the model, so fewer seeks means
       the estimate is less sensitive to a mis-guessed block size);
    3. a fixed path order (layered, scan, bitmap);
    4. the index column name, so two equally selective layered indexes
       rank identically on every run.
    """
    return (
        choice.est_cost_ms,
        choice.est_seeks,
        _PATH_TIE_ORDER[choice.path],
        choice.index.column if choice.index is not None else "",
    )


def usable_indexes(
    indexes: IndexManager, table: str, columns: Iterable[str]
) -> dict[str, LayeredIndex]:
    """The layered index serving each of ``columns`` on ``table``, for
    the columns one has."""
    usable = {}
    for column in columns:
        index = indexes.layered(column, table)
        if index is not None:
            usable[column] = index
    return usable


def rank_access_paths(
    store: BlockStore,
    indexes: IndexManager,
    table: str,
    constraints: Mapping[str, RangeConstraint],
    usable: Optional[Mapping[str, LayeredIndex]] = None,
) -> list[PathChoice]:
    """Every applicable access path for a single-table select, cheapest
    first under :func:`path_rank_key` (one layered entry per usable
    constrained index - the per-conjunct enumeration).  ``usable`` is
    :func:`usable_indexes` of the constrained columns, looked up when
    not given."""
    if usable is None:
        usable = usable_indexes(indexes, table, constraints)
    n = store.height
    avg_block = avg_block_size(store)
    cost = store.cost
    choices = [
        PathChoice(
            AccessPath.SCAN,
            est_cost_ms=cost.estimate_scan(n, avg_block),
            est_seeks=n,
        )
    ]
    k = len(indexes.table_index.blocks_for_table(table))
    choices.append(
        PathChoice(
            AccessPath.BITMAP,
            est_cost_ms=cost.estimate_bitmap(k, avg_block),
            est_seeks=k,
        )
    )
    table_tuples = indexes.table_index.tuple_count(table)
    for column, constraint in constraints.items():
        index = usable.get(column)
        if index is None:
            continue
        if constraint.low is None and constraint.high is None:
            continue
        est_rows = estimate_matching_tuples(index, constraint, table_tuples)
        choices.append(
            PathChoice(
                AccessPath.LAYERED,
                index=index,
                constraint=constraint,
                est_cost_ms=cost.estimate_layered(est_rows),
                est_rows=est_rows,
                est_seeks=est_rows,
            )
        )
    choices.sort(key=path_rank_key)
    return choices


def pick_access_path(
    ranked: Sequence[PathChoice],
    table: str,
    forced: Optional[AccessPath] = None,
) -> PathChoice:
    """The head of a ranking, or its cheapest entry on the forced path."""
    if forced is None:
        return ranked[0]
    for choice in ranked:
        if choice.path is forced:
            return choice
    # scan and bitmap are always enumerated; only layered can be missing
    raise ForcedPathError(
        f"no layered index usable for table {table!r} with the given "
        f"predicate - create one before forcing the layered path"
    )


def avg_block_size(store: BlockStore) -> int:
    """Average packaged-block size f, sampled from the newest 16 blocks."""
    return store.recent_block_size()


# -- physical plans ---------------------------------------------------------


def window_bitmap(
    indexes: IndexManager, window: Optional[nodes.TimeWindow]
) -> Optional[Bitmap]:
    """Blocks inside the time window, or ``None`` when the window is open."""
    if window is None or window.is_open:
        return None
    return indexes.block_index.window_bitmap(window.start, window.end)


# -- decisions ----------------------------------------------------------------
#
# A decision is the physical half of a plan: the logical IR says *what*,
# the decision says *how*.  ``Planner.build`` compiles (IR, decision)
# pairs; the optimizer enumerates the decisions.


@dataclasses.dataclass
class SelectDecision:
    """Access path for a single-table select."""

    choice: PathChoice


@dataclasses.dataclass
class JoinDecision:
    """Join method (hash via scan/bitmap, merge via layered) plus the
    hash build side (``"left"``/``"right"``; merge ignores it)."""

    method: AccessPath
    build_side: str = "right"


@dataclasses.dataclass
class TraceDecision:
    """TRACE strategy; ``use_operation_index=False`` is the SI* variant."""

    method: AccessPath
    use_operation_index: bool = True


#: off-chain scans and GET BLOCK have no physical freedom: ``None``
Decision = Union[SelectDecision, JoinDecision, TraceDecision, None]


@dataclasses.dataclass
class CandidateInfo:
    """One row of the EXPLAIN candidate waterfall (a costed alternative
    the optimizer enumerated; the chosen one ranks first)."""

    label: str
    est_cost_ms: float
    est_rows: int = 0
    est_seeks: int = 0
    chosen: bool = False


@dataclasses.dataclass
class PhysicalPlan:
    """A compiled read statement: operator tree plus result metadata."""

    root: phys.PhysicalOperator
    columns: tuple[str, ...]
    access_path: str
    statement: nodes.Statement
    choice: Optional[PathChoice] = None
    #: the BlockLookup leaf (GET BLOCK only), to recover ``result.block``
    block_op: Optional[phys.BlockLookup] = None
    #: the optimizer's cost-ranked candidate waterfall (chosen plan
    #: first); empty when the plan was built without the optimizer
    candidates: list[CandidateInfo] = dataclasses.field(default_factory=list)

    def render(self, analyze: bool = False) -> list[str]:
        lines = phys.render_plan(self.root, analyze)
        if self.candidates:
            lines.append(
                f"Candidates ({len(self.candidates)} enumerated, cost-ranked):"
            )
            actual_ms = self.cost().elapsed_ms if analyze else 0.0
            for rank, info in enumerate(self.candidates, start=1):
                marker = "*" if info.chosen else " "
                line = (
                    f"  {marker} {rank}. {info.label}"
                    f"  est_ms={info.est_cost_ms:.3f}"
                )
                if info.est_rows:
                    line += f" est_rows={info.est_rows}"
                if info.est_seeks:
                    line += f" est_seeks={info.est_seeks}"
                if analyze and info.chosen:
                    line += f"  act_ms={actual_ms:.3f}"
                    if info.est_cost_ms > 0:
                        drift = (
                            (actual_ms - info.est_cost_ms)
                            / info.est_cost_ms * 100.0
                        )
                        line += f" drift={drift:+.1f}%"
                lines.append(line)
        return lines

    def operators(self) -> list[phys.PhysicalOperator]:
        return [op for _depth, op in self.root.walk()]

    def cost(self) -> CostSnapshot:
        """The I/O this query incurred so far: its leaf operators' own
        trackers summed in walk order - one leaf per chain, so one per
        shard on a fan-out.  Each leaf prices its own counters; the
        priced milliseconds are summed, never re-priced."""
        parts = [op.stats.tracker.snapshot() for op in self.operators()
                 if op.stats.tracker is not None]
        return CostSnapshot(
            seeks=sum(part.seeks for part in parts),
            page_transfers=sum(part.page_transfers for part in parts),
            bytes_read=sum(part.bytes_read for part in parts),
            bytes_written=sum(part.bytes_written for part in parts),
            elapsed_ms=sum((part.elapsed_ms for part in parts), 0.0),
        )


def resolve_join_projection(
    projection: Sequence[nodes.ProjectionItem],
    refs: tuple[nodes.TableRef, nodes.TableRef],
    names: tuple[Sequence[str], Sequence[str]],
) -> list[tuple[int, int]]:
    """Resolve projected column refs to ``(side, column index)`` picks over
    a join's two sides: the side a qualifier names (an alias, then a table
    name) when it has the column, else the one side that declares it."""
    picks: list[tuple[int, int]] = []
    for ref in projection:
        if not isinstance(ref, nodes.ColumnRef):
            raise QueryError("aggregates over join results are not supported")
        side = qualifier_side(ref.table, *refs)
        if side is not None and ref.column in names[side]:
            sides = [side]
        else:
            sides = [s for s in (0, 1) if ref.column in names[s]]
        if not sides:
            raise QueryError(f"join output has no column {ref.column!r}")
        if len(sides) > 1:
            raise QueryError(
                f"ambiguous column {ref.column!r} in join projection - "
                f"qualify it with a table alias or name"
            )
        picks.append((sides[0], names[sides[0]].index(ref.column)))
    return picks


def finish_pipeline(
    root: phys.PhysicalOperator,
    pipeline: Sequence[object],
    columns: tuple[str, ...],
) -> phys.PhysicalOperator:
    """Compile the Distinct -> Sort -> Limit tail of the IR pipeline.

    LIMIT is always planned topmost: it reaches the access path purely
    through generator laziness, so a blocking Sort or Aggregate below
    it automatically makes the pushdown a no-op (the illegal cases).
    """
    for node in pipeline:
        if isinstance(node, LDistinct):
            root = phys.Distinct(root)
        elif isinstance(node, LSort):
            key = resolve_order_index(columns, node.column)
            root = phys.Sort(
                root, key, str(node.column), node.descending
            )
        elif isinstance(node, LLimit):
            root = phys.Limit(root, node.count)
            root.est_rows = node.count
        else:
            raise QueryError(
                f"unexpected pipeline node {type(node).__name__}"
            )
    return root


def _decided(decision: Decision, kind: type, source: object) -> Any:
    """The decision, checked to be the kind its source needs."""
    if not isinstance(decision, kind):
        raise QueryError(
            f"building a {type(source).__name__} source takes a "
            f"{kind.__name__}, not {type(decision).__name__}"
        )
    return decision


class Planner:
    """Compiles the logical IR plus a decision into physical plans."""

    def __init__(
        self,
        store: BlockStore,
        indexes: IndexManager,
        catalog: Catalog,
        offchain: Optional[OffChainDatabase] = None,
    ) -> None:
        self._store = store
        self._indexes = indexes
        self._catalog = catalog
        self._offchain = offchain

    # -- component access (the optimizer enumerates over these) ------------

    @property
    def store(self) -> BlockStore:
        return self._store

    @property
    def indexes(self) -> IndexManager:
        return self._indexes

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def offchain(self) -> Optional[OffChainDatabase]:
        return self._offchain

    # -- entry points ------------------------------------------------------

    @property
    def schema_version(self) -> tuple[int, int, int]:
        """Changes whenever what lowering and enumeration read changes:
        the catalog, the layered-index set, the off-chain tables."""
        offchain = self._offchain
        return (
            self._catalog.version,
            self._indexes.version,
            offchain.version if offchain is not None else 0,
        )

    def lowering(self, statement: nodes.Statement) -> Lowering:
        """Lower a read statement as far as its text allows (once per text)."""
        return lowering(statement, self._catalog, self._offchain)

    def lower(self, statement: nodes.Statement) -> LogicalPlan:
        """Bind a read statement into the logical IR."""
        return lower(statement, self._catalog, self._offchain)

    def build(
        self,
        lplan: LogicalPlan,
        decision: Decision = None,
    ) -> PhysicalPlan:
        """Compile a lowered statement plus a decision into operators."""
        source = lplan.unwrap_source()
        if isinstance(source, LScan):
            return self._build_select(
                lplan, source, _decided(decision, SelectDecision, source)
            )
        if isinstance(source, LJoin):
            return self._build_join(
                lplan, source, _decided(decision, JoinDecision, source)
            )
        if isinstance(source, LTrace):
            return self._build_trace(
                lplan, source, _decided(decision, TraceDecision, source)
            )
        if isinstance(source, LOffScan):
            return self._build_offchain(lplan, source)
        if isinstance(source, LBlockLookup):
            return self._build_get_block(lplan, source)
        raise QueryError(
            f"cannot build source {type(source).__name__}"
        )

    def _window_blocks(self, window: Optional[nodes.TimeWindow]) -> Bitmap:
        """Blocks inside the time window (every block when it is open)."""
        bits = window_bitmap(self._indexes, window)
        if bits is None:
            bits = self._indexes.block_index.all_blocks_bitmap()
        return bits

    # -- SELECT ------------------------------------------------------------

    def scan_leaf(
        self, scan: LScan, choice: PathChoice
    ) -> phys.PhysicalOperator:
        """One chain's tuple stream for an on-chain scan: the access-path
        leaf (eqs 1-3) plus the residual filter.

        Shared by the single-chain select plan and the sharded fan-out
        (:mod:`repro.query.optimizer.sharded`), which builds one per
        shard and merges the streams.
        """
        store, indexes, schema = self._store, self._indexes, scan.schema
        window_bits = window_bitmap(indexes, scan.window)
        if choice.path is AccessPath.LAYERED:
            assert choice.index is not None and choice.constraint is not None
            candidate = choice.index.candidate_blocks_range(
                choice.constraint.low, choice.constraint.high
            )
            candidate = candidate & indexes.table_index.blocks_for_table(schema.name)
            if window_bits is not None:
                candidate = candidate & window_bits
            root: phys.PhysicalOperator = phys.LayeredLookup(
                store, choice.index, choice.constraint,
                candidate, schema, scan.window,
            )
        elif choice.path is AccessPath.BITMAP:
            candidate = indexes.table_index.blocks_for_table(schema.name)
            if window_bits is not None:
                candidate = candidate & window_bits
            root = phys.BitmapScan(store, candidate, schema, scan.window)
        else:
            candidate = (
                window_bits if window_bits is not None
                else indexes.block_index.all_blocks_bitmap()
            )
            root = phys.SeqScan(store, candidate, schema, scan.window)
        root.est_rows = choice.est_rows or None
        root.est_cost_ms = choice.est_cost_ms
        if scan.accept is not None:
            root = phys.Filter(root, scan.accept, scan.predicate)
        return root

    def _build_select(
        self, lplan: LogicalPlan, scan: LScan, decision: SelectDecision
    ) -> PhysicalPlan:
        stmt = lplan.statement
        assert isinstance(stmt, nodes.Select)
        choice = decision.choice
        root = self.scan_leaf(scan, choice)
        head, rest = lplan.pipeline[0], lplan.pipeline[1:]
        if isinstance(head, LAggregate):
            columns = aggregate_columns(stmt)
            root = phys.Aggregate(root, stmt, head.evaluate)
        else:
            assert isinstance(head, LProject) and head.row is not None
            columns = projected_columns(scan.schema, stmt.projection)
            root = phys.Project(root, stmt.projection, head.row)
        root = finish_pipeline(root, rest, columns)
        return PhysicalPlan(
            root=root, columns=columns, access_path=choice.path.value,
            statement=stmt, choice=choice,
        )

    def _build_offchain(
        self, lplan: LogicalPlan, scan: LOffScan
    ) -> PhysicalPlan:
        stmt = lplan.statement
        assert isinstance(stmt, nodes.Select)
        offchain = self._require_offchain()
        columns = scan.columns
        root: phys.PhysicalOperator = phys.OffchainScan(
            offchain, scan.table.name
        )
        if isinstance(lplan.source, LFilter):
            root = phys.Filter(
                root, lplan.source.accept, lplan.source.predicate)
        head, rest = lplan.pipeline[0], lplan.pipeline[1:]
        assert isinstance(head, LProject)
        if head.items:
            picks = [columns.index(ref.column) for ref in head.items]
            out_columns = tuple(ref.column for ref in head.items)
            root = phys.ProjectIndices(root, picks, out_columns)
        else:
            out_columns = tuple(columns)
        root = finish_pipeline(root, rest, out_columns)
        return PhysicalPlan(
            root=root, columns=out_columns, access_path="offchain",
            statement=stmt,
        )

    # -- joins -------------------------------------------------------------

    def _onchain_join_leaf(
        self, join: LJoin, decision: JoinDecision
    ) -> phys.PhysicalOperator:
        """The fused on-chain join operator (Algorithm 2 / hash baselines),
        single-side WHERE conjuncts pushed inside as intake filters."""
        store, indexes = self._store, self._indexes
        assert isinstance(join.right, LScan)
        left, right = join.left.schema, join.right.schema
        left_col, right_col = join.left_column, join.right_column
        window = join.left.window
        left_pred, right_pred = join.left.predicate, join.right.predicate
        left_accept, right_accept = join.left.accept, join.right.accept
        pushed = " AND ".join(
            predicate_text(p) for p in (left_pred, right_pred) if p is not None
        )
        window_bits = self._window_blocks(window)
        if decision.method is AccessPath.LAYERED:
            left_index = indexes.layered(left_col, left.name)
            right_index = indexes.layered(right_col, right.name)
            if left_index is None or right_index is None:
                raise QueryError(
                    f"layered join needs indexes on {left.name}.{left_col} and "
                    f"{right.name}.{right_col}"
                )
            left_blocks = (
                window_bits & left_index.first_level_bitmap()
                & indexes.table_index.blocks_for_table(left.name)
            )
            right_blocks = (
                window_bits & right_index.first_level_bitmap()
                & indexes.table_index.blocks_for_table(right.name)
            )
            return phys.MergeJoin(
                store, left_index, right_index,
                left_blocks, right_blocks, left, right, window,
                left_accept, right_accept, pushed,
            )
        candidate = window_bits
        if decision.method is AccessPath.BITMAP:
            candidate = candidate & (
                indexes.table_index.blocks_for_table(left.name)
                | indexes.table_index.blocks_for_table(right.name)
            )
        return phys.HashJoin(
            store, candidate, left, right, left_col, right_col,
            window, left_accept, right_accept, pushed, decision.build_side,
        )

    def _onoff_join_leaf(
        self, join: LJoin, decision: JoinDecision
    ) -> phys.PhysicalOperator:
        """The fused on/off-chain join operator (Algorithm 3 / hash baselines)."""
        store, indexes = self._store, self._indexes
        offchain = self._require_offchain()
        assert isinstance(join.right, LOffScan)
        onchain, on_col = join.left.schema, join.left_column
        off_table, off_col = join.right.table.name, join.right_column
        window = join.left.window
        on_accept, pushed = join.left.accept, ""
        if join.left.predicate is not None:
            pushed = predicate_text(join.left.predicate)
        off_columns = join.right.columns
        if off_col not in off_columns:
            raise QueryError(
                f"off-chain table {off_table!r} has no column {off_col!r}"
            )
        off_key = off_columns.index(off_col)
        window_bits = self._window_blocks(window)
        if decision.method is AccessPath.LAYERED:
            index = indexes.layered(on_col, onchain.name)
            if index is None:
                raise QueryError(
                    f"layered on-off join needs an index on {onchain.name}.{on_col}"
                )
            candidate = window_bits & indexes.table_index.blocks_for_table(
                onchain.name
            )
            # the paper sorts the off-chain rows on the join attribute once
            off_rows = offchain.fetch_sorted(off_table, off_col)
            if not off_rows:
                candidate = Bitmap()
            elif index.continuous:
                # lines 3-7 of Alg 3: off-chain [min, max] prunes level 1
                s_min, s_max = offchain.min_max(off_table, off_col)
                candidate = candidate & index.candidate_blocks_range(s_min, s_max)
            else:
                # discrete attribute: OR over the bitmaps of the unique keys
                mask = None
                for value in offchain.distinct_values(off_table, off_col):
                    bits = index.candidate_blocks_eq(value)
                    mask = bits if mask is None else (mask | bits)
                if mask is not None:
                    candidate = candidate & mask
            return phys.OnOffMergeJoin(
                store, candidate, index, onchain, off_table,
                off_rows, off_key, window, on_accept, pushed,
            )
        candidate = window_bits
        if decision.method is AccessPath.BITMAP:
            candidate = candidate & indexes.table_index.blocks_for_table(
                onchain.name
            )
        return phys.OnOffHashJoin(
            store, candidate, offchain, onchain, on_col,
            off_table, off_key, window, on_accept, pushed,
        )

    def _build_join(
        self, lplan: LogicalPlan, join: LJoin, decision: JoinDecision
    ) -> PhysicalPlan:
        stmt = lplan.statement
        assert isinstance(stmt, nodes.Select)
        left_schema = join.left.schema
        right = join.right
        refs = (join.left.table, right.table)
        if isinstance(right, LScan):
            root = self._onchain_join_leaf(join, decision)
            right_columns: Sequence[str] = right.schema.column_names
        else:
            root = self._onoff_join_leaf(join, decision)
            right_columns = right.columns
        if isinstance(lplan.source, LFilter):
            root = phys.Filter(
                root, lplan.source.accept, lplan.source.predicate)
        head, rest = lplan.pipeline[0], lplan.pipeline[1:]
        assert isinstance(head, LProject)
        root, columns = self._join_rows(
            root, stmt, refs, (left_schema.column_names, right_columns),
            isinstance(right, LOffScan),
        )
        root = finish_pipeline(root, rest, columns)
        return PhysicalPlan(
            root=root, columns=columns, access_path=decision.method.value,
            statement=stmt,
        )

    def _join_rows(
        self,
        root: phys.PhysicalOperator,
        stmt: nodes.Select,
        refs: tuple[nodes.TableRef, nodes.TableRef],
        names: tuple[Sequence[str], Sequence[str]],
        right_is_offchain: bool = False,
    ) -> tuple[phys.PhysicalOperator, tuple[str, ...]]:
        """Fuse the projection into the join's row builder when present.

        Output columns are qualified by each side's alias, or by its table
        name when it has none."""
        if stmt.projection:
            picks = resolve_join_projection(stmt.projection, refs, names)
        else:
            picks = [(s, i) for s in (0, 1) for i in range(len(names[s]))]
        columns = tuple(
            f"{refs[s].effective_name}.{names[s][i]}" for s, i in picks
        )
        pruned = picks if stmt.projection else None
        return phys.JoinRows(root, columns, pruned, right_is_offchain), columns

    # -- TRACE -------------------------------------------------------------

    def trace_leaf(
        self, trace: LTrace, decision: TraceDecision
    ) -> phys.PhysicalOperator:
        """The TRACE leaf (Algorithm 1) under the decided strategy; the
        sharded fan-out concatenates one per shard."""
        store, indexes = self._store, self._indexes
        operator, operation = trace.operator, trace.operation
        if operator is None and operation is None:
            raise QueryError("tracking needs an operator and/or an operation")
        candidate = self._window_blocks(trace.window)
        if decision.method is AccessPath.LAYERED:
            sender_index = tname_index = None
            if operator is not None:
                sender_index = indexes.layered("senid")
                if sender_index is None:
                    raise QueryError(
                        "layered tracking by operator needs an index on senid"
                    )
                candidate = candidate & sender_index.candidate_blocks_eq(operator)
            if operation is not None and (
                decision.use_operation_index or operator is None
            ):
                tname_index = indexes.layered("tname")
                if tname_index is None:
                    raise QueryError(
                        "layered tracking by operation needs an index on tname"
                    )
                candidate = candidate & tname_index.candidate_blocks_eq(operation)
            return phys.TraceLayered(
                store, candidate, sender_index, tname_index,
                operator, operation, trace.window,
            )
        if decision.method is AccessPath.BITMAP:
            if operator is not None:
                candidate = candidate & indexes.table_index.blocks_for_sender(operator)
            if operation is not None:
                candidate = candidate & indexes.table_index.blocks_for_table(operation)
            return phys.TraceBitmap(
                store, candidate, operator, operation, trace.window
            )
        return phys.TraceScan(
            store, candidate, operator, operation, trace.window
        )

    def _build_trace(
        self, lplan: LogicalPlan, trace: LTrace, decision: TraceDecision
    ) -> PhysicalPlan:
        root = phys.TraceRows(self.trace_leaf(trace, decision))
        return PhysicalPlan(
            root=root, columns=phys.TraceRows.COLUMNS,
            access_path=decision.method.value, statement=lplan.statement,
        )

    # -- GET BLOCK ---------------------------------------------------------

    def _build_get_block(
        self, lplan: LogicalPlan, lookup: LBlockLookup
    ) -> PhysicalPlan:
        stmt = lplan.statement
        index = self._indexes.block_index
        if lookup.kind is nodes.BlockLookupKind.BY_ID:
            entry = index.by_bid(int(lookup.value))  # type: ignore[call-overload]
        elif lookup.kind is nodes.BlockLookupKind.BY_TID:
            entry = index.by_tid(int(lookup.value))  # type: ignore[call-overload]
        else:
            entry = index.by_timestamp(int(lookup.value))  # type: ignore[call-overload]
        if entry is None:
            raise QueryError(
                f"no block found for {lookup.kind.value}={lookup.value!r}"
            )
        leaf = phys.BlockLookup(
            self._store, entry.bid, f"{lookup.kind.value}={lookup.value!r}"
        )
        root = phys.TraceRows(leaf)
        return PhysicalPlan(
            root=root, columns=phys.TraceRows.COLUMNS,
            access_path="block-index", statement=stmt,
            block_op=leaf,
        )

    # -- shared helpers ----------------------------------------------------

    def _require_offchain(self) -> OffChainDatabase:
        if self._offchain is None:
            raise CatalogError(
                "this node has no off-chain database attached"
            )
        return self._offchain
