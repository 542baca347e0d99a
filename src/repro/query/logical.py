"""The logical plan IR: what a read statement *means*, before physics.

The binder (:func:`lower`) turns a parsed statement into a small tree of
logical nodes - scan / filter / project / join / sort / limit / aggregate -
resolving tables against the catalog, aligning join columns, and splitting
the WHERE clause into per-side pushdowns plus a residual.  Everything the
planner and optimizer need to enumerate physical alternatives lives here;
nothing in this module knows about access paths, operators, or I/O.

Normalization performed during lowering:

* **WHERE split**: conjuncts of a join's WHERE that touch only one side
  become that side's scan predicate (an intake filter pushed inside the
  join); cross-side or ambiguous conjuncts stay residual.
* **Constraint extraction**: every scan carries the per-column range
  constraints of its predicate, the input to histogram-based
  cardinality estimation.
* **Pipeline ordering**: Aggregate/Project, then Distinct -> Sort ->
  Limit - the only legal top-of-plan order (LIMIT pushdown happens
  later, purely through generator laziness).

The physical planner (:mod:`repro.query.plan`) consumes this IR plus a
*decision* (access path, join method, build side); the optimizer
(:mod:`repro.query.optimizer`) enumerates and costs the decisions.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Union

from ..common.errors import CatalogError, QueryError
from ..model.catalog import Catalog
from ..model.schema import TableSchema
from ..offchain.adapter import OffChainDatabase
from ..sqlparser import nodes
from .operators import (
    RangeConstraint,
    extract_constraints,
    pseudo_schema,
    qualifier_side,
    resolve_join_side,
)

# -- IR nodes ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LScan:
    """One on-chain table's tuple stream.

    ``predicate`` is the full predicate this side must satisfy (residual
    filter or join intake filter); ``constraints`` are its per-column
    range conjuncts, the input to cardinality estimation.
    """

    table: nodes.TableRef
    schema: TableSchema
    predicate: Optional[nodes.Predicate]
    constraints: Mapping[str, RangeConstraint]
    window: Optional[nodes.TimeWindow]


@dataclasses.dataclass(frozen=True)
class LOffScan:
    """One off-chain table fetched from the participant's local RDBMS."""

    table: nodes.TableRef
    columns: tuple[str, ...]
    predicate: Optional[nodes.Predicate]


@dataclasses.dataclass(frozen=True)
class LJoin:
    """An equi-join of two sides; per-side pushdowns live on the sides.

    ``kind`` is ``"onchain"`` (Algorithm 2 / hash baselines) or
    ``"onoff"`` (Algorithm 3); for onoff the on-chain side is always
    ``left`` regardless of statement order, matching the physical
    operators' output orientation.
    """

    kind: str
    left: LScan
    right: Union[LScan, LOffScan]
    left_column: str
    right_column: str


@dataclasses.dataclass(frozen=True)
class LFilter:
    """A residual predicate over its child (the part no leaf absorbs)."""

    predicate: nodes.Predicate
    child: Union[LScan, LOffScan, LJoin]


@dataclasses.dataclass(frozen=True)
class LTrace:
    """TRACE (Algorithm 1): the two system dimensions plus a window."""

    operator: Optional[str]
    operation: Optional[str]
    window: Optional[nodes.TimeWindow]


@dataclasses.dataclass(frozen=True)
class LBlockLookup:
    """GET BLOCK by id / transaction id / timestamp."""

    kind: nodes.BlockLookupKind
    value: object


@dataclasses.dataclass(frozen=True)
class LProject:
    """Column projection (empty items = all columns)."""

    items: tuple[nodes.ProjectionItem, ...]


@dataclasses.dataclass(frozen=True)
class LAggregate:
    """Aggregation / GROUP BY; carries the statement for the evaluator."""

    statement: nodes.Select


@dataclasses.dataclass(frozen=True)
class LDistinct:
    pass


@dataclasses.dataclass(frozen=True)
class LSort:
    column: nodes.ColumnRef
    descending: bool


@dataclasses.dataclass(frozen=True)
class LLimit:
    count: int


#: Every node type that can appear in :attr:`LogicalPlan.pipeline`.
PipelineNode = Union[LProject, LAggregate, LDistinct, LSort, LLimit]

#: Every node type that can appear as :attr:`LogicalPlan.source`.
SourceNode = Union[LScan, LOffScan, LJoin, LFilter, LTrace, LBlockLookup]


@dataclasses.dataclass(frozen=True)
class LogicalPlan:
    """A lowered read statement: a source tree plus a pipeline above it."""

    source: SourceNode
    pipeline: tuple[PipelineNode, ...]
    statement: nodes.Statement

    def unwrap_source(self) -> Union[LScan, LOffScan, LJoin, LTrace, LBlockLookup]:
        """The source with any residual LFilter peeled off."""
        source = self.source
        if isinstance(source, LFilter):
            return source.child
        return source

    def residual(self) -> Optional[nodes.Predicate]:
        if isinstance(self.source, LFilter):
            return self.source.predicate
        return None


# -- binder helpers ----------------------------------------------------------


def align_join_columns(
    stmt: nodes.Select,
    left_ref: nodes.TableRef,
    right_ref: nodes.TableRef,
) -> tuple[str, str]:
    """Return (left table's join column, right table's join column)."""
    assert stmt.join_on is not None
    a, b = stmt.join_on
    if (qualifier_side(a.table, left_ref, right_ref) == 1
            or qualifier_side(b.table, left_ref, right_ref) == 0):
        a, b = b, a
    return a.column, b.column


def predicate_side(
    predicate: nodes.Predicate,
    left: TableSchema,
    right: TableSchema,
    refs: tuple[nodes.TableRef, nodes.TableRef],
) -> str:
    """Which join side an entire predicate subtree can be evaluated on."""
    if isinstance(predicate, (nodes.Comparison, nodes.Between)):
        return resolve_join_side(predicate.column, left, right, refs)
    sides = {predicate_side(p, left, right, refs) for p in predicate.parts}
    if sides == {"left"}:
        return "left"
    if sides == {"right"}:
        return "right"
    return "residual"


def and_of(parts: list[nodes.Predicate]) -> nodes.Predicate:
    return parts[0] if len(parts) == 1 else nodes.And(tuple(parts))


def split_join_where(
    where: Optional[nodes.Predicate],
    left: TableSchema,
    right: TableSchema,
    refs: tuple[nodes.TableRef, nodes.TableRef],
) -> tuple[
    Optional[nodes.Predicate],
    Optional[nodes.Predicate],
    Optional[nodes.Predicate],
]:
    """(left-only, right-only, residual) split of the WHERE conjuncts.

    Ambiguous or cross-side conjuncts stay residual, preserving the
    runtime "qualify it with a table name" error semantics.
    """
    if where is None:
        return None, None, None
    buckets: dict[str, list[nodes.Predicate]] = {
        "left": [], "right": [], "residual": []
    }
    for atom in nodes.conjuncts(where):
        side = predicate_side(atom, left, right, refs)
        buckets[side if side in ("left", "right") else "residual"].append(atom)
    return (
        and_of(buckets["left"]) if buckets["left"] else None,
        and_of(buckets["right"]) if buckets["right"] else None,
        and_of(buckets["residual"]) if buckets["residual"] else None,
    )


def scan_node(
    schema: TableSchema,
    predicate: Optional[nodes.Predicate],
    window: Optional[nodes.TimeWindow],
    table: nodes.TableRef,
) -> LScan:
    """An :class:`LScan` with its constraints extracted."""
    return LScan(
        table=table,
        schema=schema,
        predicate=predicate,
        constraints=extract_constraints(predicate),
        window=window,
    )


def _finish_pipeline(stmt: nodes.Select) -> tuple[PipelineNode, ...]:
    """Distinct -> Sort -> Limit, the only legal top-of-plan order."""
    pipeline: list[PipelineNode] = []
    if stmt.distinct:
        pipeline.append(LDistinct())
    if stmt.order_by is not None:
        pipeline.append(LSort(stmt.order_by.column, stmt.order_by.descending))
    if stmt.limit is not None:
        pipeline.append(LLimit(stmt.limit))
    return tuple(pipeline)


def _lower_single_table(
    stmt: nodes.Select,
    table: nodes.TableRef,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase],
) -> LogicalPlan:
    if table.source == "offchain":
        if offchain is None:
            raise CatalogError("this node has no off-chain database attached")
        if stmt.has_aggregates or stmt.group_by is not None:
            raise QueryError(
                "aggregates over off-chain tables belong in the local RDBMS "
                "- use OffChainDatabase.execute()"
            )
        columns = tuple(offchain.columns(table.name))
        source: SourceNode = LOffScan(table, columns, stmt.where)
        if stmt.where is not None:
            source = LFilter(stmt.where, source)
        pipeline: tuple[PipelineNode, ...] = (
            LProject(tuple(stmt.projection)),
        ) + _finish_pipeline(stmt)
        return LogicalPlan(source, pipeline, stmt)
    schema = catalog.get(table.name)
    source = scan_node(schema, stmt.where, stmt.window, table)
    if stmt.where is not None:
        source = LFilter(stmt.where, source)
    head: PipelineNode
    if stmt.has_aggregates or stmt.group_by is not None:
        head = LAggregate(stmt)
    else:
        head = LProject(tuple(stmt.projection))
    return LogicalPlan(source, (head,) + _finish_pipeline(stmt), stmt)


def _lower_join(
    stmt: nodes.Select,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase],
) -> LogicalPlan:
    if stmt.join_on is None:
        raise QueryError("two-table SELECT needs an ON equi-join condition")
    left_ref, right_ref = stmt.tables
    left_col, right_col = align_join_columns(stmt, left_ref, right_ref)
    onchain_count = sum(1 for t in stmt.tables if t.source == "onchain")
    if onchain_count == 0:
        raise QueryError(
            "joining two off-chain tables belongs in the local RDBMS"
        )
    if onchain_count == 2:
        left = catalog.get(left_ref.name)
        right = catalog.get(right_ref.name)
        left_pred, right_pred, residual = split_join_where(
            stmt.where, left, right, (left_ref, right_ref)
        )
        join: Union[LScan, LOffScan, LJoin] = LJoin(
            kind="onchain",
            left=scan_node(left, left_pred, stmt.window, left_ref),
            right=scan_node(right, right_pred, stmt.window, right_ref),
            left_column=left_col,
            right_column=right_col,
        )
    else:
        if offchain is None:
            raise CatalogError("this node has no off-chain database attached")
        # the on-chain side is always the IR join's left, matching the
        # physical operators' (tx, off_row) output orientation
        if left_ref.source == "onchain":
            on_ref, on_col = left_ref, left_col
            off_ref, off_col = right_ref, right_col
        else:
            on_ref, on_col = right_ref, right_col
            off_ref, off_col = left_ref, left_col
        schema = catalog.get(on_ref.name)
        off_columns = tuple(offchain.columns(off_ref.name))
        off_schema = pseudo_schema(off_ref.name, off_columns)
        on_pred, off_pred, residual = split_join_where(
            stmt.where, schema, off_schema, (on_ref, off_ref)
        )
        if off_pred is not None:
            # off-chain-side predicates stay residual (the local RDBMS is
            # authoritative for them; no on-chain I/O is saved by pushing)
            residual = (
                off_pred if residual is None
                else nodes.And((off_pred, residual))
            )
        join = LJoin(
            kind="onoff",
            left=scan_node(schema, on_pred, stmt.window, on_ref),
            right=LOffScan(off_ref, off_columns, None),
            left_column=on_col,
            right_column=off_col,
        )
    source: SourceNode = join
    if residual is not None:
        source = LFilter(residual, join)
    pipeline: tuple[PipelineNode, ...] = (
        LProject(tuple(stmt.projection)),
    ) + _finish_pipeline(stmt)
    return LogicalPlan(source, pipeline, stmt)


def lower(
    statement: nodes.Statement,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase] = None,
) -> LogicalPlan:
    """Bind a parsed read statement into the logical IR."""
    if isinstance(statement, nodes.Select):
        if len(statement.tables) == 1:
            return _lower_single_table(
                statement, statement.tables[0], catalog, offchain
            )
        if len(statement.tables) == 2:
            return _lower_join(statement, catalog, offchain)
        raise QueryError("SELECT supports one table or one two-table join")
    if isinstance(statement, nodes.Trace):
        return LogicalPlan(
            LTrace(statement.operator, statement.operation, statement.window),
            (), statement,
        )
    if isinstance(statement, nodes.GetBlock):
        return LogicalPlan(
            LBlockLookup(statement.kind, statement.value), (), statement
        )
    raise QueryError(f"cannot plan statement {type(statement).__name__}")
