"""The logical plan IR: what a read statement *means*, before physics.

The binder (:func:`lower`) turns a parsed statement into a small tree of
logical nodes - scan / filter / project / join / sort / limit / aggregate -
resolving tables against the catalog, aligning join columns, splitting
the WHERE clause into per-side pushdowns plus a residual, and resolving
every column a predicate, projection or aggregate names to a row
position.  Everything the planner and optimizer need to enumerate
physical alternatives lives here; nothing in this module knows about
access paths, operators, or I/O.

Lowering is two-step, so a statement text pays for its shape once:
:func:`lowering` does everything the text decides and returns a function
that lowers any bound copy of the statement, adding what its values
decide (the predicates' values and row tests, the range constraints, the
window, the traced or looked-up values); :func:`lower` is both steps.

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
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..common.errors import CatalogError, QueryError
from ..model.catalog import Catalog
from ..model.schema import TableSchema
from ..model.transaction import Transaction
from ..offchain.adapter import OffChainDatabase
from ..sqlparser import nodes
from .aggregates import aggregator
from .operators import (
    RangeConstraint,
    Resolver,
    RowTest,
    extract_constraints,
    offchain_resolver,
    predicate_binder,
    pseudo_schema,
    qualifier_side,
    resolve_join_side,
    row_builder,
    schema_resolver,
    side_resolver,
)

# -- IR nodes ----------------------------------------------------------------
#
# Immutable by contract.  The source nodes and the plan are built for
# every call of a statement, so they are plain slotted dataclasses: a
# frozen one pays ``object.__setattr__`` per field at construction (about
# twice the time).  The pipeline nodes are built once per statement text
# and stay frozen.


@dataclasses.dataclass(slots=True)
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
    #: ``predicate`` as a test of one transaction (None without one)
    accept: Optional[RowTest] = None


@dataclasses.dataclass(slots=True)
class LOffScan:
    """One off-chain table fetched from the participant's local RDBMS."""

    table: nodes.TableRef
    columns: tuple[str, ...]
    predicate: Optional[nodes.Predicate]


@dataclasses.dataclass(slots=True)
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


@dataclasses.dataclass(slots=True)
class LFilter:
    """A residual predicate over its child (the part no leaf absorbs)."""

    predicate: nodes.Predicate
    child: Union[LScan, LOffScan, LJoin]
    #: ``predicate`` as a test of one of the child's elements: a
    #: transaction, an off-chain ``(None, row)`` item, a joined pair
    accept: RowTest


@dataclasses.dataclass(slots=True)
class LTrace:
    """TRACE (Algorithm 1): the two system dimensions plus a window."""

    operator: Optional[str]
    operation: Optional[str]
    window: Optional[nodes.TimeWindow]


@dataclasses.dataclass(slots=True)
class LBlockLookup:
    """GET BLOCK by id / transaction id / timestamp."""

    kind: nodes.BlockLookupKind
    value: object


@dataclasses.dataclass(frozen=True)
class LProject:
    """Column projection (empty items = all columns)."""

    items: tuple[nodes.ProjectionItem, ...]
    #: a single on-chain table's output row, columns read by position
    #: (None over a join or an off-chain table: their builders pick)
    row: Optional[Callable[[Transaction], tuple[Any, ...]]] = None


@dataclasses.dataclass(frozen=True)
class LAggregate:
    """Aggregation / GROUP BY: the statement (for its projection and
    grouping) and its evaluator over the input transactions."""

    statement: nodes.Select
    evaluate: Callable[[Sequence[Transaction]], list[tuple[Any, ...]]]


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


@dataclasses.dataclass(slots=True)
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


def conjunct_sides(
    where: Optional[nodes.Predicate],
    left: TableSchema,
    right: TableSchema,
    refs: tuple[nodes.TableRef, nodes.TableRef],
) -> list[str]:
    """The join side (``left`` / ``right`` / ``residual``) of each WHERE
    conjunct: ambiguous or cross-side conjuncts stay residual, preserving
    the runtime "qualify it with a table name" error semantics."""
    sides = []
    for atom in nodes.conjuncts(where):
        side = predicate_side(atom, left, right, refs)
        sides.append(side if side in ("left", "right") else "residual")
    return sides


def split_conjuncts(
    where: Optional[nodes.Predicate], sides: list[str]
) -> tuple[
    Optional[nodes.Predicate],
    Optional[nodes.Predicate],
    Optional[nodes.Predicate],
]:
    """(left-only, right-only, residual) split of the WHERE conjuncts,
    each conjunct going to the side :func:`conjunct_sides` gave it."""
    buckets: dict[str, list[nodes.Predicate]] = {
        "left": [], "right": [], "residual": []
    }
    for atom, side in zip(nodes.conjuncts(where), sides):
        buckets[side].append(atom)
    return (
        and_of(buckets["left"]) if buckets["left"] else None,
        and_of(buckets["right"]) if buckets["right"] else None,
        and_of(buckets["residual"]) if buckets["residual"] else None,
    )


def _binder(
    predicate: Optional[nodes.Predicate], resolve: Resolver
) -> Callable[[Optional[nodes.Predicate]], Optional[RowTest]]:
    """:func:`predicate_binder`, passing a missing predicate through."""
    if predicate is None:
        return lambda _bound: None
    return predicate_binder(predicate, resolve)  # type: ignore[return-value]


def scan_node(
    schema: TableSchema,
    predicate: Optional[nodes.Predicate],
    window: Optional[nodes.TimeWindow],
    table: nodes.TableRef,
    accept: Optional[RowTest],
) -> LScan:
    """An :class:`LScan` with its constraints extracted."""
    return LScan(
        table=table,
        schema=schema,
        predicate=predicate,
        constraints=extract_constraints(predicate),
        window=window,
        accept=accept,
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


#: lowers a bound copy of one statement (its own values in the places of
#: the statement it was made from) into the logical IR
Lowering = Callable[[nodes.Statement], LogicalPlan]


def _single_table_lowering(
    stmt: nodes.Select,
    table: nodes.TableRef,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase],
) -> Lowering:
    if table.source == "offchain":
        if offchain is None:
            raise CatalogError("this node has no off-chain database attached")
        if stmt.has_aggregates or stmt.group_by is not None:
            raise QueryError(
                "aggregates over off-chain tables belong in the local RDBMS "
                "- use OffChainDatabase.execute()"
            )
        columns = tuple(offchain.columns(table.name))
        pipeline: tuple[PipelineNode, ...] = (
            LProject(tuple(stmt.projection)),
        ) + _finish_pipeline(stmt)
        if stmt.where is None:
            source = LOffScan(table, columns, None)
            return lambda s: LogicalPlan(source, pipeline, s)
        # the filter tests the scan's (None, row) items
        resolve_row = offchain_resolver(table.name, columns)

        def resolve_item(ref: nodes.ColumnRef) -> Callable[[Any], Any]:
            get = resolve_row(ref)
            return lambda item: get(item[1])
        accept = predicate_binder(stmt.where, resolve_item)

        def lower_offchain(s: nodes.Statement) -> LogicalPlan:
            assert isinstance(s, nodes.Select) and s.where is not None
            scan = LOffScan(table, columns, s.where)
            return LogicalPlan(
                LFilter(s.where, scan, accept(s.where)), pipeline, s)
        return lower_offchain
    schema = catalog.get(table.name)
    head: PipelineNode
    if stmt.has_aggregates or stmt.group_by is not None:
        head = LAggregate(stmt, aggregator(stmt, schema))
    else:
        head = LProject(
            tuple(stmt.projection), row_builder(schema, stmt.projection))
    pipeline = (head,) + _finish_pipeline(stmt)
    bind = _binder(stmt.where, schema_resolver(schema))

    def lower_select(s: nodes.Statement) -> LogicalPlan:
        assert isinstance(s, nodes.Select)
        accept = bind(s.where)
        source: SourceNode = scan_node(schema, s.where, s.window, table, accept)
        if s.where is not None:
            source = LFilter(s.where, source, accept)  # type: ignore[arg-type]
        return LogicalPlan(source, pipeline, s)
    return lower_select


def _join_lowering(
    stmt: nodes.Select,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase],
) -> Lowering:
    if stmt.join_on is None:
        raise QueryError("two-table SELECT needs an ON equi-join condition")
    left_ref, right_ref = stmt.tables
    left_col, right_col = align_join_columns(stmt, left_ref, right_ref)
    onchain_count = sum(1 for t in stmt.tables if t.source == "onchain")
    if onchain_count == 0:
        raise QueryError(
            "joining two off-chain tables belongs in the local RDBMS"
        )
    pipeline: tuple[PipelineNode, ...] = (
        LProject(tuple(stmt.projection)),
    ) + _finish_pipeline(stmt)
    if onchain_count == 2:
        left = catalog.get(left_ref.name)
        right = catalog.get(right_ref.name)
        refs = (left_ref, right_ref)
        sides = conjunct_sides(stmt.where, left, right, refs)
        left_pred, right_pred, residual = split_conjuncts(stmt.where, sides)
        bind_left = _binder(left_pred, schema_resolver(left))
        bind_right = _binder(right_pred, schema_resolver(right))
        bind_residual = _binder(residual, side_resolver(
            left, right, refs, schema_resolver(right)))

        def lower_join(s: nodes.Statement) -> LogicalPlan:
            assert isinstance(s, nodes.Select)
            left_pred, right_pred, residual = split_conjuncts(s.where, sides)
            join = LJoin(
                kind="onchain",
                left=scan_node(left, left_pred, s.window, left_ref,
                               bind_left(left_pred)),
                right=scan_node(right, right_pred, s.window, right_ref,
                                bind_right(right_pred)),
                left_column=left_col,
                right_column=right_col,
            )
            return _joined(join, residual, bind_residual, pipeline, s)
        return lower_join
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
    refs = (on_ref, off_ref)
    sides = conjunct_sides(stmt.where, schema, off_schema, refs)

    def split(where: Optional[nodes.Predicate]) -> tuple[
        Optional[nodes.Predicate], Optional[nodes.Predicate]
    ]:
        on_pred, off_pred, residual = split_conjuncts(where, sides)
        if off_pred is not None:
            # off-chain-side predicates stay residual (the local RDBMS is
            # authoritative for them; no on-chain I/O is saved by pushing)
            residual = (
                off_pred if residual is None
                else nodes.And((off_pred, residual))
            )
        return on_pred, residual

    on_pred, residual = split(stmt.where)
    bind_on = _binder(on_pred, schema_resolver(schema))
    bind_residual = _binder(residual, side_resolver(
        schema, off_schema, refs,
        offchain_resolver(off_ref.name, off_columns)))
    off_scan = LOffScan(off_ref, off_columns, None)

    def lower_onoff(s: nodes.Statement) -> LogicalPlan:
        assert isinstance(s, nodes.Select)
        on_pred, residual = split(s.where)
        join = LJoin(
            kind="onoff",
            left=scan_node(schema, on_pred, s.window, on_ref, bind_on(on_pred)),
            right=off_scan,
            left_column=on_col,
            right_column=off_col,
        )
        return _joined(join, residual, bind_residual, pipeline, s)
    return lower_onoff


def _joined(
    join: LJoin,
    residual: Optional[nodes.Predicate],
    bind_residual: Callable[[Optional[nodes.Predicate]], Optional[RowTest]],
    pipeline: tuple[PipelineNode, ...],
    statement: nodes.Statement,
) -> LogicalPlan:
    source: SourceNode = join
    if residual is not None:
        source = LFilter(residual, join, bind_residual(residual))  # type: ignore[arg-type]
    return LogicalPlan(source, pipeline, statement)


def lowering(
    statement: nodes.Statement,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase] = None,
) -> Lowering:
    """Lower a read statement as far as its text allows.

    Tables resolve against the catalog (and the off-chain database), the
    WHERE splits across a join's sides, and every column a predicate,
    projection or aggregate names resolves to a position - once.  The
    result lowers any bound copy of ``statement`` into the logical IR,
    adding only what its values decide: the predicates' values, the
    range constraints, the window, the traced or looked-up values.
    """
    if isinstance(statement, nodes.Select):
        if len(statement.tables) == 1:
            return _single_table_lowering(
                statement, statement.tables[0], catalog, offchain
            )
        if len(statement.tables) == 2:
            return _join_lowering(statement, catalog, offchain)
        raise QueryError("SELECT supports one table or one two-table join")
    if isinstance(statement, nodes.Trace):
        return lambda s: LogicalPlan(
            LTrace(s.operator, s.operation, s.window),  # type: ignore[union-attr]
            (), s,
        )
    if isinstance(statement, nodes.GetBlock):
        return lambda s: LogicalPlan(
            LBlockLookup(s.kind, s.value), (), s  # type: ignore[union-attr]
        )
    raise QueryError(f"cannot plan statement {type(statement).__name__}")


def lower(
    statement: nodes.Statement,
    catalog: Catalog,
    offchain: Optional[OffChainDatabase] = None,
) -> LogicalPlan:
    """Bind a parsed read statement into the logical IR."""
    return lowering(statement, catalog, offchain)(statement)
