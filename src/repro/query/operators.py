"""Row-level operators: predicate evaluation, projection, constraints.

These are the relational primitives section V re-implements over the
blockchain storage pattern - the physical access paths and join
algorithms that evaluate them are the operators of :mod:`physical`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence

from ..common.errors import QueryError
from ..model.schema import TableSchema
from ..model.transaction import Transaction
from ..sqlparser.nodes import (
    And,
    Between,
    ColumnRef,
    Comparison,
    CompareOp,
    Or,
    Predicate,
    TableRef,
    conjuncts,
)


def tx_value(tx: Transaction, column: str, schema: TableSchema) -> Any:
    """Value of ``column`` for ``tx`` under ``schema``."""
    return tx.get(column, schema)


def predicate_matches(tx: Transaction, predicate: Optional[Predicate],
                      schema: TableSchema) -> bool:
    """Evaluate a predicate tree against one transaction."""
    if predicate is None:
        return True
    if isinstance(predicate, Comparison):
        left = tx_value(tx, predicate.column.column, schema)
        return predicate.op.evaluate(left, predicate.value)
    if isinstance(predicate, Between):
        left = tx_value(tx, predicate.column.column, schema)
        if left is None:
            return False
        return predicate.low <= left <= predicate.high
    if isinstance(predicate, And):
        return all(predicate_matches(tx, p, schema) for p in predicate.parts)
    if isinstance(predicate, Or):
        return any(predicate_matches(tx, p, schema) for p in predicate.parts)
    raise QueryError(f"unsupported predicate node {type(predicate).__name__}")


@dataclasses.dataclass
class RangeConstraint:
    """The tightest [low, high] range a conjunction implies on one column.

    ``low``/``high`` are inclusive bounds; ``None`` means open.  Strict
    comparisons are kept as residual predicates - the index range is a
    superset, residual filtering keeps semantics exact.
    """

    column: str
    low: Any = None
    high: Any = None

    @property
    def is_equality(self) -> bool:
        return self.low is not None and self.low == self.high

    def tighten_low(self, value: Any) -> None:
        if self.low is None or value > self.low:
            self.low = value

    def tighten_high(self, value: Any) -> None:
        if self.high is None or value < self.high:
            self.high = value


def extract_constraints(predicate: Optional[Predicate]) -> dict[str, RangeConstraint]:
    """Per-column range constraints implied by the conjunctive part.

    OR-trees contribute nothing (the caller falls back to scan+filter).
    """
    constraints: dict[str, RangeConstraint] = {}
    for atom in conjuncts(predicate):
        if isinstance(atom, Or):
            continue
        if isinstance(atom, Between):
            constraint = constraints.setdefault(
                atom.column.column, RangeConstraint(atom.column.column)
            )
            constraint.tighten_low(atom.low)
            constraint.tighten_high(atom.high)
        elif isinstance(atom, Comparison):
            constraint = constraints.setdefault(
                atom.column.column, RangeConstraint(atom.column.column)
            )
            if atom.op is CompareOp.EQ:
                constraint.tighten_low(atom.value)
                constraint.tighten_high(atom.value)
            elif atom.op in (CompareOp.LT, CompareOp.LE):
                constraint.tighten_high(atom.value)
            elif atom.op in (CompareOp.GT, CompareOp.GE):
                constraint.tighten_low(atom.value)
            # NE gives no usable range
    return constraints


def pair_matches(
    predicate: Predicate,
    ltx: Transaction,
    lschema: TableSchema,
    rtx: Transaction,
    rschema: TableSchema,
    refs: tuple[TableRef, TableRef],
) -> bool:
    """Evaluate a residual WHERE over a joined (left, right) pair.

    Columns resolve by qualifier first (:func:`qualifier_side` over the
    join's two FROM entries ``refs``), then by which side declares the
    name; a name both sides declare must be qualified (system columns
    default to the left/on-chain side).
    """
    if isinstance(predicate, And):
        return all(
            pair_matches(p, ltx, lschema, rtx, rschema, refs)
            for p in predicate.parts
        )
    if isinstance(predicate, Or):
        return any(
            pair_matches(p, ltx, lschema, rtx, rschema, refs)
            for p in predicate.parts
        )
    column = predicate.column  # Comparison | Between
    side = resolve_join_side(column, lschema, rschema, refs)
    if side == "residual":
        raise QueryError(
            f"ambiguous column {column.column!r} in join WHERE - "
            f"qualify it with a table alias or name"
        )
    if side == "none":
        raise QueryError(
            f"neither join side has column {column.column!r}"
        )
    tx, schema = (ltx, lschema) if side == "left" else (rtx, rschema)
    return predicate_matches(tx, predicate, schema)


def qualifier_side(
    qualifier: Optional[str], left: TableRef, right: TableRef
) -> Optional[int]:
    """The join side (0 left, 1 right) a column qualifier names: an alias
    first, then a table name.  ``None`` when it names neither side or
    both (a self-join qualified by its table name)."""
    if qualifier is not None:
        for lname, rname in ((left.alias, right.alias), (left.name, right.name)):
            if qualifier == lname != rname:
                return 0
            if qualifier == rname != lname:
                return 1
    return None


def resolve_join_side(
    column: ColumnRef,
    lschema: TableSchema,
    rschema: TableSchema,
    refs: tuple[TableRef, TableRef],
) -> str:
    """Which join side a column reference belongs to.

    Returns ``"left"``, ``"right"``, ``"residual"`` (ambiguous
    application column - must stay a runtime error so empty joins don't
    start failing at plan time) or ``"none"``.
    """
    from ..model.schema import SYSTEM_COLUMN_NAMES

    side = qualifier_side(column.table, *refs)
    if side is not None and (lschema, rschema)[side].has_column(column.column):
        return ("left", "right")[side]
    if lschema.has_column(column.column) and rschema.has_column(column.column):
        return "left" if column.column in SYSTEM_COLUMN_NAMES else "residual"
    if lschema.has_column(column.column):
        return "left"
    if rschema.has_column(column.column):
        return "right"
    return "none"


def pseudo_schema(name: str, columns: Sequence[str]) -> TableSchema:
    """A throwaway schema so off-chain rows can reuse predicate evaluation."""
    return TableSchema.create(name, [(c, "string") for c in columns])


def pseudo_tx(name: str, columns: Sequence[str], row: Sequence[Any]) -> Transaction:
    return Transaction(ts=0, senid="", tname=name, values=tuple(row))


def project(
    tx: Transaction,
    schema: TableSchema,
    projection: Sequence[ColumnRef],
) -> tuple[Any, ...]:
    """Row for ``tx``: all columns when projection is empty, else listed."""
    if not projection:
        return tx.row()
    return tuple(tx_value(tx, ref.column, schema) for ref in projection)


def projected_columns(
    schema: TableSchema, projection: Sequence[ColumnRef]
) -> tuple[str, ...]:
    if not projection:
        return schema.column_names
    return tuple(ref.column for ref in projection)
