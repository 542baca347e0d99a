"""Row-level operators: predicate evaluation, projection, constraints.

These are the relational primitives section V re-implements over the
blockchain storage pattern - the physical access paths and join
algorithms that evaluate them are the operators of :mod:`physical`.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Optional, Sequence

from ..common.errors import QueryError
from ..model.schema import SYSTEM_COLUMN_NAMES, TableSchema
from ..model.transaction import Transaction, column_getter
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


# -- predicates compiled to column positions --------------------------------
#
# The functions below resolve every column a predicate or projection names
# once, to a getter that reads it off a row by position, so evaluating a
# row never looks a name up.  They agree with :func:`predicate_matches`
# and :func:`project` row for row, errors included: a column no side
# declares resolves to a getter that fails, when a row reaches it, the way
# the name lookup fails (so a statement over no rows still succeeds).

#: one element of an operator's stream -> whether a predicate keeps it
RowTest = Callable[[Any], bool]
#: reads one column's value off an element
Getter = Callable[[Any], Any]
#: resolves a column reference to its getter
Resolver = Callable[[ColumnRef], Getter]

_COMPARE: dict[CompareOp, Callable[[Any, Any], Any]] = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}


def schema_resolver(schema: TableSchema) -> Resolver:
    """Columns of ``schema`` read off a transaction by position."""
    def resolve(ref: ColumnRef) -> Getter:
        name = ref.column
        if not schema.has_column(name):
            return lambda _tx: schema.column_index(name)  # raises SchemaError
        return column_getter(schema.column_index(name))
    return resolve


def offchain_resolver(name: str, columns: Sequence[str]) -> Resolver:
    """Columns of an off-chain row, as :func:`pseudo_tx` under
    :func:`pseudo_schema` would read them: a system column is the pseudo
    transaction's constant, any other the row's value at its position."""
    schema = pseudo_schema(name, columns)
    pseudo = pseudo_tx(name, columns, ())
    resolve_tx = schema_resolver(schema)

    def resolve(ref: ColumnRef) -> Getter:
        if not schema.has_column(ref.column):
            return resolve_tx(ref)
        position = schema.column_index(ref.column)
        if position < len(SYSTEM_COLUMN_NAMES):
            value = getattr(pseudo, SYSTEM_COLUMN_NAMES[position])
            return lambda _row: value
        index = position - len(SYSTEM_COLUMN_NAMES)
        return lambda row: row[index]
    return resolve


def side_resolver(
    lschema: TableSchema,
    rschema: TableSchema,
    refs: tuple[TableRef, TableRef],
    right: Resolver,
) -> Resolver:
    """Columns of a joined ``(left, right)`` pair, each resolved to its
    side by qualifier first (:func:`qualifier_side` over the join's two
    FROM entries ``refs``), then by which side declares the name; a name
    both sides declare must be qualified (system columns default to the
    left/on-chain side).  ``right`` reads the right element (a
    transaction, or an off-chain row)."""
    left = schema_resolver(lschema)

    def resolve(ref: ColumnRef) -> Getter:
        side = resolve_join_side(ref, lschema, rschema, refs)
        if side == "left":
            get = left(ref)
            return lambda pair: get(pair[0])
        if side == "right":
            get = right(ref)
            return lambda pair: get(pair[1])
        if side == "residual":
            message = (f"ambiguous column {ref.column!r} in join WHERE - "
                       f"qualify it with a table alias or name")
        else:
            message = f"neither join side has column {ref.column!r}"

        def fail(_pair: Any) -> Any:
            raise QueryError(message)
        return fail
    return resolve


def predicate_binder(
    predicate: Predicate, resolve: Resolver
) -> Callable[[Predicate], RowTest]:
    """Resolve ``predicate``'s columns once; the result turns any bound
    copy of it (the same tree with its own values) into a row test."""
    if isinstance(predicate, Comparison):
        get, compare = resolve(predicate.column), _COMPARE[predicate.op]

        def bind_comparison(bound: Predicate) -> RowTest:
            value = bound.value  # type: ignore[union-attr]

            def accept(row: Any) -> bool:
                left = get(row)
                return left is not None and value is not None and compare(left, value)
            return accept
        return bind_comparison
    if isinstance(predicate, Between):
        get = resolve(predicate.column)

        def bind_between(bound: Predicate) -> RowTest:
            low, high = bound.low, bound.high  # type: ignore[union-attr]

            def accept(row: Any) -> bool:
                left = get(row)
                if left is None:
                    return False
                return low <= left <= high
            return accept
        return bind_between
    if isinstance(predicate, And):
        binders = [predicate_binder(part, resolve) for part in predicate.parts]

        def bind_and(bound: Predicate) -> RowTest:
            tests = [b(part) for b, part in zip(binders, bound.parts)]  # type: ignore[union-attr]

            def accept(row: Any) -> bool:
                for test in tests:
                    if not test(row):
                        return False
                return True
            return accept
        return bind_and
    if isinstance(predicate, Or):
        binders = [predicate_binder(part, resolve) for part in predicate.parts]

        def bind_or(bound: Predicate) -> RowTest:
            tests = [b(part) for b, part in zip(binders, bound.parts)]  # type: ignore[union-attr]

            def accept(row: Any) -> bool:
                for test in tests:
                    if test(row):
                        return True
                return False
            return accept
        return bind_or
    kind = type(predicate).__name__

    def bind_unsupported(_bound: Predicate) -> RowTest:
        def accept(_row: Any) -> bool:
            raise QueryError(f"unsupported predicate node {kind}")
        return accept
    return bind_unsupported


def row_builder(
    schema: TableSchema, projection: Sequence[ColumnRef]
) -> Callable[[Transaction], tuple[Any, ...]]:
    """:func:`project` for one projection, its columns resolved once."""
    if not projection:
        return Transaction.row
    getters = [schema_resolver(schema)(ref) for ref in projection]
    return lambda tx: tuple([get(tx) for get in getters])


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
