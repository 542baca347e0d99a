"""Aggregates and grouping - the query-language enrichment the paper
lists as future work ("we will continue to enrich query language").

Supports ``COUNT(*)``, ``COUNT(col)``, ``SUM``, ``AVG``, ``MIN``, ``MAX``,
optionally grouped by one column::

    SELECT COUNT(*) FROM donate
    SELECT donor, SUM(amount) FROM donate GROUP BY donor

NULLs are ignored by every aggregate except ``COUNT(*)``, following SQL
semantics.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..common.errors import QueryError
from ..model.schema import TableSchema
from ..model.transaction import Transaction
from ..sqlparser.nodes import Aggregate, ColumnRef, Select
from .operators import tx_value


def compute_aggregate(func: str, values: Sequence[Any]) -> Any:
    """Evaluate one aggregate over already-NULL-filtered values."""
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "avg":
        return sum(values) / len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    raise QueryError(f"unknown aggregate {func!r}")  # pragma: no cover


def _aggregate_over(
    item: Aggregate, schema: TableSchema, txs: Sequence[Transaction]
) -> Any:
    if item.column is None:  # COUNT(*)
        return len(txs)
    values = [
        v for v in (tx_value(tx, item.column.column, schema) for tx in txs)
        if v is not None
    ]
    return compute_aggregate(item.func, values)


def aggregate_columns(stmt: Select) -> tuple[str, ...]:
    """Validate and name an aggregate projection (usable at plan time)."""
    if not stmt.projection:
        raise QueryError("aggregate queries need an explicit projection")
    group_col: Optional[ColumnRef] = stmt.group_by
    # validate: plain columns are only allowed when they ARE the group key
    for item in stmt.projection:
        if isinstance(item, Aggregate):
            continue
        if group_col is None or item.column != group_col.column:
            raise QueryError(
                f"column {item.column!r} must appear in GROUP BY or be "
                f"wrapped in an aggregate"
            )
    return tuple(
        item.label if isinstance(item, Aggregate) else item.column
        for item in stmt.projection
    )


def aggregate_rows(
    stmt: Select, schema: TableSchema, txs: Sequence[Transaction]
) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
    """Materialize an aggregated (optionally grouped) result."""
    columns = aggregate_columns(stmt)
    group_col: Optional[ColumnRef] = stmt.group_by
    if group_col is None:
        row = tuple(
            _aggregate_over(item, schema, txs) for item in stmt.projection
            if isinstance(item, Aggregate)
        )
        return columns, [row]
    # grouped: one output row per distinct group key, in key order
    groups: dict[Any, list[Transaction]] = {}
    for tx in txs:
        key = tx_value(tx, group_col.column, schema)
        groups.setdefault(key, []).append(tx)
    rows: list[tuple[Any, ...]] = []
    for key in sorted(groups, key=lambda k: (k is None, k)):
        member_txs = groups[key]
        row = tuple(
            key if not isinstance(item, Aggregate)
            else _aggregate_over(item, schema, member_txs)
            for item in stmt.projection
        )
        rows.append(row)
    return columns, rows


def resolve_order_index(columns: tuple[str, ...], column: ColumnRef) -> int:
    """Position of an ORDER BY column within the output columns."""
    for candidate in (str(column), column.column):
        if candidate in columns:
            return columns.index(candidate)
    # qualified output columns like "donate.amount" match bare refs
    for i, name in enumerate(columns):
        if name.rsplit(".", 1)[-1] == column.column:
            return i
    raise QueryError(
        f"ORDER BY column {column.column!r} is not in the output"
    )
