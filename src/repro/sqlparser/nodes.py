"""AST nodes of the SQL-like language.

One dataclass per statement kind, plus a small predicate algebra.  The
planner (:mod:`repro.query.plan`) consumes these directly.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional, Union


class Placeholder:
    """A ``?`` awaiting a bind parameter."""

    _instance: Optional["Placeholder"] = None

    def __new__(cls) -> "Placeholder":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"


PLACEHOLDER = Placeholder()

Value = Any  # literal, or PLACEHOLDER before binding


# -- predicates ---------------------------------------------------------------


class CompareOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def evaluate(self, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if self is CompareOp.LT:
            return left < right
        if self is CompareOp.LE:
            return left <= right
        if self is CompareOp.GT:
            return left > right
        return left >= right


@dataclasses.dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference, e.g. ``transfer.amount``."""

    column: str
    table: Optional[str] = None
    source: Optional[str] = None  # "onchain" / "offchain" / None

    def __str__(self) -> str:
        parts = [p for p in (self.source, self.table, self.column) if p]
        return ".".join(parts)


@dataclasses.dataclass(frozen=True)
class Comparison:
    column: ColumnRef
    op: CompareOp
    value: Value


@dataclasses.dataclass(frozen=True)
class Between:
    column: ColumnRef
    low: Value
    high: Value


@dataclasses.dataclass(frozen=True)
class And:
    parts: tuple["Predicate", ...]


@dataclasses.dataclass(frozen=True)
class Or:
    parts: tuple["Predicate", ...]


Predicate = Union[Comparison, Between, And, Or]


def predicate_text(predicate: Optional[Predicate]) -> str:
    """Render a predicate tree back to compact SQL-ish text (EXPLAIN)."""
    if predicate is None:
        return ""
    if isinstance(predicate, Comparison):
        return f"{predicate.column} {predicate.op.value} {predicate.value!r}"
    if isinstance(predicate, Between):
        return (f"{predicate.column} BETWEEN {predicate.low!r} "
                f"AND {predicate.high!r}")
    if isinstance(predicate, And):
        return " AND ".join(
            f"({predicate_text(p)})" if isinstance(p, Or) else predicate_text(p)
            for p in predicate.parts
        )
    if isinstance(predicate, Or):
        return " OR ".join(predicate_text(p) for p in predicate.parts)
    return repr(predicate)


def conjuncts(predicate: Optional[Predicate]) -> list[Predicate]:
    """Flatten a conjunctive predicate into its atoms.

    Returns ``[predicate]`` unchanged for OR trees (the planner then falls
    back to filter-after-scan for those).
    """
    if predicate is None:
        return []
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(conjuncts(part))
        return out
    return [predicate]


# -- statements ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TimeWindow:
    """Inclusive [start, end] window on block/transaction timestamps."""

    start: Value = None
    end: Value = None

    @property
    def is_open(self) -> bool:
        return self.start is None and self.end is None


@dataclasses.dataclass(frozen=True)
class TableRef:
    """A table in FROM: name plus on-/off-chain qualifier."""

    name: str
    source: str = "onchain"  # "onchain" | "offchain"
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        return self.alias or self.name


AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclasses.dataclass(frozen=True)
class Aggregate:
    """An aggregate projection item, e.g. ``SUM(amount)`` or ``COUNT(*)``.

    ``column`` is ``None`` for ``COUNT(*)``.
    """

    func: str
    column: Optional[ColumnRef] = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate {self.func!r}")
        if self.column is None and self.func != "count":
            raise ValueError(f"{self.func.upper()} requires a column")

    @property
    def label(self) -> str:
        inner = str(self.column) if self.column else "*"
        return f"{self.func}({inner})"


@dataclasses.dataclass(frozen=True)
class OrderBy:
    """ORDER BY <column> [ASC|DESC]."""

    column: ColumnRef
    descending: bool = False


ProjectionItem = Union[ColumnRef, Aggregate]


@dataclasses.dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple[tuple[str, str], ...]  # (name, type-name)


@dataclasses.dataclass(frozen=True)
class Insert:
    table: str
    values: tuple[Value, ...]


@dataclasses.dataclass(frozen=True)
class Select:
    """SELECT with optional join, aggregates, grouping and time window."""

    projection: tuple[ProjectionItem, ...]  # empty tuple means *
    tables: tuple[TableRef, ...]
    join_on: Optional[tuple[ColumnRef, ColumnRef]] = None
    where: Optional[Predicate] = None
    group_by: Optional[ColumnRef] = None
    order_by: Optional[OrderBy] = None
    window: Optional[TimeWindow] = None
    limit: Optional[int] = None
    distinct: bool = False

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(p, Aggregate) for p in self.projection)


@dataclasses.dataclass(frozen=True)
class Trace:
    """TRACE [start, end] OPERATOR = x, OPERATION = y (either optional)."""

    operator: Value = None
    operation: Value = None
    window: Optional[TimeWindow] = None


class BlockLookupKind(enum.Enum):
    BY_ID = "id"
    BY_TID = "tid"
    BY_TS = "ts"


@dataclasses.dataclass(frozen=True)
class GetBlock:
    kind: BlockLookupKind
    value: Value


@dataclasses.dataclass(frozen=True)
class Explain:
    """EXPLAIN [ANALYZE] <read statement>.

    Plain EXPLAIN renders the physical plan tree with the planner's
    estimates; ANALYZE executes the statement and annotates every
    operator with its observed rows, I/O and timings.
    """

    statement: "Statement"
    analyze: bool = False


Statement = Union[CreateTable, Insert, Select, Trace, GetBlock, Explain]
