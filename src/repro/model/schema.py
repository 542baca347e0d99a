"""Table schemas.

Each transaction type is a relation.  A schema is the ordered list of its
columns; *system-level* columns (``Tid``, ``Ts``, ``Sig``, ``SenID``,
``Tname``) are prepended automatically, *application-level* columns come
from the user's CREATE statement, exactly as described in section III-A of
the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

from ..common.codec import Reader, Writer
from ..common.errors import SchemaError
from .types import ColumnType


@dataclasses.dataclass(frozen=True)
class Column:
    """One column: name plus declared type."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


#: System-level columns automatically present on every on-chain table,
#: in storage order.  ``Tid`` is the global transaction sequence number,
#: ``Ts`` the send timestamp (ms), ``Sig`` the sender's Schnorr signature,
#: ``SenID`` the sender address, ``Tname`` the transaction type (= table).
SYSTEM_COLUMNS: tuple[Column, ...] = (
    Column("tid", ColumnType.INT),
    Column("ts", ColumnType.TIMESTAMP),
    Column("sig", ColumnType.BYTES),
    Column("senid", ColumnType.STRING),
    Column("tname", ColumnType.STRING),
)

SYSTEM_COLUMN_NAMES = tuple(col.name for col in SYSTEM_COLUMNS)


@dataclasses.dataclass(frozen=True)
class TableSchema:
    """Schema of one on-chain table (= transaction type)."""

    name: str
    app_columns: tuple[Column, ...]
    #: :attr:`column_names` and their positions in :attr:`all_columns`,
    #: built once
    _names: tuple[str, ...] = dataclasses.field(
        init=False, repr=False, compare=False)
    _positions: dict[str, int] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name {self.name!r}")
        seen = set(SYSTEM_COLUMN_NAMES)
        for col in self.app_columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise SchemaError(
                    f"duplicate or reserved column {col.name!r} in table {self.name!r}"
                )
            seen.add(lowered)
        names = tuple(col.name for col in self.all_columns)
        positions: dict[str, int] = {}
        for i, name in enumerate(names):
            positions.setdefault(name, i)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def create(
        cls, name: str, columns: Iterable[tuple[str, str | ColumnType]]
    ) -> "TableSchema":
        """Build a schema from (name, type) pairs.

        >>> TableSchema.create("donate", [("donor", "string"),
        ...                               ("project", "string"),
        ...                               ("amount", "decimal")])
        ... # doctest: +ELLIPSIS
        TableSchema(...)
        """
        cols = []
        for cname, ctype in columns:
            resolved = (
                ctype if isinstance(ctype, ColumnType) else ColumnType.from_name(ctype)
            )
            cols.append(Column(cname.lower(), resolved))
        return cls(name=name.lower(), app_columns=tuple(cols))

    @property
    def all_columns(self) -> tuple[Column, ...]:
        """System columns followed by application columns."""
        return SYSTEM_COLUMNS + self.app_columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._names

    def column_index(self, name: str) -> int:
        """Position of ``name`` within :attr:`all_columns`."""
        position = self._positions.get(name.lower())
        if position is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return position

    def column_type(self, name: str) -> ColumnType:
        return self.all_columns[self.column_index(name)].ctype

    def has_column(self, name: str) -> bool:
        return name.lower() in self._positions

    def validate_app_values(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate application-level values for an INSERT."""
        if len(values) != len(self.app_columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.app_columns)} values, "
                f"got {len(values)}"
            )
        return tuple(
            col.ctype.validate(value, col.name)
            for col, value in zip(self.app_columns, values)
        )

    # -- wire format (schemas are synchronized via special transactions) --

    def to_bytes(self) -> bytes:
        writer = Writer()
        writer.write_str(self.name)
        writer.write_varint(len(self.app_columns))
        for col in self.app_columns:
            writer.write_str(col.name)
            writer.write_str(col.ctype.value)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TableSchema":
        reader = Reader(data)
        name = reader.read_str()
        count = reader.read_varint()
        columns = []
        for _ in range(count):
            cname = reader.read_str()
            ctype = ColumnType(reader.read_str())
            columns.append(Column(cname, ctype))
        return cls(name=name, app_columns=tuple(columns))
