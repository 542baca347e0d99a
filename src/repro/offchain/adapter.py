"""Off-chain RDBMS adapter.

The paper stores off-chain (private) data in a local commercial RDBMS and
reaches it "via an interface (ODBC, JDBC, etc.)".  We model that interface
as a thin adapter over any DB-API 2.0 connection; the default backend is
the standard library's sqlite3, which exercises the identical on/off-chain
join code path as MySQL would.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from ..common.errors import CatalogError, QueryError


class OffChainDatabase:
    """A local relational store for each participant's private data."""

    def __init__(self, path: Optional[Path | str] = None) -> None:
        self._conn = sqlite3.connect(str(path) if path else ":memory:")
        self._conn.row_factory = sqlite3.Row
        #: counts table creations: a query plan memoised per statement
        #: text (which read the tables' columns) holds only while unchanged
        self.version = 0

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "OffChainDatabase":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- DDL / DML -----------------------------------------------------------

    _TYPE_MAP = {
        "string": "TEXT", "varchar": "TEXT", "text": "TEXT",
        "int": "INTEGER", "integer": "INTEGER", "bigint": "INTEGER",
        "decimal": "REAL", "float": "REAL", "double": "REAL", "numeric": "REAL",
        "timestamp": "INTEGER", "bool": "INTEGER", "boolean": "INTEGER",
        "bytes": "BLOB", "blob": "BLOB",
    }

    def create_table(self, name: str, columns: Sequence[tuple[str, str]]) -> None:
        """Create an off-chain table from (name, sebdb-type) pairs."""
        if not columns:
            raise CatalogError(f"off-chain table {name!r} needs columns")
        defs = []
        for cname, ctype in columns:
            sql_type = self._TYPE_MAP.get(ctype.lower())
            if sql_type is None:
                raise CatalogError(f"unsupported off-chain column type {ctype!r}")
            defs.append(f"{_q(cname)} {sql_type}")
        self._conn.execute(
            f"CREATE TABLE IF NOT EXISTS {_q(name)} ({', '.join(defs)})"
        )
        self._conn.commit()
        self.version += 1

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        rows = list(rows)
        if not rows:
            return 0
        width = len(rows[0])
        marks = ", ".join("?" * width)
        cursor = self._conn.executemany(
            f"INSERT INTO {_q(table)} VALUES ({marks})", rows
        )
        self._conn.commit()
        return cursor.rowcount if cursor.rowcount >= 0 else len(rows)

    # -- queries the join bridge needs -----------------------------------------

    def columns(self, table: str) -> list[str]:
        rows = self._conn.execute(f"PRAGMA table_info({_q(table)})").fetchall()
        if not rows:
            raise CatalogError(f"off-chain table {table!r} does not exist")
        return [row["name"] for row in rows]

    def has_table(self, table: str) -> bool:
        row = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
            (table,),
        ).fetchone()
        return row is not None

    def fetch_all(self, table: str) -> list[tuple[Any, ...]]:
        return [tuple(r) for r in self._conn.execute(f"SELECT * FROM {_q(table)}")]

    def fetch_sorted(self, table: str, column: str) -> list[tuple[Any, ...]]:
        """All rows ordered by the join attribute (Algorithm 3 wants the
        off-chain side sorted so each block join is a sort-merge)."""
        return [
            tuple(r)
            for r in self._conn.execute(
                f"SELECT * FROM {_q(table)} ORDER BY {_q(column)}"
            )
        ]

    def min_max(self, table: str, column: str) -> tuple[Any, Any]:
        """(min, max) of the join attribute - lines 3-4 of Algorithm 3."""
        row = self._conn.execute(
            f"SELECT MIN({_q(column)}), MAX({_q(column)}) FROM {_q(table)}"
        ).fetchone()
        return row[0], row[1]

    def distinct_values(self, table: str, column: str) -> list[Any]:
        """Unique join-attribute values (discrete-attribute path of Alg 3)."""
        return [
            row[0]
            for row in self._conn.execute(
                f"SELECT DISTINCT {_q(column)} FROM {_q(table)} "
                f"ORDER BY {_q(column)}"
            )
        ]

    def count(self, table: str) -> int:
        return self._conn.execute(f"SELECT COUNT(*) FROM {_q(table)}").fetchone()[0]

    def execute(self, sql: str, params: Sequence[Any] = ()) -> list[tuple[Any, ...]]:
        """Escape hatch for raw (read-only) SQL against off-chain data."""
        lowered = sql.lstrip().lower()
        if not lowered.startswith("select"):
            raise QueryError("raw off-chain execute() is read-only")
        return [tuple(r) for r in self._conn.execute(sql, tuple(params))]


def _q(identifier: str) -> str:
    """Quote an identifier, refusing anything that needs escaping."""
    if not identifier.replace("_", "").isalnum():
        raise CatalogError(f"invalid identifier {identifier!r}")
    return f'"{identifier}"'
