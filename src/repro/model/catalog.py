"""The on-chain catalog.

Table schemas are themselves replicated through the chain: a CREATE turns
into a special ``__schema__`` transaction, and every node that applies the
block registers the schema here.  The catalog therefore converges on all
nodes exactly like ordinary data does.
"""

from __future__ import annotations

from typing import Iterable

from ..common.errors import CatalogError
from .schema import TableSchema
from .transaction import SCHEMA_TNAME, Transaction, schema_from_sync_transaction


class Catalog:
    """Registry of on-chain table schemas for one node."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        #: counts registrations: a query plan memoised per statement text
        #: holds only while it is unchanged
        self.version = 0

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def register(self, schema: TableSchema, replace: bool = False) -> None:
        if not replace and schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[schema.name] = schema
        self.version += 1

    def get(self, name: str) -> TableSchema:
        lowered = name.lower()
        if lowered == SCHEMA_TNAME:
            raise CatalogError("the schema table is internal")
        if lowered not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        return self._tables[lowered]

    def apply_transactions(self, txs: Iterable[Transaction]) -> list[TableSchema]:
        """Register the schema of every schema-sync transaction in ``txs``
        not registered yet; other transactions are skipped."""
        registered = []
        for tx in txs:
            if tx.tname == SCHEMA_TNAME:
                schema = schema_from_sync_transaction(tx)
                if schema.name not in self._tables:
                    self._tables[schema.name] = schema
                    registered.append(schema)
                    self.version += 1
        return registered
