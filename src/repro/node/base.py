"""The SQL front both node flavours share.

:class:`~repro.node.fullnode.FullNode` and
:class:`~repro.shard.node.ShardedNode` differ in where a transaction goes
(one consensus engine / the home shard's) and in how a read is planned
(one engine / a routed fan-out), not in how SQL becomes either.  This
base turns CREATE and INSERT into transactions handed to the subclass's
``submit_transaction`` and parses, binds and access-checks reads before
the subclass's ``query`` plans them.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..common.clock import Clock
from ..common.errors import CatalogError, QueryError
from ..consensus.base import ReplyCallback
from ..crypto.keys import KeyPair
from ..model.catalog import Catalog
from ..model.schema import TableSchema
from ..model.transaction import Transaction, schema_sync_transaction
from ..query.engine import MethodArg
from ..query.result import QueryResult
from ..sqlparser import nodes
from ..sqlparser.parser import parse, prepare
from .access import AccessController


class SqlNode:
    """CREATE / INSERT / read-statement handling over a node's
    ``catalog``, ``clock``, ``keypair`` and ``access`` attributes."""

    catalog: Catalog
    clock: Clock
    keypair: KeyPair
    access: Optional[AccessController]

    def submit_transaction(
        self, tx: Transaction, on_reply: Optional[ReplyCallback] = None
    ) -> None:
        raise NotImplementedError

    def query(
        self,
        sql: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        channel_member: Optional[str] = None,
    ) -> QueryResult:
        raise NotImplementedError

    def create_table(
        self,
        schema_or_sql: Union[TableSchema, str],
        keypair: Optional[KeyPair] = None,
    ) -> TableSchema:
        """CREATE: replicate a schema through a special transaction."""
        if isinstance(schema_or_sql, str):
            stmt = parse(schema_or_sql)
            if not isinstance(stmt, nodes.CreateTable):
                raise QueryError("create_table expects a CREATE statement")
            schema = TableSchema.create(stmt.table, stmt.columns)
        else:
            schema = schema_or_sql
        if schema.name in self.catalog:
            raise CatalogError(f"table {schema.name!r} already exists")
        tx = schema_sync_transaction(
            schema, ts=int(self.clock.now_ms()), keypair=keypair or self.keypair
        )
        self.submit_transaction(tx)
        return schema

    def insert(
        self,
        table: str,
        values: Sequence[Any],
        keypair: Optional[KeyPair] = None,
        sender: Optional[str] = None,
        ts: Optional[int] = None,
    ) -> Transaction:
        """INSERT: validate against the schema, sign, submit."""
        schema = self.catalog.get(table)
        validated = schema.validate_app_values(tuple(values))
        tx = Transaction.create(
            schema.name,
            validated,
            ts=ts if ts is not None else int(self.clock.now_ms()),
            keypair=keypair,
            sender=sender if keypair is None else None,
        )
        self.submit_transaction(tx)
        return tx

    def execute(
        self,
        sql: str,
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        keypair: Optional[KeyPair] = None,
        sender: Optional[str] = None,
    ) -> Optional[QueryResult]:
        """One-stop SQL entry point: routes writes to consensus, reads to
        :meth:`query`.  Returns ``None`` for writes (they commit async)."""
        if not isinstance(parse(sql), (nodes.CreateTable, nodes.Insert)):
            # a read binds its values where it is planned
            return self.query(sql, params, method=method)
        statement = prepare(sql, params)
        if isinstance(statement, nodes.CreateTable):
            self.create_table(sql, keypair=keypair)
            return None
        assert isinstance(statement, nodes.Insert)
        self.insert(
            statement.table, statement.values, keypair=keypair, sender=sender
        )
        return None

    def _read_statement(
        self,
        sql: Union[str, nodes.Statement],
        params: tuple[Any, ...],
        channel_member: Optional[str],
    ) -> nodes.Statement:
        """Parse and bind a read, and check the member may read its tables."""
        statement = prepare(sql, params)
        if self.access is not None and channel_member is not None:
            for table in _tables_of(statement):
                self.access.check_read(channel_member, table)
        return statement


def _tables_of(statement: nodes.Statement) -> list[str]:
    if isinstance(statement, nodes.Explain):
        return _tables_of(statement.statement)
    if isinstance(statement, nodes.Select):
        return [t.name for t in statement.tables]
    if isinstance(statement, nodes.Trace):
        return [statement.operation] if statement.operation else []
    return []
