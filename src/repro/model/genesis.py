"""Genesis block construction.

The genesis block (height 0) anchors the chain: its ``prev_hash`` is all
zeroes and it may carry initial schema-synchronization transactions so a
fresh network boots with its catalog already agreed on.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .block import GENESIS_PREV_HASH, Block
from .schema import TableSchema
from .transaction import Transaction, schema_sync_transaction


def make_genesis(
    timestamp: int = 0,
    schemas: Optional[Sequence[TableSchema]] = None,
) -> Block:
    """Build the genesis block, optionally pre-loading table schemas."""
    txs: list[Transaction] = []
    for i, schema in enumerate(schemas or ()):
        tx = schema_sync_transaction(schema, ts=timestamp)
        txs.append(tx.with_tid(i))
    return Block.package(
        prev_hash=GENESIS_PREV_HASH,
        height=0,
        timestamp=timestamp,
        transactions=txs,
        packager="genesis",
    )


def verify_chain(blocks: Iterable[Block]) -> bool:
    """Validate hash-chaining and Merkle roots over consecutive blocks."""
    prev_hash = GENESIS_PREV_HASH
    expected_height = 0
    for block in blocks:
        if block.header.prev_hash != prev_hash:
            return False
        if block.header.height != expected_height:
            return False
        if not block.verify_trans_root():
            return False
        prev_hash = block.block_hash()
        expected_height += 1
    return True
