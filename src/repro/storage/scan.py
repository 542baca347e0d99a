"""The scan interface between the query layer and the block store.

Query operators never touch :class:`~repro.storage.blockstore.BlockStore`
internals directly (a custom lint enforces this): every physical read goes
through a :class:`StoreScanner`, which forwards to the store and charges
the scanner's one tracker - the leaf operator's own
(:meth:`~repro.storage.costmodel.CostModel.tracker`), what EXPLAIN ANALYZE
reports - in addition to the store's global cost model.  Only leaf
operators read, so a query's I/O is exactly the sum of its leaves'
trackers.

Three reads, one per shape of access: ``read_block`` (GET BLOCK),
``read_transaction`` (the layered paths) and ``scan_block`` (every
whole-block path: the block's I/O, the wanted tables'/sender's tuples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Optional

from ..model.block import Block
from ..model.transaction import Transaction
from .costmodel import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blockstore import BlockStore


class StoreScanner:
    """Tracker-scoped read facade over one block store."""

    __slots__ = ("_store", "_tracker")

    def __init__(self, store: "BlockStore", tracker: CostModel) -> None:
        self._store = store
        self._tracker = tracker

    def read_block(self, height: int) -> Block:
        return self._store.read_block(height, self._tracker)

    def read_transaction(self, height: int, tx_index: int) -> Transaction:
        return self._store.read_transaction(height, tx_index, self._tracker)

    def scan_block(
        self,
        height: int,
        tnames: Optional[Collection[str]] = None,
        senid: Optional[str] = None,
    ) -> list[Transaction]:
        return self._store.scan_block(height, tnames, senid, self._tracker)
