"""The scan interface between the query layer and the block store.

Query operators never touch :class:`~repro.storage.blockstore.BlockStore`
internals directly (a custom lint enforces this): every physical read goes
through a :class:`StoreScanner`, which forwards to the store and charges
each attached :class:`~repro.storage.costmodel.CostTracker` in addition to
the store's global cost model.  An operator typically scans with two
trackers attached - the query-scoped tracker (what ``QueryResult.cost``
reports) and its own per-operator tracker (what EXPLAIN ANALYZE reports) -
so per-operator I/O sums exactly to the query's total.

Three reads, one per shape of access: ``read_block`` (GET BLOCK),
``read_transaction`` (the layered paths) and ``scan_block`` (every
whole-block path: the block's I/O, the wanted tables'/sender's tuples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Optional, Sequence

from ..model.block import Block
from ..model.transaction import Transaction
from .costmodel import CostTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .blockstore import BlockStore


class StoreScanner:
    """Tracker-scoped read facade over one block store."""

    __slots__ = ("_store", "_trackers")

    def __init__(self, store: "BlockStore",
                 trackers: Sequence[CostTracker] = ()) -> None:
        self._store = store
        self._trackers = tuple(trackers)

    def read_block(self, height: int) -> Block:
        return self._store.read_block(height, trackers=self._trackers)

    def read_transaction(self, height: int, tx_index: int) -> Transaction:
        return self._store.read_transaction(
            height, tx_index, trackers=self._trackers
        )

    def scan_block(
        self,
        height: int,
        tnames: Optional[Collection[str]] = None,
        senid: Optional[str] = None,
    ) -> list[Transaction]:
        return self._store.scan_block(
            height, tnames, senid, trackers=self._trackers
        )
