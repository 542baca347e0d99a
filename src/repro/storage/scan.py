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
``positional_read`` (the index-driven paths: the store's
``read_positions`` - a block's wanted positions, handed over at once and
read lazily - with the tracker to charge) and ``scan_block`` (every
whole-block path: the block's I/O, the wanted tables'/sender's tuples).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Iterator, Optional, Sequence

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

    def positional_read(
        self,
    ) -> tuple[Callable[[int, Sequence[int], CostModel], Iterator[Transaction]],
               CostModel]:
        """The store's positional read and this scanner's tracker.

        ``read(height, positions, tracker)`` is
        :meth:`BlockStore.read_positions` charged to this scanner's
        tracker.  An index-driven leaf takes the pair once and calls it
        block after block, with no forwarding call in between; it must
        pass the tracker it was given.
        """
        return self._store.read_positions, self._tracker

    def scan_block(
        self,
        height: int,
        tnames: Optional[Collection[str]] = None,
        senid: Optional[str] = None,
    ) -> list[Transaction]:
        return self._store.scan_block(height, tnames, senid, self._tracker)
