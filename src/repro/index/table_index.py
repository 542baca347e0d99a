"""Table-level bitmap index.

Operation (ii) of section IV-B: find all blocks holding tuples of one
table.  One bitmap per table name; bit i is set when block i contains at
least one transaction of that table.  When a new table appears a new
bitmap is added; when a block arrives the bitmaps of every table present
in it get their new bit set.

The same structure also tracks ``SenID`` ("the index can also be created
on SenID for tracking query").
"""

from __future__ import annotations

from typing import Iterable

from ..model.block import Block
from .bitmap import Bitmap


class TableBitmapIndex:
    """Maps a key (table name or sender id) to its block-presence bitmap."""

    def __init__(self) -> None:
        self._tables: dict[str, Bitmap] = {}
        self._senders: dict[str, Bitmap] = {}
        self._counts: dict[str, int] = {}
        self._num_blocks = 0

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def add_block(self, block: Block) -> None:
        """Set bit ``block.height`` on every table (and sender) present."""
        bid = block.height
        for tname in block.table_names():
            _bitmap(self._tables, tname).set(bid)
        for tx in block.transactions:
            self._counts[tx.tname] = self._counts.get(tx.tname, 0) + 1
            _bitmap(self._senders, tx.senid).set(bid)
        self._num_blocks = max(self._num_blocks, bid + 1)

    def blocks_for_table(self, tname: str) -> Bitmap:
        """Bitmap of blocks containing table ``tname`` (copy; empty if none)."""
        bitmap = self._tables.get(tname.lower())
        return bitmap.copy() if bitmap is not None else Bitmap()

    def blocks_for_sender(self, senid: str) -> Bitmap:
        bitmap = self._senders.get(senid)
        return bitmap.copy() if bitmap is not None else Bitmap()

    def blocks_for_tables(self, tnames: Iterable[str]) -> Bitmap:
        """Union over several tables."""
        result = Bitmap()
        for tname in tnames:
            result = result | self.blocks_for_table(tname)
        return result

    def tuple_count(self, tname: str) -> int:
        """Total transactions of ``tname`` across the chain."""
        return self._counts.get(tname.lower(), 0)

    def selectivity(self, tname: str) -> float:
        """Fraction of blocks containing the table - the k/n of eq. (2)."""
        if not self._num_blocks:
            return 0.0
        return len(self.blocks_for_table(tname)) / self._num_blocks


def _bitmap(bitmaps: dict[str, Bitmap], key: str) -> Bitmap:
    """The bitmap of ``key``, created only when it is missing."""
    bitmap = bitmaps.get(key)
    if bitmap is None:
        bitmap = bitmaps[key] = Bitmap()
    return bitmap
