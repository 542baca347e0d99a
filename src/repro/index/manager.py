"""Index manager: creation, backfill and maintenance of all three indexes.

Owns the block-level B+-tree, the table-level bitmap index and every
layered index of a node.  It subscribes to the block store so each
appended block updates all structures in one pass, and it can create a new
layered index over an existing chain (sampling history for the histogram,
then backfilling level-1 entries and level-2 trees block by block) from
the stored records.  Each record's table and sender come from the store's
scan tags (:meth:`BlockStore.record_names`): a backfill skips other
tables' records on them, so it decodes only records keyed on another
column, and a ``senid`` / ``tname`` key is taken from them at append and
in a backfill alike, so every such key is the store's shared string.

A reopened node does not read its chain back for the first two: a
:class:`ChainBackfill` hears the blocks the store's segment parse has
just decoded and builds them as they stream past.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Optional, Sequence

from ..common.errors import CatalogError, IndexError_
from ..model.block import Block
from ..model.schema import TableSchema
from ..model.transaction import SCHEMA_TNAME, Transaction
from ..storage.blockstore import BlockStore
from ..storage.segment import BlockLocation
from .block_index import BlockIndex
from .histogram import EqualDepthHistogram
from .layered import LayeredIndex, TreeFactory
from .table_index import TableBitmapIndex

#: System columns a layered index may target without a table schema.
_SYSTEM_CONTINUOUS = {"tid": True, "ts": True, "senid": False, "tname": False}

#: Maximum historical values sampled to build a histogram.
_HISTOGRAM_SAMPLE_CAP = 10_000


def system_extractor(column: str, table: Optional[str]) -> Callable[[Transaction], Any]:
    """Extractor for a system-level column, optionally table-scoped."""
    lowered = column.lower()
    if lowered not in _SYSTEM_CONTINUOUS:
        raise IndexError_(f"{column!r} is not a system column")
    table_l = table.lower() if table else None

    def extract(tx: Transaction) -> Any:
        if table_l is not None and tx.tname != table_l:
            return None
        return getattr(tx, lowered)

    return extract


def app_extractor(schema: TableSchema, column: str) -> Callable[[Transaction], Any]:
    """Extractor for an application-level column of one table."""
    position = None
    for i, col in enumerate(schema.app_columns):
        if col.name == column.lower():
            position = i
            break
    if position is None:
        raise IndexError_(f"table {schema.name!r} has no app column {column!r}")

    def extract(tx: Transaction) -> Any:
        if tx.tname != schema.name:
            return None
        if position >= len(tx.values):
            return None
        return tx.values[position]

    return extract


KeyedBlock = tuple[int, list[tuple[Any, int]], list[bytes]]


def _sample_blocks(blocks: Iterator[KeyedBlock]) -> list[KeyedBlock]:
    """The histogram sample's blocks: taken from ``blocks`` until one
    takes the sample's values past the cap, the rest left unread."""
    taken: list[KeyedBlock] = []
    size = 0
    for block in blocks:
        taken.append(block)
        size += len(block[1])
        if size >= _HISTOGRAM_SAMPLE_CAP:
            break
    return taken


class ChainBackfill:
    """What a reopen derives from the stored chain, one block at a time.

    The block-level B+-tree, the table bitmaps, the schema transactions
    the catalog replays and the next tid.  A :class:`BlockStore` hands it
    each block its segment parse admits (it is a
    :class:`~repro.storage.blockstore.RecoverySink`), so every stored
    record is decoded once per reopen.  :meth:`catch_up` reads back
    whatever the store holds beyond what was heard: the whole chain for
    an :class:`IndexManager` built over a store without one.
    """

    def __init__(self, order: int) -> None:
        self._order = order
        self.reset()

    def reset(self) -> None:
        self.block_index = BlockIndex(order=self._order)
        self.table_index = TableBitmapIndex()
        self.schema_transactions: list[Transaction] = []
        self.next_tid = 0
        #: blocks heard so far: heights ``0 .. height-1``
        self.height = 0

    def add_block(self, block: Block, location: BlockLocation) -> None:
        self.block_index.add_block(block, location)
        self.table_index.add_block(block)
        self.schema_transactions.extend(
            tx for tx in block.transactions if tx.tname == SCHEMA_TNAME)
        if block.transactions:
            self.next_tid = block.last_tid + 1
        self.height = block.height + 1

    def catch_up(self, store: BlockStore) -> None:
        """Read back and add the store's blocks not heard yet."""
        for height in range(self.height, store.height):
            self.add_block(store.read_block(height), store.location(height))


class IndexManager:
    """All indexes of one full node, updated on every block append."""

    def __init__(self, store: BlockStore, order: int = 32,
                 histogram_depth: int = 100,
                 backfill: Optional[ChainBackfill] = None) -> None:
        """``backfill`` holds the chain the store's parse already handed
        over; without one, the whole chain is read back."""
        self._store = store
        self._histogram_depth = histogram_depth
        if backfill is None:
            backfill = ChainBackfill(order)
        backfill.catch_up(store)
        self.block_index = backfill.block_index
        self.table_index = backfill.table_index
        #: (table or None, column) -> LayeredIndex
        self._layered: dict[tuple[Optional[str], str], LayeredIndex] = {}
        #: counts layered-index creations: a query plan memoised per
        #: statement text holds only while the set is unchanged
        self.version = 0
        store.add_listener(self._on_block)

    # -- maintenance ------------------------------------------------------------

    def _on_block(self, block: Block, location: BlockLocation) -> None:
        self.block_index.add_block(block, location)
        self.table_index.add_block(block)
        if not self._layered:
            return
        tnames, senids = self._store.record_names(block.height)
        names = {"senid": senids, "tname": tnames}
        for (_table, column), index in self._layered.items():
            index.add_block(block, names.get(column))

    # -- layered index creation ----------------------------------------------------

    def create_layered_index(
        self,
        column: str,
        table: Optional[str] = None,
        schema: Optional[TableSchema] = None,
        tree_factory: Optional[TreeFactory] = None,
    ) -> LayeredIndex:
        """Create (and backfill) a layered index on ``column``.

        System columns (``senid``, ``tname``, ``ts``, ``tid``) may be
        indexed globally (``table=None``) - the paper's tracking indexes
        span *all* tables.  Application columns need the table's
        ``schema``.  ``tree_factory`` overrides the level-2 build: the
        ALI variant passes :func:`repro.mht.mbtree.ali_tree_factory`,
        whose second level is a Merkle B-tree (thin-client support).
        """
        key = (table.lower() if table else None, column.lower())
        if key in self._layered:
            raise IndexError_(f"layered index on {key} already exists")
        lowered = column.lower()
        if lowered in _SYSTEM_CONTINUOUS:
            extractor = system_extractor(lowered, table)
            continuous = _SYSTEM_CONTINUOUS[lowered]
        else:
            if schema is None:
                raise CatalogError(
                    f"indexing app column {column!r} requires the table schema"
                )
            extractor = app_extractor(schema, lowered)
            continuous = schema.column_type(lowered).is_continuous
        blocks = self._keyed_blocks(key, extractor)
        sampled: list[KeyedBlock] = []
        histogram = None
        if continuous:
            # the sample's blocks are kept and built below: one read and
            # one decode per keyed record
            sampled = _sample_blocks(blocks)
            histogram = EqualDepthHistogram.from_sample(
                [value for _height, pairs, _records in sampled
                 for value, _position in pairs],
                self._histogram_depth)
        index = LayeredIndex(
            column=lowered,
            extractor=extractor,
            continuous=continuous,
            histogram=histogram,
            tree_factory=tree_factory,
        )
        for height, pairs, records in itertools.chain(sampled, blocks):
            index.add_entries(height, pairs, records.__getitem__)
        self._layered[key] = index
        self.version += 1
        return index

    def _keyed_blocks(
        self,
        key: tuple[Optional[str], str],
        extractor: Callable[[Transaction], Any],
        newest_first: bool = False,
    ) -> Iterator[KeyedBlock]:
        """``(height, (key, position) pairs, stored records)`` of each
        block the table bitmaps list for ``key``'s table (every block for
        a global index), read once undecoded.  Other tables' records are
        skipped on the store's :meth:`~BlockStore.record_names`, and a
        ``senid`` / ``tname`` key is the store's name string; any other
        is ``extractor`` of the decoded record."""
        table, column = key
        heights: Sequence[int] = range(self._store.height)
        if table is not None:
            heights = list(self.table_index.blocks_for_table(table))
        for height in reversed(heights) if newest_first else heights:
            _header, records = self._store.read_records(height)
            tnames, senids = self._store.record_names(height)
            names = {"senid": senids, "tname": tnames}.get(column)
            pairs = []
            for position, record in enumerate(records):
                if table and tnames[position] != table:
                    continue
                if names is not None:
                    value = names[position]
                else:
                    value = extractor(Transaction.from_bytes(record))
                    if value is None:
                        continue
                pairs.append((value, position))
            yield height, pairs, records

    def _sample_values(
        self,
        key: tuple[Optional[str], str],
        extractor: Callable[[Transaction], Any],
        newest_first: bool = False,
    ) -> list[Any]:
        """Historical values for an equal-depth histogram, block by block
        until a block takes the sample past the cap.

        At creation time the sample walks the chain from genesis (cheap,
        and any slice is representative of a fresh chain).  A *refresh*
        samples newest-first instead: the cap would otherwise pin the
        sample to the oldest blocks forever, which is exactly the
        staleness ``\\analyze`` exists to fix.
        """
        return [
            value for _height, pairs, _records in _sample_blocks(
                self._keyed_blocks(key, extractor, newest_first))
            for value, _position in pairs]

    def refresh_statistics(self) -> dict[str, int]:
        """Rebuild every continuous layered index's equal-depth histogram
        from current chain data (newest blocks first, same sample cap).

        Estimates drive plan choice (eq. 3's p comes from histogram
        bucket coverage), so after heavy writes that shift a column's
        distribution the planner mis-costs until this runs - the CLI
        exposes it as ``\\analyze``.  Returns ``column -> sample size``
        for each refreshed index.
        """
        refreshed: dict[str, int] = {}
        for (table, column), index in sorted(
            self._layered.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
        ):
            if not index.continuous:
                continue  # discrete indexes estimate from value bitmaps
            sample = self._sample_values((table, column), index.extractor,
                                         newest_first=True)
            index.refresh_histogram(
                EqualDepthHistogram.from_sample(sample, self._histogram_depth)
            )
            name = f"{table}.{column}" if table else column
            refreshed[name] = len(sample)
        return refreshed

    # -- lookup ---------------------------------------------------------------------

    def layered(self, column: str, table: Optional[str] = None) -> Optional[LayeredIndex]:
        """The layered index on (table, column); table-scoped first, then global."""
        key = (table.lower() if table else None, column.lower())
        index = self._layered.get(key)
        if index is None and table is not None:
            index = self._layered.get((None, column.lower()))
        return index

    @property
    def layered_indexes(self) -> dict[tuple[Optional[str], str], LayeredIndex]:
        return dict(self._layered)
