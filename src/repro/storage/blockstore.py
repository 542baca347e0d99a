"""The chain block store.

Owns the append-only segment files, the per-block physical locations, the
byte offsets of every transaction inside its block (so the layered index
can read a *single* tuple with one random I/O, eq. 3 of the paper), the
headers kept for thin clients, and the read cache.

Two reads.  :meth:`BlockStore.read_positions` yields the tuples at given
positions of one block, decoded or as stored records;
:meth:`BlockStore.read_transaction` (one tuple) and
:meth:`BlockStore.read_records_at` (what a VO ships) are one call of it.
The framed whole-block read charges a block's I/O and checks its framing
for :meth:`BlockStore.read_block` (a whole decoded block),
:meth:`BlockStore.scan_block` (only the wanted tables'/sender's tuples
sliced and decoded, picked on the integer scan tags the store keeps per
record; a block mixes every table, so that is what the scan, bitmap and
hash-join operators read) and :meth:`BlockStore.read_records` (the
stored records chain verification hashes and a new layered index keys).
The scan tags also answer :meth:`BlockStore.record_names`, each record's
``tname`` and ``senid`` without a read: what a new layered index skips
other tables' records on and keys ``senid`` / ``tname`` with.

A reopen parses every segment and decodes each stored record once; a
:class:`RecoverySink` handed to the constructor receives those decoded
blocks one at a time, so the node's chain-wide indexes are rebuilt
without reading the chain a second time.

Caching (Fig 22): ``cache_mode="block"`` keeps whole recently-read blocks;
``cache_mode="transaction"`` keeps individual recently-read tuples.  Cost
accounting only charges the cost model on cache misses.
"""

from __future__ import annotations

from array import array
from itertools import islice
from types import MethodType
from typing import (
    Callable, Collection, Iterable, Iterator, Optional, Protocol, Sequence,
)
from weakref import WeakMethod

from ..common.codec import Reader, Writer, encode_varint
from ..common.config import SebdbConfig
from ..common.errors import CodecError, StorageError
from ..common.hashing import merkle_root
from ..common.lru import LRUCache
from ..model.block import Block, BlockHeader
from ..model.transaction import Transaction
from .costmodel import CostModel
from .scan import StoreScanner
from .segment import BlockLocation, SegmentStore

Listener = Callable[[Block, BlockLocation], None]

#: blocks the optimizer's average block size f samples, newest first
RECENT_BLOCKS = 16


class RecoverySink(Protocol):
    """Hears each block a reopen's segment parse admits, in height order."""

    def add_block(self, block: Block, location: BlockLocation) -> None:
        """One admitted block, decoded by the parse."""

    def reset(self) -> None:
        """Forget every block heard so far: the parse starts over."""


class BlockStore:
    """Append-only, cache-fronted, cost-accounted block storage."""

    def __init__(
        self,
        config: Optional[SebdbConfig] = None,
        trusted_checkpoint: Optional[tuple[int, bytes]] = None,
        recovered: Optional[RecoverySink] = None,
    ) -> None:
        self.config = config or SebdbConfig.in_memory()
        self.cost = CostModel()
        self._segments = SegmentStore(
            self.config.data_dir, self.config.segment_file_size
        )
        self._locations: list[BlockLocation] = []
        #: stored bytes of the newest ``RECENT_BLOCKS`` blocks, kept at
        #: append for :meth:`recent_block_size`
        self._recent_bytes = 0
        #: per block: each transaction's offset in the block and length,
        #: flat - ``[offset_0, length_0, offset_1, length_1, ...]``
        self._tx_offsets: list[array] = []
        #: scan tags, per block: each transaction's ``tname`` and ``senid``
        #: as the small int ``_tag_ids`` gave that name, in block order
        self._tx_tables: list[array] = []
        self._tx_senders: list[array] = []
        self._tag_ids: dict[str, int] = {}
        #: tag -> name: ``_tag_ids`` inverted, for :meth:`record_names`
        self._tag_names: list[str] = []
        self._headers: list[BlockHeader] = []
        self._tip_hash: Optional[bytes] = None
        # entries are sized by the stored length they were decoded from
        # (an honest chain is canonical, so that is their encoded size)
        self._block_cache: LRUCache[int, Block] = LRUCache(
            self.config.cache_bytes if self.config.cache_mode == "block" else 0,
        )
        self._tx_cache: LRUCache[tuple[int, int], Transaction] = LRUCache(
            self.config.cache_bytes if self.config.cache_mode == "transaction" else 0,
        )
        #: each listener behind a call that returns it, or None once a
        #: weakly held one is gone
        self._listeners: list[Callable[[], Optional[Listener]]] = []
        #: diagnostics of the most recent segment recovery
        self.recovery_report: dict[str, object] = {}
        if self.config.data_dir is not None:
            self._recover_from_segments(trusted_checkpoint, recovered)

    def _recover_from_segments(
        self,
        trusted_checkpoint: Optional[tuple[int, bytes]],
        recovered: Optional[RecoverySink],
    ) -> None:
        """Rebuild chain state by re-parsing existing on-disk segments.

        Blocks are self-delimiting (length-prefixed header, transaction
        count, length-prefixed transactions), so a sequential parse of
        each segment file recovers every block's location and the per-
        transaction offsets.  Chaining and Merkle roots are re-verified;
        a torn tail (partial final write) stops recovery cleanly at the
        last complete block.

        ``trusted_checkpoint`` is a durable ``(height, tip_hash)`` anchor
        (the ledger's persisted engine checkpoint): blocks below it skip
        the Merkle-root recomputation, because the prefix was quorum-
        certified when the checkpoint was recorded.  If the recovered
        chain does not reproduce the anchor hash, the whole store is
        re-parsed with full verification - a corrupted store must never
        hide behind a checkpoint.

        ``recovered`` hears every block the parse admits, decoded; a
        fallback re-parse resets it first, so it ends up holding exactly
        what the final parse admitted.
        """
        verify_below = 0
        if trusted_checkpoint is not None:
            verify_below = max(0, trusted_checkpoint[0])
        skipped = self._parse_segments(verify_below, recovered)
        fallback = False
        if verify_below:
            t_height, t_tip = trusted_checkpoint
            anchored = (
                self.height >= t_height
                and self._headers[t_height - 1].block_hash() == t_tip
            )
            if not anchored:
                fallback = True
                self._reset_chain_state()
                if recovered is not None:
                    recovered.reset()
                skipped = self._parse_segments(0, recovered)
        self.recovery_report = {
            "blocks": self.height,
            "merkle_skipped": skipped,
            "trusted_fallback": fallback,
        }

    def _parse_segments(
        self, verify_below: int, recovered: Optional[RecoverySink]
    ) -> int:
        """Sequentially parse every segment; returns Merkle checks skipped.

        The Merkle leaves are hashed from the transaction bytes as stored,
        so a stored record must be exactly what the header committed to.
        Each record is still decoded: one that does not decode is a torn
        or damaged tail like any other framing error.  Each admitted
        block goes to ``recovered`` with those decoded transactions, and
        is then dropped: the chain is never held in memory.
        """
        skipped = 0
        for segment in range(self._segments.segment_count):
            data = self._segments.segment_payload(segment)
            offset = 0
            while offset < len(data):
                reader = Reader(data, offset)
                try:
                    header = BlockHeader.from_bytes(reader.read_bytes())
                    count = reader.read_varint()
                    tx_offsets = array("I")
                    records = []
                    txs = []
                    for _ in range(count):
                        record = reader.read_bytes()
                        txs.append(Transaction.from_bytes(record))
                        records.append(record)
                        tx_offsets.append(reader.position - len(record) - offset)
                        tx_offsets.append(len(record))
                except CodecError:
                    return skipped  # torn tail: stop at the last complete block
                if header.height != self.height:
                    return skipped
                if (self._tip_hash is not None
                        and header.prev_hash != self._tip_hash):
                    return skipped
                if header.height < verify_below:
                    skipped += 1
                elif header.trans_root != merkle_root(records):
                    return skipped
                location = BlockLocation(
                    segment=segment, offset=offset,
                    length=reader.position - offset,
                )
                self._add_location(location)
                self._tx_offsets.append(tx_offsets)
                self._add_tags(txs)
                self._headers.append(header)
                self._tip_hash = header.block_hash()
                offset = reader.position
                if recovered is not None:
                    recovered.add_block(
                        Block(header=header, transactions=tuple(txs)), location)
        return skipped

    def _reset_chain_state(self) -> None:
        self._locations = []
        self._recent_bytes = 0
        self._tx_offsets = []
        self._tx_tables = []
        self._tx_senders = []
        self._tag_ids = {}
        self._tag_names = []
        self._headers = []
        self._tip_hash = None
        self.clear_caches()

    # -- chain state -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._locations)

    @property
    def height(self) -> int:
        """Number of blocks stored (next block's height)."""
        return len(self._locations)

    @property
    def tip_hash(self) -> Optional[bytes]:
        return self._tip_hash

    @property
    def headers(self) -> list[BlockHeader]:
        """All block headers (what a thin client synchronizes)."""
        return list(self._headers)

    def header(self, height: int) -> BlockHeader:
        self._check_height(height)
        return self._headers[height]

    def add_listener(self, listener: Listener) -> None:
        """Register a callback fired after every successful append.

        A bound method is held weakly: its object (an index manager, which
        holds the store) forms no reference cycle with the store, and
        stops hearing appends once nothing else holds it.
        """
        if isinstance(listener, MethodType):
            self._listeners.append(WeakMethod(listener))
        else:
            self._listeners.append(lambda: listener)

    def _check_height(self, height: int) -> None:
        if not 0 <= height < len(self._locations):
            raise StorageError(
                f"block {height} does not exist (chain height {self.height})"
            )

    # -- writes ------------------------------------------------------------

    def append_block(
        self, block: Block, *, notify: bool = True,
        serialized: Optional[tuple[bytes, array]] = None,
    ) -> BlockLocation:
        """Append a sealed block; verifies chaining against the tip.

        Only the ledger pipeline's persist stage may call this (enforced
        by the ``commit-path`` analysis rule) - every other layer commits
        through :class:`repro.ledger.LedgerPipeline`.  With
        ``notify=False`` the append listeners (index/MHT maintenance) are
        deferred; the pipeline fires them in its apply stage via
        :meth:`notify_append_listeners`.  ``serialized`` is the block's
        :func:`serialize_block` output when the caller already has it.
        """
        if block.header.height != self.height:
            raise StorageError(
                f"expected block height {self.height}, got {block.header.height}"
            )
        if self._tip_hash is not None and block.header.prev_hash != self._tip_hash:
            raise StorageError(
                f"block {block.header.height} does not chain to the tip"
            )
        if serialized is None:
            serialized = serialize_block(block)
        data, offsets = serialized
        location = self._segments.append(data)
        # appending is one seek at most (sequential after the first write)
        self.cost.record_write(len(data), seeks=0)
        self._add_location(location)
        self._tx_offsets.append(offsets)
        self._add_tags(block.transactions)
        self._headers.append(block.header)
        self._tip_hash = block.block_hash()
        if notify:
            self.notify_append_listeners(block, location)
        return location

    def _add_location(self, location: BlockLocation) -> None:
        """Admit the next block's location; the newest blocks' byte sum
        takes it in and drops the block that leaves the window."""
        locations = self._locations
        locations.append(location)
        self._recent_bytes += location.length
        if len(locations) > RECENT_BLOCKS:
            self._recent_bytes -= locations[-RECENT_BLOCKS - 1].length

    def _add_tags(self, txs: Sequence[Transaction]) -> None:
        """Record a new block's scan tags, from its decoded transactions."""
        ids = self._tag_ids
        known = len(ids)
        tag = ids.setdefault  # a new name takes the next free tag
        tables = [tag(tx.tname, len(ids)) for tx in txs]
        senders = [tag(tx.senid, len(ids)) for tx in txs]
        grown = len(ids) - known
        if grown:  # the dict's last ``grown`` names, in tag order
            self._tag_names += reversed([*islice(reversed(ids), grown)])
        # one byte a tag while the store knows at most 256 names: the tags
        # grow with the chain, on every replica
        typecode = "B" if len(ids) <= 256 else "I"
        self._tx_tables.append(array(typecode, tables))
        self._tx_senders.append(array(typecode, senders))

    def notify_append_listeners(self, block: Block, location: BlockLocation) -> None:
        """Fire the append listeners for an already-persisted block."""
        for held in self._listeners:
            listener = held()
            if listener is not None:
                listener(block, location)

    def simulate_torn_append(self, data: bytes) -> None:
        """Fault hook: write raw bytes without admitting a block.

        Models a crash mid-append - the bytes land in the active segment
        but no chain state records them, exactly what a power cut between
        the commit log's BEGIN and the completed segment write leaves
        behind.  Only the fault-injection paths use this.
        """
        self._segments.append(data)

    def discard_torn_tail(self) -> int:
        """Truncate every segment byte past the last complete block.

        Returns the number of bytes removed.  Called by the ledger's
        write-ahead recovery when a pending commit record proves the
        trailing bytes belong to a block that never committed.
        """
        if self._locations:
            last = self._locations[-1]
            return self._segments.truncate_after(
                last.segment, last.offset + last.length
            )
        return self._segments.truncate_after(0, 0)

    def close(self) -> None:
        """Release the segment files' held read descriptors.

        The store stays usable: a later read opens its segment again.
        """
        self._segments.close()

    # -- reads ---------------------------------------------------------------

    def read_block(
        self, height: int, tracker: Optional[CostModel] = None
    ) -> Block:
        """Read a whole block: one seek + size/pagesize transfers on miss.

        ``tracker`` is a scoped ledger (a leaf operator's own, see
        :meth:`CostModel.tracker`) charged alongside the global model, so
        interleaved readers each account exactly their own I/O.
        """
        self._check_height(height)
        cached = self._block_cache.get(height)
        if cached is not None:
            return cached
        header, data, offsets = self._read_framed(height, tracker)
        # a cached block keeps its decoded fields only: the entry is sized
        # by the stored length, which the records would add to uncounted
        caching = self.config.cache_mode == "block"
        decode = Transaction.from_bytes if caching else Transaction.from_record
        block = Block(header, tuple(
            decode(record) for record in _records(data, offsets)))
        if caching:
            self._block_cache.put(height, block, self._locations[height].length)
        return block

    def transactions_in_block(self, height: int) -> int:
        self._check_height(height)
        return len(self._tx_offsets[height]) // 2

    def read_positions(
        self, height: int, positions: Sequence[int],
        tracker: Optional[CostModel] = None, *, raw: bool = False,
    ) -> Iterator[Transaction | bytes]:
        """The tuples at ``positions`` of one block, lazily, in that order.

        Every position is checked before anything is read.  Each is then
        what one point read costs (eq. 3): a transaction-cache probe and,
        on a miss, one seek plus its pages charged to the global model
        and ``tracker``, the tuple decoded and cached before the next
        position is probed - so a consumer that stops early has paid for
        the positions it took and no more.  The segment is read once, on
        the first miss, over the span from the first wanted record to the
        end of the last.  ``raw`` yields the stored records undecoded
        (what a VO ships) and leaves the transaction cache alone.  Under
        ``cache_mode="block"`` every position is served out of
        :meth:`read_block`, a raw one encoded again.
        """
        self._check_height(height)
        offsets = self._tx_offsets[height]
        count = len(offsets) // 2
        for position in positions:
            if not 0 <= position < count:
                raise StorageError(
                    f"block {height} has no transaction index {position}"
                )
        if self.config.cache_mode == "block":
            for position in positions:
                tx = self.read_block(height, tracker).transactions[position]
                yield tx.to_bytes() if raw else tx
            return
        tx_cache = self._tx_cache
        span = None
        for position in positions:
            if not raw:
                cached = tx_cache.get((height, position))
                if cached is not None:
                    yield cached
                    continue
            offset = offsets[2 * position]
            length = offsets[2 * position + 1]
            self.cost.record_read(length, seeks=1)
            if tracker is not None:
                tracker.record_read(length, seeks=1)
            if span is None:  # records are stored in position order
                start = offsets[2 * min(positions)]
                last = max(positions)
                end = offsets[2 * last] + offsets[2 * last + 1]
                span = self._segments.read_range(
                    self._locations[height], start, end - start)
            item = span[offset - start : offset - start + length]
            if not raw:
                item = Transaction.from_bytes(item)
                tx_cache.put((height, position), item, length)
            yield item

    def read_transaction(
        self, height: int, tx_index: int,
        tracker: Optional[CostModel] = None,
    ) -> Transaction:
        """Read a single tuple: one random I/O (seek + 1-page transfer).

        One position of :meth:`read_positions`; under the block cache
        policy it falls back to reading the whole block.
        """
        return next(self.read_positions(height, (tx_index,), tracker))

    def read_records_at(
        self, height: int, positions: Sequence[int]
    ) -> list[bytes]:
        """The stored records at ``positions`` of one block, undecoded:
        what a VO ships, charged to the global model only."""
        return list(self.read_positions(height, positions, raw=True))

    def scan_block(
        self,
        height: int,
        tnames: Optional[Collection[str]] = None,
        senid: Optional[str] = None,
        tracker: Optional[CostModel] = None,
    ) -> list[Transaction]:
        """The block's tuples of ``tnames`` (and of ``senid``), in block order.

        What the whole-block access paths read (eqs 1-2, the hash joins):
        the same I/O and framing checks as :meth:`read_block` - one seek
        plus the block's length on a miss, to the global model and the
        tracker - but only the tuples the caller keeps are sliced out and
        decoded.  They are picked on the block's scan tags: each
        transaction's ``tname`` and ``senid`` as the small int the store
        gave that exact string, so the filter compares ints and never
        looks at the records it drops.  ``None`` leaves a dimension
        unfiltered.  Comparison is exact, so this is a pre-filter for the
        operator's own tests, never a replacement.  Under
        ``cache_mode="block"`` the decoded block is what the cache holds,
        so it is filtered by attribute instead.
        """
        self._check_height(height)
        if self.config.cache_mode == "block":
            return [
                tx for tx in self.read_block(height, tracker).transactions
                if (tnames is None or tx.tname in tnames)
                and (senid is None or tx.senid == senid)
            ]
        _header, data, offsets = self._read_framed(height, tracker)
        tag = self._tag_ids.get  # a name no record carries matches none
        keep: Iterable[int] = range(len(offsets) // 2)
        if tnames is not None:
            want = {tag(name) for name in tnames}
            keep = [i for i, table in enumerate(self._tx_tables[height])
                    if table in want]
        if senid is not None:
            sender, senders = tag(senid), self._tx_senders[height]
            keep = [i for i in keep if senders[i] == sender]
        decode = Transaction.from_bytes
        out = []
        for i in keep:
            offset = offsets[2 * i]
            out.append(decode(data[offset : offset + offsets[2 * i + 1]]))
        return out

    def record_names(self, height: int) -> tuple[list[str], list[str]]:
        """Each of the block's transactions' ``tname`` and ``senid``, in
        block order, off its scan tags: no read, no I/O charged, nothing
        decoded.  Equal names are one shared ``str``, the store's own."""
        self._check_height(height)
        names = self._tag_names
        return ([names[t] for t in self._tx_tables[height]],
                [names[t] for t in self._tx_senders[height]])

    def read_records(self, height: int) -> tuple[BlockHeader, list[bytes]]:
        """A block's header and its transactions' stored records, undecoded.

        What chain verification hashes and a new layered index keys: the
        bytes on disk, in every cache mode - the same I/O and framing
        checks as :meth:`scan_block`, and no transaction decoded.
        """
        self._check_height(height)
        header, data, offsets = self._read_framed(height, None)
        return header, _records(data, offsets)

    def _read_framed(
        self, height: int, tracker: Optional[CostModel]
    ) -> tuple[BlockHeader, bytes, array]:
        """A stored block's header, bytes and record offsets, framing
        checked; charges the whole block's read to the global model and
        ``tracker``.  Every whole-block read goes through here."""
        location = self._locations[height]
        self.cost.record_read(location.length, seeks=1)
        if tracker is not None:
            tracker.record_read(location.length, seeks=1)
        data = self._segments.read(location)
        offsets = self._tx_offsets[height]
        return _check_block_framing(data, offsets), data, offsets

    def scanner(self, tracker: CostModel) -> StoreScanner:
        """The scan interface query operators must read through."""
        return StoreScanner(self, tracker)

    def iter_blocks(self, start: int = 0, end: Optional[int] = None) -> Iterator[Block]:
        """Sequential scan of blocks ``start .. end-1``."""
        stop = self.height if end is None else min(end, self.height)
        for height in range(start, stop):
            yield self.read_block(height)

    def block_size(self, height: int) -> int:
        self._check_height(height)
        return self._locations[height].length

    def recent_block_size(self) -> int:
        """Average stored size of the newest ``RECENT_BLOCKS`` blocks (of
        all of them on a shorter chain); 0 on an empty chain."""
        sample = min(len(self._locations), RECENT_BLOCKS)
        return self._recent_bytes // sample if sample else 0

    def location(self, height: int) -> BlockLocation:
        """Physical location of a stored block."""
        self._check_height(height)
        return self._locations[height]

    # -- cache introspection (Fig 22 metrics) --------------------------------

    @property
    def block_cache(self) -> LRUCache[int, Block]:
        return self._block_cache

    @property
    def tx_cache(self) -> LRUCache[tuple[int, int], Transaction]:
        return self._tx_cache

    def clear_caches(self) -> None:
        self._block_cache.clear()
        self._tx_cache.clear()


def _records(data: bytes, offsets: array) -> list[bytes]:
    """Every stored record of a block's bytes, sliced at its offsets."""
    pairs = iter(offsets)
    return [data[offset : offset + length] for offset, length in zip(pairs, pairs)]


def _check_block_framing(data: bytes, offsets: array) -> BlockHeader:
    """The framing checks of :meth:`Block.from_bytes`, without the body.

    The header parses, the transaction count is the one the offsets were
    built from, and the last transaction ends where the bytes do.
    Returns the parsed header.
    """
    reader = Reader(data)
    header = BlockHeader.from_bytes(reader.read_bytes())
    count = reader.read_varint()
    if count != len(offsets) // 2:
        raise CodecError(
            f"block {header.height} holds {count} transactions, "
            f"{len(offsets) // 2} were indexed"
        )
    end = offsets[-2] + offsets[-1] if offsets else reader.position
    if end != len(data):
        raise CodecError(
            f"block {header.height} is {len(data)} bytes, its transactions "
            f"end at {end}"
        )
    return header


def serialize_block(block: Block) -> tuple[bytes, array]:
    """Serialize a block, recording each transaction's offset and length.

    Mirrors :meth:`Block.to_bytes` byte-for-byte; the offsets (flat, as
    :attr:`BlockStore._tx_offsets` keeps them) address the raw
    transaction bytes after their varint length prefix, so a point read
    deserializes directly with :meth:`Transaction.from_bytes`.
    """
    writer = Writer()
    writer.write_bytes(block.header.to_bytes())
    writer.write_varint(len(block.transactions))
    prefix = writer.getvalue()
    parts = [prefix]
    position = len(prefix)
    offsets = array("I")
    for tx in block.transactions:
        tx_bytes = tx.to_bytes()
        length_prefix = encode_varint(len(tx_bytes))
        parts.append(length_prefix)
        parts.append(tx_bytes)
        position += len(length_prefix)
        offsets.append(position)
        offsets.append(len(tx_bytes))
        position += len(tx_bytes)
    return b"".join(parts), offsets
