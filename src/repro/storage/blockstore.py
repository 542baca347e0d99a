"""The chain block store.

Owns the append-only segment files, the per-block physical locations, the
byte offsets of every transaction inside its block (so the layered index
can read a *single* tuple with one random I/O, eq. 3 of the paper), the
headers kept for thin clients, and the read cache.

Three reads: :meth:`BlockStore.read_block` (a whole decoded block),
:meth:`BlockStore.read_transaction` (one tuple by position) and
:meth:`BlockStore.scan_block` - the whole block's I/O, but only the
tuples of the wanted tables/sender decoded, the rest rejected on their
wire prefix (:meth:`Transaction.wire_prefix`) through the same per-block
offsets.  A block mixes every table, so that is what the scan, bitmap
and hash-join operators read.

Caching (Fig 22): ``cache_mode="block"`` keeps whole recently-read blocks;
``cache_mode="transaction"`` keeps individual recently-read tuples.  Cost
accounting only charges the cost model on cache misses.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterator, Optional, Sequence

from ..common.codec import Reader, Writer
from ..common.config import SebdbConfig
from ..common.errors import CodecError, StorageError
from ..common.hashing import hash_leaf, merkle_root_from_leaves
from ..common.lru import LRUCache
from ..model.block import Block, BlockHeader
from ..model.transaction import Transaction
from .costmodel import CostModel
from .segment import BlockLocation, SegmentStore


class BlockStore:
    """Append-only, cache-fronted, cost-accounted block storage."""

    def __init__(
        self,
        config: Optional[SebdbConfig] = None,
        trusted_checkpoint: Optional[tuple[int, bytes]] = None,
    ) -> None:
        self.config = config or SebdbConfig.in_memory()
        self.cost = CostModel()
        self._segments = SegmentStore(
            self.config.data_dir, self.config.segment_file_size
        )
        self._locations: list[BlockLocation] = []
        #: per block: list of (offset_in_block, length) for each transaction
        self._tx_offsets: list[list[tuple[int, int]]] = []
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
        self._listeners: list[Callable[[Block, BlockLocation], None]] = []
        #: diagnostics of the most recent segment recovery
        self.recovery_report: dict[str, object] = {}
        if self.config.data_dir is not None:
            self._recover_from_segments(trusted_checkpoint)

    def _recover_from_segments(
        self, trusted_checkpoint: Optional[tuple[int, bytes]] = None
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
        """
        verify_below = 0
        if trusted_checkpoint is not None:
            verify_below = max(0, trusted_checkpoint[0])
        skipped = self._parse_segments(verify_below)
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
                skipped = self._parse_segments(0)
        self.recovery_report = {
            "blocks": self.height,
            "merkle_skipped": skipped,
            "trusted_fallback": fallback,
        }

    def _parse_segments(self, verify_below: int) -> int:
        """Sequentially parse every segment; returns Merkle checks skipped.

        The Merkle leaves are hashed from the transaction bytes as stored,
        so a stored record must be exactly what the header committed to.
        Each record is still decoded: one that does not decode is a torn
        or damaged tail like any other framing error.
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
                    tx_offsets: list[tuple[int, int]] = []
                    records = []
                    for _ in range(count):
                        length = reader.read_varint()
                        start = reader.position
                        record = reader.read_raw(length)
                        Transaction.from_bytes(record)
                        records.append(record)
                        tx_offsets.append((start - offset, length))
                except CodecError:
                    return skipped  # torn tail: stop at the last complete block
                if header.height != self.height:
                    return skipped
                if (self._tip_hash is not None
                        and header.prev_hash != self._tip_hash):
                    return skipped
                if header.height < verify_below:
                    skipped += 1
                elif header.trans_root != merkle_root_from_leaves(
                        [hash_leaf(record) for record in records]):
                    return skipped
                self._locations.append(BlockLocation(
                    segment=segment, offset=offset,
                    length=reader.position - offset,
                ))
                self._tx_offsets.append(tx_offsets)
                self._headers.append(header)
                self._tip_hash = header.block_hash()
                offset = reader.position
        return skipped

    def _reset_chain_state(self) -> None:
        self._locations = []
        self._tx_offsets = []
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

    def add_listener(self, listener: Callable[[Block, BlockLocation], None]) -> None:
        """Register a callback fired after every successful append."""
        self._listeners.append(listener)

    def _check_height(self, height: int) -> None:
        if not 0 <= height < len(self._locations):
            raise StorageError(
                f"block {height} does not exist (chain height {self.height})"
            )

    # -- writes ------------------------------------------------------------

    def append_block(self, block: Block, *, notify: bool = True) -> BlockLocation:
        """Append a sealed block; verifies chaining against the tip.

        Only the ledger pipeline's persist stage may call this (enforced
        by the ``commit-path`` analysis rule) - every other layer commits
        through :class:`repro.ledger.LedgerPipeline`.  With
        ``notify=False`` the append listeners (index/MHT maintenance) are
        deferred; the pipeline fires them in its apply stage via
        :meth:`notify_append_listeners`.
        """
        if block.header.height != self.height:
            raise StorageError(
                f"expected block height {self.height}, got {block.header.height}"
            )
        if self._tip_hash is not None and block.header.prev_hash != self._tip_hash:
            raise StorageError(
                f"block {block.header.height} does not chain to the tip"
            )
        data, offsets = _serialize_with_offsets(block)
        location = self._segments.append(data)
        # appending is one seek at most (sequential after the first write)
        self.cost.record_write(len(data), seeks=0)
        self._locations.append(location)
        self._tx_offsets.append(offsets)
        self._headers.append(block.header)
        self._tip_hash = block.block_hash()
        if notify:
            self.notify_append_listeners(block, location)
        return location

    def notify_append_listeners(self, block: Block, location: BlockLocation) -> None:
        """Fire the append listeners for an already-persisted block."""
        for listener in self._listeners:
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
        location = self._locations[height]
        self.cost.record_read(location.length, seeks=1)
        if tracker is not None:
            tracker.record_read(location.length, seeks=1)
        data = self._segments.read(location)
        block = Block.from_bytes(data)
        if self.config.cache_mode == "block":
            self._block_cache.put(height, block, len(data))
        return block

    def transactions_in_block(self, height: int) -> int:
        self._check_height(height)
        return len(self._tx_offsets[height])

    def read_transaction(
        self, height: int, tx_index: int,
        tracker: Optional[CostModel] = None,
    ) -> Transaction:
        """Read a single tuple: one random I/O (seek + 1-page transfer).

        This is the access path the layered index uses; under the block
        cache policy it falls back to reading the whole block.
        """
        self._check_height(height)
        offsets = self._tx_offsets[height]
        if not 0 <= tx_index < len(offsets):
            raise StorageError(
                f"block {height} has no transaction index {tx_index}"
            )
        if self.config.cache_mode == "block":
            # the block cache policy serves point reads out of whole blocks
            return self.read_block(height, tracker).transactions[tx_index]
        cached = self._tx_cache.get((height, tx_index))
        if cached is not None:
            return cached
        offset, length = offsets[tx_index]
        self.cost.record_read(length, seeks=1)
        if tracker is not None:
            tracker.record_read(length, seeks=1)
        raw = self._segments.read_range(self._locations[height], offset, length)
        tx = Transaction.from_bytes(raw)
        if self.config.cache_mode == "transaction":
            self._tx_cache.put((height, tx_index), tx, length)
        return tx

    def scan_block(
        self,
        height: int,
        tnames: Optional[Collection[str]] = None,
        senid: Optional[str] = None,
        tracker: Optional[CostModel] = None,
    ) -> list[Transaction]:
        """The block's tuples of ``tnames`` (and of ``senid``), in block order.

        What the whole-block access paths read (eqs 1-2, the hash joins):
        the same I/O as :meth:`read_block` - one seek plus the block's
        length on a miss, to the global model and the tracker - but
        only the tuples the caller keeps are decoded.  The filter runs on
        each transaction's wire prefix, against the filter strings
        encoded once; ``None`` leaves a dimension unfiltered.  Comparison
        is exact, so this is a pre-filter for the operator's own tests,
        never a replacement.  Under ``cache_mode="block"`` the decoded
        block is what the cache holds, so it is filtered by attribute
        instead.
        """
        self._check_height(height)
        if self.config.cache_mode == "block":
            return [
                tx for tx in self.read_block(height, tracker).transactions
                if (tnames is None or tx.tname in tnames)
                and (senid is None or tx.senid == senid)
            ]
        location = self._locations[height]
        self.cost.record_read(location.length, seeks=1)
        if tracker is not None:
            tracker.record_read(location.length, seeks=1)
        data = self._segments.read(location)
        offsets = self._tx_offsets[height]
        _check_block_framing(data, offsets)
        want_tnames = (
            None if tnames is None else {name.encode("utf-8") for name in tnames}
        )
        want_senid = None if senid is None else senid.encode("utf-8")
        out = []
        for offset, length in offsets:
            raw = data[offset : offset + length]
            sender, table = Transaction.wire_prefix(raw)
            if want_tnames is not None and table not in want_tnames:
                continue
            if want_senid is not None and sender != want_senid:
                continue
            out.append(Transaction.from_bytes(raw))
        return out

    def scanner(self, tracker: CostModel) -> "StoreScanner":
        """The scan interface query operators must read through."""
        from .scan import StoreScanner

        return StoreScanner(self, tracker)

    def iter_blocks(self, start: int = 0, end: Optional[int] = None) -> Iterator[Block]:
        """Sequential scan of blocks ``start .. end-1``."""
        stop = self.height if end is None else min(end, self.height)
        for height in range(start, stop):
            yield self.read_block(height)

    def block_size(self, height: int) -> int:
        self._check_height(height)
        return self._locations[height].length

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


def _check_block_framing(data: bytes, offsets: Sequence[tuple[int, int]]) -> None:
    """The framing checks of :meth:`Block.from_bytes`, without the body.

    The header parses, the transaction count is the one the offsets were
    built from, and the last transaction ends where the bytes do.
    """
    reader = Reader(data)
    header = BlockHeader.from_bytes(reader.read_bytes())
    count = reader.read_varint()
    if count != len(offsets):
        raise CodecError(
            f"block {header.height} holds {count} transactions, "
            f"{len(offsets)} were indexed"
        )
    end = offsets[-1][0] + offsets[-1][1] if offsets else reader.position
    if end != len(data):
        raise CodecError(
            f"block {header.height} is {len(data)} bytes, its transactions "
            f"end at {end}"
        )


def _serialize_with_offsets(block: Block) -> tuple[bytes, list[tuple[int, int]]]:
    """Serialize a block, recording each transaction's (offset, length).

    Mirrors :meth:`Block.to_bytes` byte-for-byte; the offsets address the
    raw transaction bytes (after their varint length prefix) so a point
    read deserializes directly with :meth:`Transaction.from_bytes`.
    """
    header_bytes = block.header.to_bytes()
    writer = Writer()
    writer.write_bytes(header_bytes)
    writer.write_varint(len(block.transactions))
    prefix = writer.getvalue()
    parts = [prefix]
    position = len(prefix)
    offsets: list[tuple[int, int]] = []
    for tx in block.transactions:
        tx_bytes = tx.to_bytes()
        lp = Writer()
        lp.write_varint(len(tx_bytes))
        length_prefix = lp.getvalue()
        parts.append(length_prefix)
        position += len(length_prefix)
        offsets.append((position, len(tx_bytes)))
        parts.append(tx_bytes)
        position += len(tx_bytes)
    return b"".join(parts), offsets
