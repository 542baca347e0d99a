"""Explicit I/O cost model.

Section IV-B of the paper analyses the select operation with

    C_no_index  = n * t_S + (f * n / b) * t_T          (eq. 1)
    C_bitmap    = k * t_S + (f * k / b) * t_T,  k <= n (eq. 2)
    C_layered   = p * t_S + p * t_T                    (eq. 3)

where ``t_T`` is the transfer time per disk page, ``t_S`` the average seek
time, ``f`` the packaged-block size, ``b`` the disk page size, ``n`` the
chain height, ``k`` the number of blocks holding the table and ``p`` the
number of matching tuples.

Every read issued by the block store is recorded here as *seeks* and *page
transfers*, so tests can assert the equations hold exactly and benchmarks
can report modelled latency alongside wall-clock time.  A leaf operator's
scoped ledger is a model too (:meth:`CostModel.tracker`).
"""

from __future__ import annotations

import dataclasses
import math

#: Default timings, loosely calibrated to a 7200 rpm disk:
#: 4 ms average seek, 0.1 ms to transfer one 4 KB page.
DEFAULT_SEEK_MS = 4.0
DEFAULT_TRANSFER_MS = 0.1
DEFAULT_PAGE_SIZE = 4 * 1024
#: CPU time charged per tuple handled by an in-memory operator (hash
#: build/probe, merge step, sort comparison).  Three orders of magnitude
#: below a seek, so CPU terms only break ties between plans whose I/O
#: profiles are close - exactly the paper's framing, where disk I/O
#: dominates (section IV-B).
DEFAULT_CPU_TUPLE_MS = 0.0005


@dataclasses.dataclass
class CostModel:
    """Accumulates seeks and page transfers; prices them in milliseconds."""

    seek_ms: float = DEFAULT_SEEK_MS
    transfer_ms: float = DEFAULT_TRANSFER_MS
    page_size: int = DEFAULT_PAGE_SIZE
    cpu_tuple_ms: float = DEFAULT_CPU_TUPLE_MS
    seeks: int = 0
    page_transfers: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def pages_for(self, nbytes: int) -> int:
        """Number of disk pages covering ``nbytes`` (at least one)."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.page_size)

    def record_read(self, nbytes: int, seeks: int = 1) -> None:
        """Record a sequential read of ``nbytes`` after ``seeks`` seeks."""
        self.seeks += seeks
        self.page_transfers += self.pages_for(nbytes)
        self.bytes_read += nbytes

    def record_write(self, nbytes: int, seeks: int = 0) -> None:
        """Record an (append) write; appends are seek-free after the first."""
        self.seeks += seeks
        self.bytes_written += nbytes

    def elapsed_ms(self) -> float:
        """Modelled elapsed time of everything recorded so far."""
        return self.seeks * self.seek_ms + self.page_transfers * self.transfer_ms

    def snapshot(self) -> "CostSnapshot":
        return CostSnapshot(
            seeks=self.seeks,
            page_transfers=self.page_transfers,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            elapsed_ms=self.elapsed_ms(),
        )

    def reset(self) -> None:
        self.seeks = 0
        self.page_transfers = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- closed-form estimates (the paper's equations) --------------------

    def estimate_scan(self, n_blocks: int, block_size: int) -> float:
        """Eq. (1): full chain scan cost in ms."""
        pages = n_blocks * self.pages_for(block_size)
        return n_blocks * self.seek_ms + pages * self.transfer_ms

    def estimate_bitmap(self, k_blocks: int, block_size: int) -> float:
        """Eq. (2): bitmap-filtered scan cost in ms."""
        pages = k_blocks * self.pages_for(block_size)
        return k_blocks * self.seek_ms + pages * self.transfer_ms

    def estimate_layered(self, p_tuples: int) -> float:
        """Eq. (3): layered-index point-read cost in ms."""
        return p_tuples * (self.seek_ms + self.transfer_ms)

    # -- optimizer extensions (join / sort formulas over eqs 1-3) ---------

    def estimate_sort(self, rows: int) -> float:
        """In-memory sort: n log2 n comparisons priced per tuple."""
        if rows <= 1:
            return 0.0
        return rows * math.log2(rows) * self.cpu_tuple_ms

    def estimate_hash_join(
        self,
        k_blocks: int,
        block_size: int,
        build_rows: int,
        probe_rows: int,
    ) -> float:
        """One-pass hash join: eq. (2) block reads plus CPU terms.

        Both sides come out of the same k candidate blocks (one
        sequential pass); building the hash table costs two tuple
        touches per build row, probing one per probe row - so the
        smaller side is the cheaper build input.
        """
        io = self.estimate_bitmap(k_blocks, block_size)
        return io + (2 * build_rows + probe_rows) * self.cpu_tuple_ms

    def estimate_merge_join(self, left_tuples: int, right_tuples: int) -> float:
        """Algorithm 2/3 sort-merge: eq. (3) point reads on each side's
        estimated joining tuples, plus one merge step per tuple."""
        tuples = left_tuples + right_tuples
        return tuples * (self.seek_ms + self.transfer_ms + self.cpu_tuple_ms)

    def tracker(self) -> "CostModel":
        """A fresh scoped ledger: this model's prices, zeroed counters.

        The block store charges every read to its global model *and* to
        the one tracker passed along with the read (a leaf operator's
        own), so two interleaved queries each see exactly their own I/O
        instead of a shared snapshot-delta that double-counts the other
        query's reads.  The prices are this model's, so a tracker's
        ``elapsed_ms`` is directly comparable with the closed-form
        estimates.
        """
        return CostModel(self.seek_ms, self.transfer_ms, self.page_size,
                         self.cpu_tuple_ms)


@dataclasses.dataclass(frozen=True)
class CostSnapshot:
    """Immutable view of the counters, for before/after deltas."""

    seeks: int
    page_transfers: int
    bytes_read: int
    bytes_written: int
    elapsed_ms: float

    def delta(self, earlier: "CostSnapshot") -> "CostSnapshot":
        """This snapshot minus an earlier one."""
        return CostSnapshot(
            seeks=self.seeks - earlier.seeks,
            page_transfers=self.page_transfers - earlier.page_transfers,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            elapsed_ms=self.elapsed_ms - earlier.elapsed_ms,
        )
