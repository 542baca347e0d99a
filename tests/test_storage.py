"""Tests for segment files, the block store, caches and the cost model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.codec import Reader
from repro.common.config import SebdbConfig
from repro.common.errors import CodecError, StorageError
from repro.crypto import KeyPair
from repro.model import (
    Block,
    GENESIS_PREV_HASH,
    SCHEMA_TNAME,
    Transaction,
    make_genesis,
)
from repro.storage import BlockLocation, BlockStore, CostModel, SegmentStore


def make_block(prev, height, count=4, tname="donate", start_tid=0):
    txs = [
        Transaction.create(tname, (f"v{i}", float(i)), ts=height * 100 + i,
                           sender=f"org{i % 2}").with_tid(start_tid + i)
        for i in range(count)
    ]
    return Block.package(prev, height, height * 100 + 99, txs)


def build_store(num_blocks=4, config=None):
    store = BlockStore(config or SebdbConfig.in_memory())
    genesis = make_genesis()
    store.append_block(genesis)
    prev = genesis.block_hash()
    tid = 0
    for h in range(1, num_blocks + 1):
        block = make_block(prev, h, start_tid=tid)
        store.append_block(block)
        prev = block.block_hash()
        tid += 4
    return store


class TestSegmentStore:
    def test_append_read_roundtrip(self):
        seg = SegmentStore(None, 1024)
        loc = seg.append(b"hello")
        assert seg.read(loc) == b"hello"

    def test_rollover(self):
        seg = SegmentStore(None, 10)
        loc1 = seg.append(b"x" * 8)
        loc2 = seg.append(b"y" * 8)
        assert loc1.segment == 0 and loc2.segment == 1
        assert seg.read(loc1) == b"x" * 8
        assert seg.read(loc2) == b"y" * 8

    def test_record_larger_than_segment_still_stored(self):
        seg = SegmentStore(None, 4)
        loc = seg.append(b"toolarge")
        assert seg.read(loc) == b"toolarge"

    def test_empty_append_rejected(self):
        with pytest.raises(StorageError):
            SegmentStore(None, 10).append(b"")

    def test_read_range(self):
        seg = SegmentStore(None, 100)
        loc = seg.append(b"0123456789")
        assert seg.read_range(loc, 2, 3) == b"234"

    def test_read_range_out_of_bounds(self):
        seg = SegmentStore(None, 100)
        loc = seg.append(b"0123")
        with pytest.raises(StorageError):
            seg.read_range(loc, 2, 10)

    def test_on_disk_roundtrip(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        locs = [seg.append(bytes([i]) * 40) for i in range(4)]
        assert seg.segment_count >= 2
        for i, loc in enumerate(locs):
            assert seg.read(loc) == bytes([i]) * 40

    def test_on_disk_recovery(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        loc = seg.append(b"persisted")
        del seg
        seg2 = SegmentStore(tmp_path, 64)
        assert seg2.read(loc) == b"persisted"
        loc2 = seg2.append(b"more")
        assert seg2.read(loc2) == b"more"

    def test_missing_segment_raises(self):
        seg = SegmentStore(None, 100)
        with pytest.raises(StorageError):
            seg.read(BlockLocation(segment=5, offset=0, length=1))

    def test_on_disk_read_range(self, tmp_path):
        seg = SegmentStore(tmp_path, 1024)
        seg.append(b"head")
        loc = seg.append(b"0123456789")
        assert seg.read_range(loc, 2, 3) == b"234"
        with pytest.raises(StorageError):
            seg.read_range(loc, 8, 3)

    def test_on_disk_missing_segment_raises(self, tmp_path):
        seg = SegmentStore(tmp_path, 1024)
        with pytest.raises(StorageError, match="missing segment"):
            seg.read(BlockLocation(segment=5, offset=0, length=1))

    def test_on_disk_short_read_raises(self, tmp_path):
        seg = SegmentStore(tmp_path, 1024)
        loc = seg.append(b"abc")
        with pytest.raises(StorageError, match="short read"):
            seg.read(BlockLocation(loc.segment, loc.offset, 10))


class TestBlockStore:
    def test_append_and_read(self):
        store = build_store(3)
        assert store.height == 4
        block = store.read_block(2)
        assert block.height == 2
        assert len(block.transactions) == 4

    def test_wrong_height_rejected(self):
        store = build_store(1)
        bad = make_block(store.tip_hash, 7)
        with pytest.raises(StorageError):
            store.append_block(bad)

    def test_broken_chain_rejected(self):
        store = build_store(1)
        bad = make_block(b"\xee" * 32, 2)
        with pytest.raises(StorageError):
            store.append_block(bad)

    def test_read_missing_block(self):
        store = build_store(1)
        with pytest.raises(StorageError):
            store.read_block(9)

    def test_read_transaction_point(self):
        store = build_store(2)
        tx = store.read_transaction(1, 2)
        assert tx.values[0] == "v2"

    def test_read_transaction_bad_index(self):
        store = build_store(1)
        with pytest.raises(StorageError):
            store.read_transaction(1, 99)

    def test_headers_match_blocks(self):
        store = build_store(3)
        headers = store.headers
        assert len(headers) == 4
        assert headers[2].height == 2
        assert headers[2].block_hash() == store.read_block(2).block_hash()

    def test_iter_blocks_range(self):
        store = build_store(4)
        heights = [b.height for b in store.iter_blocks(1, 3)]
        assert heights == [1, 2]

    def test_listener_fired(self):
        store = BlockStore(SebdbConfig.in_memory())
        seen = []
        store.add_listener(lambda block, loc: seen.append(block.height))
        store.append_block(make_genesis())
        assert seen == [0]

    def test_location_exposed(self):
        store = build_store(1)
        loc = store.location(1)
        assert loc.length == store.block_size(1)


class TestCaching:
    def test_transaction_cache_hits(self):
        config = SebdbConfig.in_memory(cache_mode="transaction")
        store = build_store(2, config)
        store.cost.reset()
        store.read_transaction(1, 0)
        seeks_first = store.cost.seeks
        store.read_transaction(1, 0)
        assert store.cost.seeks == seeks_first  # second read free
        assert store.tx_cache.hits == 1

    def test_block_cache_hits(self):
        config = SebdbConfig.in_memory(cache_mode="block")
        store = build_store(2, config)
        store.cost.reset()
        store.read_block(1)
        seeks_first = store.cost.seeks
        store.read_block(1)
        assert store.cost.seeks == seeks_first
        assert store.block_cache.hits == 1

    def test_block_cache_serves_point_reads(self):
        config = SebdbConfig.in_memory(cache_mode="block")
        store = build_store(2, config)
        store.read_block(1)
        store.cost.reset()
        tx = store.read_transaction(1, 1)
        assert tx.values[0] == "v1"
        assert store.cost.seeks == 0  # came from the cached block

    def test_no_cache_mode(self):
        config = SebdbConfig.in_memory(cache_mode="none")
        store = build_store(2, config)
        store.cost.reset()
        store.read_block(1)
        store.read_block(1)
        assert store.cost.seeks == 2

    def test_clear_caches(self):
        config = SebdbConfig.in_memory(cache_mode="block")
        store = build_store(2, config)
        store.read_block(1)
        store.clear_caches()
        store.cost.reset()
        store.read_block(1)
        assert store.cost.seeks == 1

    def test_disk_backed_store(self, tmp_path):
        config = SebdbConfig.in_memory()
        config.data_dir = tmp_path
        store = build_store(3, config)
        assert store.read_block(3).height == 3
        assert any(tmp_path.glob("segment-*.dat"))


class TestCacheAccounting:
    """Entries are sized by the stored length they were decoded from; on
    a canonical chain that is what re-encoding them gave, so every Fig 22
    counter is the one a re-encoding sizer produced."""

    #: (hits, misses, evictions, used_bytes) of the mix below, measured
    #: with entries sized by re-encoding them
    PINNED = {"transaction": (600, (89, 90, 72, 575)),
              "block": (1500, (250, 50, 43, 1431))}

    @pytest.mark.parametrize("cache_mode", sorted(PINNED))
    def test_query_mix_counters(self, cache_mode):
        capacity, pinned = self.PINNED[cache_mode]
        store = build_store(8, SebdbConfig.in_memory(
            cache_mode=cache_mode, cache_bytes=capacity))
        rng = random.Random(5)
        for _ in range(300):
            height = rng.randrange(1, store.height)
            kind = rng.random()
            if kind < 0.6:
                store.read_transaction(height, rng.randrange(4))
            elif kind < 0.8:
                store.read_block(height)
            else:
                store.scan_block(height, ("donate",))
        cache = store.tx_cache if cache_mode == "transaction" else store.block_cache
        assert cache.used_bytes == sum(len(cache.peek(key).to_bytes()) for key in cache)
        assert (cache.hits, cache.misses, cache.evictions, cache.used_bytes) == pinned

    def test_on_disk_point_read_sized_by_stored_length(self, tmp_path):
        store = build_store(2, SebdbConfig.in_memory(data_dir=tmp_path))
        tx = store.read_transaction(2, 3)
        assert store.tx_cache.used_bytes == tx.size_bytes()


# -- scan_block: the filtered whole-block read --------------------------------

SCAN_TNAMES = ("donate", "transfer", "distribute", "überweisung", "捐赠",
               SCHEMA_TNAME)
SCAN_SENDERS = ("org1", "org2", "système", "组织-3",
                KeyPair.from_seed("scan-block").address)
CACHE_MODES = ("none", "transaction", "block")

_values = st.lists(
    st.one_of(st.none(), st.booleans(), st.integers(-2**40, 2**40),
              st.text(max_size=12), st.binary(max_size=12)),
    max_size=4,
).map(tuple)
_sigs = st.one_of(  # unsigned, Schnorr-sized, long enough for a 2-byte length
    st.just(b""), st.binary(min_size=64, max_size=64),
    st.binary(min_size=128, max_size=300),
)
_unsequenced = st.builds(
    Transaction,
    ts=st.integers(0, 2**45),
    senid=st.sampled_from(SCAN_SENDERS),
    tname=st.sampled_from(SCAN_TNAMES),
    values=_values,
    pubkey=st.sampled_from((b"", b"\x02" * 33)),
    sig=_sigs,
    nonce=st.sampled_from(("", "n-1", "ñ")),
)
_tname_filters = st.one_of(
    st.none(), st.lists(st.sampled_from(SCAN_TNAMES + ("absent",)),
                        max_size=3).map(tuple),
)
_senid_filters = st.one_of(
    st.none(), st.sampled_from(SCAN_SENDERS + ("nobody",)))


def one_block_store(txs, cache_mode):
    """An empty genesis plus one block holding ``txs``, tids assigned."""
    store = BlockStore(SebdbConfig.in_memory(cache_mode=cache_mode))
    genesis = make_genesis()
    store.append_block(genesis)
    sequenced = [tx.with_tid(i * 50) for i, tx in enumerate(txs)]
    store.append_block(Block.package(genesis.block_hash(), 1, 99, sequenced))
    return store


def cold_read(store, read):
    """``read(tracker)`` on cold caches -> (result, tracker I/O, global I/O)."""
    store.clear_caches()
    tracker = store.cost.tracker()
    before = store.cost.snapshot()
    out = read(tracker)
    delta = store.cost.snapshot().delta(before)
    return (out, (tracker.seeks, tracker.page_transfers, tracker.bytes_read),
            (delta.seeks, delta.page_transfers, delta.bytes_read))


def check_wire_prefix(data):
    """The walker raises nothing but CodecError, and wherever the full
    decode succeeds it names that transaction's sender and table."""
    try:
        prefix = Transaction.wire_prefix(data)
    except CodecError:
        prefix = None
    try:
        tx = Transaction.from_bytes(data)
    except CodecError:
        return
    assert prefix == (tx.senid.encode("utf-8"), tx.tname.encode("utf-8"))


class TestWirePrefixHostileBytes:
    @settings(deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, data):
        check_wire_prefix(data)

    @settings(max_examples=40, deadline=None)
    @given(_unsequenced, st.integers(-1, 2**40))
    def test_every_truncation_and_single_byte_mutation(self, tx, tid):
        raw = tx.with_tid(tid).to_bytes()
        assert Transaction.wire_prefix(raw) == (
            tx.senid.encode("utf-8"), tx.tname.encode("utf-8"))
        for cut in range(len(raw)):
            check_wire_prefix(raw[:cut])
        for i, byte in enumerate(raw):
            for mutant in {byte ^ 0x01, byte ^ 0x80, 0x00, 0xFF} - {byte}:
                check_wire_prefix(raw[:i] + bytes([mutant]) + raw[i + 1:])

    @pytest.mark.parametrize("lead", [0, 2, 3, 5])
    def test_varint_cap_matches_reader(self, lead):
        """146 continuation bytes are a (huge) varint, 147 are refused -
        in a skipped field, a skipped length and a kept length alike."""
        head = b"\x00" * lead
        with pytest.raises(CodecError, match="too long"):
            Transaction.wire_prefix(head + b"\x80" * 147 + b"\x00" * 8)
        with pytest.raises(CodecError, match="too long"):
            Reader(head + b"\x80" * 147 + b"\x00", lead).read_varint()
        ok = head + b"\x80" * 146 + b"\x01" + b"\x00" * 7
        assert Reader(ok, lead).read_varint() == 1 << 1022
        if lead == 0:  # a huge tid, then empty fields up to tname
            assert Transaction.wire_prefix(ok) == (b"", b"")
        else:  # a huge length runs past the buffer
            with pytest.raises(CodecError, match="underflow"):
                Transaction.wire_prefix(ok)
        # a zero spelt in 147 bytes is not minimal
        with pytest.raises(CodecError, match="non-minimal varint"):
            Transaction.wire_prefix(head + b"\x80" * 146 + b"\x00" * 8)

    def test_lengths_past_the_end(self):
        tx = Transaction.create("donate", ("a",), ts=1, sender="org1").with_tid(3)
        raw = tx.to_bytes()
        tname_at = raw.index(b"\x06donate")
        with pytest.raises(CodecError):  # tname claims one byte too many
            Transaction.wire_prefix(raw[:tname_at] + b"\x07donate")
        with pytest.raises(CodecError):  # a sig length no buffer can hold
            Transaction.wire_prefix(b"\x00\x00" + b"\xff" * 100 + b"\x7f")


class TestScanBlock:
    @settings(deadline=None)
    @given(txs=st.lists(_unsequenced, max_size=12), tnames=_tname_filters,
           senid=_senid_filters)
    def test_equals_filtered_read_block(self, txs, tnames, senid):
        """Same tuples, same order, same bytes, same I/O as a whole-block
        read filtered afterwards - in every cache mode."""
        for cache_mode in CACHE_MODES:
            store = one_block_store(txs, cache_mode)
            for height in (0, 1):  # the empty genesis, then the mixed block
                block, block_own, block_global = cold_read(
                    store, lambda t: store.read_block(height, t))
                scanned, scan_own, scan_global = cold_read(
                    store,
                    lambda t: store.scan_block(height, tnames, senid, t))
                expected = [
                    tx for tx in block.transactions
                    if (tnames is None or tx.tname in tnames)
                    and (senid is None or tx.senid == senid)
                ]
                assert [tx.to_bytes() for tx in scanned] == \
                    [tx.to_bytes() for tx in expected], cache_mode
                assert scanned == expected
                assert scan_own == block_own == scan_global == block_global
                assert scan_own[0] == 1

    def test_filter_is_exact_not_case_folded(self):
        tx = Transaction.create("donate", (), ts=1, sender="Org1")
        for cache_mode in CACHE_MODES:
            store = one_block_store([tx], cache_mode)
            assert store.scan_block(1, ("DONATE",)) == []
            assert store.scan_block(1, None, "org1") == []
            assert len(store.scan_block(1, ("donate",), "Org1")) == 1

    def test_block_cache_serves_repeat_scans(self):
        store = build_store(2, SebdbConfig.in_memory(cache_mode="block"))
        store.scan_block(1, ("donate",))
        store.cost.reset()
        assert len(store.scan_block(1, ("donate",), "org1")) == 2
        assert store.cost.seeks == 0
        assert store.block_cache.hits == 1

    def test_missing_block(self):
        store = build_store(1)
        with pytest.raises(StorageError):
            store.scan_block(9, ("donate",))

    def test_scanner_forwards_to_its_tracker(self):
        store = build_store(2)
        store.cost.reset()
        own = store.cost.tracker()
        rows = store.scanner(own).scan_block(2, ("donate",), "org0")
        assert [tx.values[0] for tx in rows] == ["v0", "v2"]
        assert own.seeks == store.cost.seeks == 1
        assert own.bytes_read == store.cost.bytes_read == store.block_size(2)

    @pytest.mark.parametrize("damage", ["trailing", "truncated", "count", "header"])
    def test_framing_is_still_checked(self, damage, monkeypatch):
        """What Block.from_bytes would refuse, scan_block refuses too -
        even when no transaction of the damaged block is wanted."""
        store = build_store(1, SebdbConfig.in_memory(cache_mode="none"))
        good = store._segments.read(store.location(1))
        if damage == "count":
            store._tx_offsets[1] = store._tx_offsets[1][:-1]
            bad = good
        else:
            bad = {"trailing": good + b"\x00", "truncated": good[:-1],
                   "header": b"\x05" + good[1:]}[damage]
        monkeypatch.setattr(store._segments, "read", lambda location: bad)
        with pytest.raises(CodecError):
            store.scan_block(1, ("absent",))
        if damage != "count":
            with pytest.raises(CodecError):
                store.read_block(1)


class TestCostModel:
    def test_pages_for(self):
        cost = CostModel(page_size=100)
        assert cost.pages_for(0) == 0
        assert cost.pages_for(1) == 1
        assert cost.pages_for(100) == 1
        assert cost.pages_for(101) == 2

    def test_record_read(self):
        cost = CostModel(seek_ms=2.0, transfer_ms=1.0, page_size=10)
        cost.record_read(25)
        assert cost.seeks == 1 and cost.page_transfers == 3
        assert cost.elapsed_ms() == pytest.approx(2.0 + 3.0)

    def test_equation_1_scan(self):
        """C = n*tS + (f*n/b)*tT, the paper's eq. (1)."""
        cost = CostModel(seek_ms=4.0, transfer_ms=0.1, page_size=4096)
        n, f = 100, 4 * 1024 * 1024
        expected = n * 4.0 + (f * n / 4096) * 0.1
        assert cost.estimate_scan(n, f) == pytest.approx(expected)

    def test_equation_2_bitmap_bounded_by_scan(self):
        cost = CostModel()
        assert cost.estimate_bitmap(10, 1000) <= cost.estimate_scan(50, 1000)

    def test_equation_3_layered(self):
        cost = CostModel(seek_ms=4.0, transfer_ms=0.1)
        assert cost.estimate_layered(100) == pytest.approx(100 * 4.1)

    def test_snapshot_delta(self):
        cost = CostModel()
        first = cost.snapshot()
        cost.record_read(100)
        delta = cost.snapshot().delta(first)
        assert delta.seeks == 1
        assert delta.bytes_read == 100

    def test_store_accounting_matches_block_size(self):
        store = build_store(1)
        store.cost.reset()
        store.read_block(1)
        assert store.cost.bytes_read == store.block_size(1)
        assert store.cost.page_transfers == store.cost.pages_for(
            store.block_size(1)
        )
