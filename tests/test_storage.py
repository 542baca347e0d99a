"""Tests for segment files, the block store, caches and the cost model."""

import errno
import gc
import os
import random
import tempfile
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import build_join_dataset
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
from repro.storage.blockstore import serialize_block


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


def sixteen_block_average(store):
    """The optimizer's block size f as a loop: the newest 16 blocks'
    stored sizes (all of them on a shorter chain), averaged."""
    if store.height == 0:
        return 0
    sample = min(store.height, 16)
    return sum(store.block_size(h)
               for h in range(store.height - sample, store.height)) // sample


def grow(store, blocks, seed):
    """Append ``blocks`` blocks of 1-9 transactions each."""
    rng = random.Random(seed)
    if store.height == 0:
        store.append_block(make_genesis())
    tid = 0
    for _ in range(blocks):
        count = rng.randint(1, 9)
        block = make_block(store.tip_hash, store.height, count=count,
                           start_tid=tid)
        store.append_block(block)
        tid += count


class TestRecentBlockSize:
    """``BlockStore.recent_block_size`` keeps the sum the optimizer's
    average block size once re-summed on every ranking."""

    def test_matches_the_loop_across_appends(self):
        store = BlockStore()
        assert store.recent_block_size() == 0
        store.append_block(make_genesis())
        rng = random.Random(7)
        tid = 0
        for height in range(1, 40):
            # shorter than the window first, then sliding past it
            count = rng.randint(1, 9)
            store.append_block(make_block(store.tip_hash, height,
                                          count=count, start_tid=tid))
            tid += count
            assert store.recent_block_size() == sixteen_block_average(store)

    @pytest.mark.parametrize("blocks", [5, 30])
    def test_after_reopen(self, tmp_path, blocks):
        config = SebdbConfig.in_memory(data_dir=tmp_path)
        store = BlockStore(config)
        grow(store, blocks, seed=blocks)
        expected = store.recent_block_size()
        assert expected == sixteen_block_average(store)
        store.close()
        reopened = BlockStore(config)
        assert reopened.height == blocks + 1
        assert reopened.recent_block_size() == expected
        reopened.close()

    def test_after_a_trusted_checkpoint_fallback(self, tmp_path):
        config = SebdbConfig.in_memory(data_dir=tmp_path)
        store = BlockStore(config)
        grow(store, 25, seed=3)
        expected = sixteen_block_average(store)
        store.close()
        # an anchor the chain does not reproduce: the whole store is
        # parsed again from an emptied chain state
        reopened = BlockStore(config, trusted_checkpoint=(10, b"\x00" * 32))
        assert reopened.recovery_report["trusted_fallback"] is True
        assert reopened.recent_block_size() == expected
        reopened.close()


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


def held_fds(seg):
    """The read descriptors ``seg`` holds, by segment."""
    return dict(seg._fds)


def assert_closed(fds):
    for fd in fds:
        with pytest.raises(OSError) as info:
            os.fstat(fd)
        assert info.value.errno == errno.EBADF


class TestHeldReadHandles:
    """One read descriptor per segment, opened on the first read and
    released by ``close()``, by garbage collection and before
    ``truncate_after`` cuts or unlinks a file."""

    def test_one_descriptor_per_segment(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        locs = [seg.append(bytes([i]) * 40) for i in range(4)]
        for _ in range(3):
            for i, loc in enumerate(locs):
                assert seg.read(loc) == bytes([i]) * 40
        assert sorted(held_fds(seg)) == sorted({loc.segment for loc in locs})
        seg.close()

    def test_read_after_truncate_sees_new_bytes(self, tmp_path):
        seg = SegmentStore(tmp_path, 16)
        first = seg.append(b"A" * 10)
        cut = seg.append(b"B" * 10)
        assert cut.segment == 1
        assert seg.read(first) == b"A" * 10
        assert seg.read(cut) == b"B" * 10
        stale = list(held_fds(seg).values())
        assert seg.truncate_after(0, 10) == 10
        assert_closed(stale)
        # the same segment numbers and offsets, new files' contents
        again = seg.append(b"c" * 10)
        assert again == cut
        assert seg.read(again) == b"c" * 10
        assert seg.read(first) == b"A" * 10
        seg.close()

    def test_close_releases_descriptors(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        locs = [seg.append(bytes([i]) * 40) for i in range(3)]
        for loc in locs:
            seg.read(loc)
        fds = list(held_fds(seg).values())
        assert len(fds) == len({loc.segment for loc in locs}) > 1
        seg.close()
        assert held_fds(seg) == {}
        assert_closed(fds)
        seg.close()  # idempotent

    def test_collection_releases_descriptors(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        seg.read(seg.append(b"kept"))
        fds = list(held_fds(seg).values())
        assert fds
        del seg
        gc.collect()
        assert_closed(fds)

    def test_reads_after_close_open_the_segment_again(self, tmp_path):
        seg = SegmentStore(tmp_path, 64)
        loc = seg.append(b"persisted")
        assert seg.read(loc) == b"persisted"
        seg.close()
        assert seg.read(loc) == b"persisted"
        assert list(held_fds(seg)) == [loc.segment]
        later = seg.append(b"more")
        assert seg.read(later) == b"more"
        seg.close()
        assert held_fds(seg) == {}

    def test_node_close_releases_descriptors(self, tmp_path):
        from repro.node import FullNode

        node = FullNode("n0", config=SebdbConfig.in_memory(data_dir=tmp_path))
        node.create_table("CREATE t (a string)")
        node.insert("t", ("x",))
        assert len(node.query("SELECT * FROM t")) == 1
        fds = list(held_fds(node.store._segments).values())
        assert fds
        node.close()
        assert_closed(fds)
        assert len(node.query("SELECT * FROM t")) == 1
        node.close()


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

    def test_block_cache_keeps_no_records(self):
        # a cached block holds its decoded fields only (its entry is sized
        # by the stored length); an uncached read keeps each record
        cached = build_store(2, SebdbConfig.in_memory(cache_mode="block"))
        uncached = build_store(2, SebdbConfig.in_memory(cache_mode="none"))
        for tx in cached.read_block(1).transactions:
            assert tx.to_bytes() is not tx.to_bytes()
        for tx in uncached.read_block(1).transactions:
            assert tx.to_bytes() is tx.to_bytes()
        assert cached.read_records(1) == uncached.read_records(1)

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


def one_block_store(txs, cache_mode, **overrides):
    """An empty genesis plus one block holding ``txs``, tids assigned."""
    store = BlockStore(SebdbConfig.in_memory(cache_mode=cache_mode, **overrides))
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


def assert_record_names_decoded(store, height, label):
    """The store's names of a block's records are the decoded ones."""
    txs = store.read_block(height).transactions
    assert store.record_names(height) == (
        [tx.tname for tx in txs], [tx.senid for tx in txs]), (label, height)


def assert_scan_equals_filtered_read(store, heights, tnames, senid, label):
    """Same tuples, same order, same bytes, same I/O as a whole-block read
    filtered afterwards, and record names as the block decodes."""
    for height in heights:
        assert_record_names_decoded(store, height, label)
        block, block_own, block_global = cold_read(
            store, lambda t: store.read_block(height, t))
        scanned, scan_own, scan_global = cold_read(
            store, lambda t: store.scan_block(height, tnames, senid, t))
        expected = [
            tx for tx in block.transactions
            if (tnames is None or tx.tname in tnames)
            and (senid is None or tx.senid == senid)
        ]
        assert [tx.to_bytes() for tx in scanned] == \
            [tx.to_bytes() for tx in expected], (label, height)
        assert scanned == expected, (label, height)
        assert scan_own == block_own == scan_global == block_global
        assert scan_own[0] == 1


class TestScanBlock:
    @settings(deadline=None)
    @given(txs=st.lists(_unsequenced, max_size=12), tnames=_tname_filters,
           senid=_senid_filters)
    def test_equals_filtered_read_block(self, txs, tnames, senid):
        """In every cache mode, whichever way the store learnt its blocks:
        appended, parsed on a reopen (through a checkpoint fallback that
        parses twice), appended after the reopen, and past a torn tail
        the reopen left and ``discard_torn_tail`` cut."""
        for cache_mode in CACHE_MODES:
            store = one_block_store(txs, cache_mode)
            # the empty genesis, then the mixed block
            assert_scan_equals_filtered_read(
                store, (0, 1), tnames, senid, cache_mode)
            block = Block.package(
                store.header(1).block_hash(), 2, 199,
                [tx.with_tid(5000 + i) for i, tx in enumerate(reversed(txs))])
            with tempfile.TemporaryDirectory() as data_dir:
                config = SebdbConfig.in_memory(cache_mode=cache_mode,
                                               data_dir=data_dir)
                written = BlockStore(config)
                for height in (0, 1):
                    written.append_block(store.read_block(height))
                written.simulate_torn_append(serialize_block(block)[0][:-3])
                written.close()
                reopened = BlockStore(config, trusted_checkpoint=(2, b"\0" * 32))
                try:
                    assert reopened.recovery_report["trusted_fallback"]
                    assert reopened.height == 2
                    assert_scan_equals_filtered_read(
                        reopened, (0, 1), tnames, senid, (cache_mode, "reopened"))
                    assert reopened.discard_torn_tail() > 0
                    reopened.append_block(block)
                    assert_scan_equals_filtered_read(
                        reopened, (0, 1, 2), tnames, senid,
                        (cache_mode, "appended after the reopen"))
                finally:
                    reopened.close()

    def test_tags_past_one_byte(self):
        """Blocks tagged while the store knew at most 256 names keep a
        byte a tag, later blocks wider tags; both scan alike, also after
        a reopen re-tags them all, and after a checkpoint fallback whose
        verified parse admits fewer blocks, and names, than the first."""
        with tempfile.TemporaryDirectory() as data_dir:
            config = SebdbConfig.in_memory(cache_mode="none", data_dir=data_dir)
            store = BlockStore(config)
            blocks = [make_genesis()]
            store.append_block(blocks[0])

            def donations(height, first_sender):
                txs = [Transaction.create(
                    "donate", (i,), ts=height,
                    sender=f"s{first_sender + i}").with_tid(150 * (height - 1) + i)
                    for i in range(150)]
                return Block.package(blocks[height - 1].block_hash(), height,
                                     height, txs)

            for height in range(1, 4):  # 151, 301 and 451 names known after
                blocks.append(donations(height, 150 * (height - 1)))
                store.append_block(blocks[-1])
            store.close()
            for opened in (store, BlockStore(config)):
                try:
                    for height in range(1, 4):
                        for sender in (f"s{150 * (height - 1)}",
                                       f"s{150 * height - 1}"):
                            rows = opened.scan_block(height, ("donate",), sender)
                            assert [tx.senid for tx in rows] == [sender]
                        assert opened.scan_block(height, None, "s450") == []
                        assert len(opened.scan_block(height, ("donate",))) == 150
                        assert_record_names_decoded(opened, height, "wide tags")
                finally:
                    opened.close()
            # a sender of block 3 altered on disk: the checkpoint's parse
            # admits and tags it, the verified parse stops before block 3
            path = os.path.join(data_dir, f"segment-{store.location(3).segment:06d}.dat")
            with open(path, "rb") as segment:
                data = segment.read()
            assert data.count(b"\x04s449") == 1
            with open(path, "wb") as segment:
                segment.write(data.replace(b"\x04s449", b"\x04s44x"))
            reopened = BlockStore(config, trusted_checkpoint=(4, b"\0" * 32))
            try:
                assert reopened.recovery_report["trusted_fallback"]
                assert reopened.height == 3
                assert reopened.discard_torn_tail() > 0
                reopened.append_block(donations(3, 600))  # 150 new names
                rows = reopened.scan_block(3, ("donate",), "s749")
                assert [tx.senid for tx in rows] == ["s749"]
                for height in range(4):
                    assert_record_names_decoded(reopened, height, "fallback")
            finally:
                reopened.close()

    def test_join_scan_decodes_only_kept_records(self, monkeypatch):
        """A hash join over 100 blocks of 60 records picks its tables'
        records on the scan tags: only the two tables' 600 records decoded
        out of 6 000."""
        dataset = build_join_dataset(num_blocks=100, txs_per_block=60,
                                     table_rows=300, result_pairs=50)
        engine = dataset.node.engine
        dataset.store.clear_caches()
        decodes = []
        from_bytes = Transaction.from_bytes

        def counting(cls, data):
            decodes.append(1)
            return from_bytes(data)

        monkeypatch.setattr(Transaction, "from_bytes", classmethod(counting))
        result = engine.execute(
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization",
            method="bitmap")
        assert result.plan.root.children[0].name == "HashJoin"
        assert len(result) >= 50
        assert len(decodes) == 600

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


def cache_counters(store):
    return tuple((cache.hits, cache.misses, cache.evictions, cache.used_bytes)
                 for cache in (store.tx_cache, store.block_cache))


class TestReadPositions:
    @settings(deadline=None, max_examples=40)
    @given(txs=st.lists(_unsequenced, min_size=1, max_size=8),
           picks=st.lists(st.integers(0, 63), max_size=10),
           stop=st.integers(0, 10), cache_bytes=st.sampled_from((300, 1 << 20)))
    def test_equals_successive_point_reads(self, txs, picks, stop, cache_bytes):
        """The positional read over P leaves what len(P) read_transaction
        calls leave - tuples, global and tracker I/O, cache traffic and
        evictions - in every cache mode, and when the consumer stops
        after k rows it leaves what k calls leave."""
        positions = [pick % len(txs) for pick in picks]
        k = min(stop, len(positions))
        for cache_mode in CACHE_MODES:
            for take in {k, len(positions)}:
                point_store = one_block_store(txs, cache_mode,
                                              cache_bytes=cache_bytes)
                point = cold_read(point_store, lambda t: [
                    point_store.read_transaction(1, p, t)
                    for p in positions[:take]])
                store = one_block_store(txs, cache_mode, cache_bytes=cache_bytes)
                batch = cold_read(store, lambda t: list(
                    islice(store.read_positions(1, positions, t), take)))
                assert batch == point, (cache_mode, take)
                assert cache_counters(store) == cache_counters(point_store)

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("cache_mode", CACHE_MODES)
    def test_out_of_range_charges_nothing(self, cache_mode, raw):
        store = build_store(2, SebdbConfig.in_memory(cache_mode=cache_mode))
        tracker = store.cost.tracker()
        before = store.cost.snapshot()
        for positions in ([0, 1, 4], [-1], [3, 2, 99]):
            with pytest.raises(StorageError, match="no transaction index"):
                list(store.read_positions(1, positions, tracker, raw=raw))
        assert store.cost.snapshot() == before
        assert (tracker.seeks, tracker.bytes_read) == (0, 0)
        assert cache_counters(store) == ((0, 0, 0, 0), (0, 0, 0, 0))

    @pytest.mark.parametrize("cache_mode", ["none", "transaction"])
    def test_one_segment_span_on_the_first_miss(self, cache_mode, monkeypatch):
        store = build_store(2, SebdbConfig.in_memory(cache_mode=cache_mode))
        spans = []
        read_range = store._segments.read_range
        monkeypatch.setattr(store._segments, "read_range",
                            lambda *args: spans.append(args) or read_range(*args))
        store.read_transaction(1, 1)
        spans.clear()
        rows = store.read_positions(1, [1, 3, 0, 3])
        assert next(rows).values[0] == "v1"
        assert len(spans) == (0 if cache_mode == "transaction" else 1)
        assert [tx.values[0] for tx in rows] == ["v3", "v0", "v3"]
        assert len(spans) == 1


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
