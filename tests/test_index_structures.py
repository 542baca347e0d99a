"""Tests for the block-level, table-level and layered indexes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.generator import (
    Dataset,
    build_join_dataset,
    create_standard_indexes,
)
from repro.bench.schema import ONCHAIN_SCHEMAS
from repro.common.config import SebdbConfig
from repro.common.errors import CodecError, IndexError_
from repro.common.hashing import hash_leaf
from repro.index import (
    Bitmap,
    BlockIndex,
    IndexManager,
    LayeredIndex,
    TableBitmapIndex,
    ranges_intersect,
)
from repro.index import manager as manager_module
from repro.index.histogram import EqualDepthHistogram
from repro.index.manager import app_extractor, system_extractor
from repro.mht.mbtree import MBTree
from repro.model import Block, GENESIS_PREV_HASH, Transaction
from repro.model.genesis import make_genesis
from repro.node.fullnode import FullNode
from repro.storage.segment import BlockLocation


def make_block(height, specs, prev=GENESIS_PREV_HASH, start_tid=0):
    """specs: list of (tname, sender, values, ts)."""
    txs = [
        Transaction.create(tname, values, ts=ts, sender=sender).with_tid(
            start_tid + i
        )
        for i, (tname, sender, values, ts) in enumerate(specs)
    ]
    return Block.package(prev, height, max((s[3] for s in specs),
                                           default=height), txs)


def loc(n=0):
    return BlockLocation(0, n * 100, 100)


class TestBlockIndex:
    def build(self):
        index = BlockIndex(order=4)
        prev = GENESIS_PREV_HASH
        tid = 0
        for height in range(6):
            specs = [("t", "s", (), height * 100 + j) for j in range(4)]
            block = make_block(height, specs, prev, start_tid=tid)
            index.add_block(block, loc(height))
            prev = block.block_hash()
            tid += 4
        return index

    def test_by_bid(self):
        index = self.build()
        assert index.by_bid(3).bid == 3
        assert index.by_bid(99) is None

    def test_by_tid(self):
        index = self.build()
        # tids 0..23, block i holds 4i..4i+3
        assert index.by_tid(0).bid == 0
        assert index.by_tid(5).bid == 1
        assert index.by_tid(23).bid == 5
        assert index.by_tid(99) is None

    def test_by_timestamp_floor(self):
        index = self.build()
        # block h is packaged at ts 100h+3 (its last transaction's ts)
        assert index.by_timestamp(250).bid == 2
        assert index.by_timestamp(3).bid == 0
        assert index.by_timestamp(2) is None  # before the first block

    def test_window_bitmap_on_tx_timestamps(self):
        index = self.build()
        # block h holds tx ts in [100h, 100h+3]
        assert list(index.window_bitmap(100, 203)) == [1, 2]
        assert list(index.window_bitmap(None, 3)) == [0]
        assert list(index.window_bitmap(550, None)) == []
        assert len(index.window_bitmap(None, None)) == 6

    def test_all_blocks_bitmap(self):
        index = self.build()
        assert list(index.all_blocks_bitmap()) == list(range(6))

    def test_monotonicity_enforced(self):
        index = self.build()
        stale = make_block(2, [("t", "s", (), 1)], start_tid=999)
        with pytest.raises(IndexError_):
            index.add_block(stale, loc())

    def test_empty_block_indexed(self):
        index = BlockIndex()
        block = Block.package(GENESIS_PREV_HASH, 0, 50, [])
        index.add_block(block, loc())
        assert index.by_bid(0).first_tid == -1


_bounds = st.none() | st.integers(-5, 105)


class TestLevelOneBitmaps:
    """Candidate bitmaps built as one int select exactly the blocks a
    per-block ``Bitmap.set`` loop selects."""

    @settings(deadline=None, max_examples=60)
    @given(blocks=st.lists(st.lists(st.integers(0, 100), max_size=4),
                           max_size=12),
           start=_bounds, end=_bounds)
    # a late block below an early one's min_ts, or above a later one's
    # max_ts: the window's bisect bounds must still reach it
    @example(blocks=[[5], [50], [60], [3]], start=None, end=4)
    @example(blocks=[[90], [10], [20]], start=50, end=None)
    # out-of-order timestamps on both edges of the run set whole: blocks
    # before it reaching into the window, blocks after it reaching back
    @example(blocks=[[5, 40], [2], [30], [35, 45], [50], [10, 60], [99]],
             start=30, end=50)
    @example(blocks=[[60], [1, 20], [25], [28], [95], [21, 22]],
             start=20, end=30)
    # a window inside one block's range
    @example(blocks=[[10], [20, 90], [95]], start=40, end=60)
    def test_window_bitmap_equals_reference_loop(self, blocks, start, end):
        # transaction timestamps jump back and forth between blocks; only
        # the packaging timestamps (the heights) are monotone
        index = BlockIndex(order=4)
        prev, tid, expected = GENESIS_PREV_HASH, 0, Bitmap()
        for height, stamps in enumerate(blocks):
            txs = [Transaction.create("t", (), ts=ts, sender="s").with_tid(tid + i)
                   for i, ts in enumerate(stamps)]
            block = Block.package(prev, height, height, txs)
            index.add_block(block, loc(height))
            prev, tid = block.block_hash(), tid + len(txs)
            low, high = (min(stamps), max(stamps)) if stamps else (height, height)
            if start is not None and high < start:
                continue
            if end is not None and low > end:
                continue
            expected.set(height)
        assert index.window_bitmap(start, end) == expected

    @settings(deadline=None, max_examples=60)
    @given(blocks=st.lists(st.lists(st.none() | st.integers(0, 100), max_size=4),
                           max_size=12),
           bounds=st.lists(st.integers(0, 100), max_size=4),
           low=_bounds, high=_bounds)
    def test_continuous_candidates_equal_reference_loop(
            self, blocks, bounds, low, high):
        histogram = EqualDepthHistogram(sorted(set(bounds)))
        index = LayeredIndex("v", lambda tx: tx.values[0], continuous=True,
                             histogram=histogram)
        mask = 0
        for bucket in histogram.buckets_overlapping(low, high):
            mask |= 1 << bucket
        expected, tid = Bitmap(), 0
        for height, values in enumerate(blocks):
            specs = [("t", "s", (value,), height) for value in values]
            index.add_block(make_block(height, specs, start_tid=tid))
            tid += len(values)
            for value in values:
                if value is not None and mask >> histogram.bucket_of(value) & 1:
                    expected.set(height)
        assert index.candidate_blocks_range(low, high) == expected


class TestTableBitmapIndex:
    def build(self):
        index = TableBitmapIndex()
        index.add_block(make_block(0, [("a", "s1", (), 0), ("b", "s2", (), 1)]))
        index.add_block(make_block(1, [("a", "s1", (), 2)], start_tid=2))
        index.add_block(make_block(2, [("b", "s1", (), 3)], start_tid=3))
        return index

    def test_blocks_for_table(self):
        index = self.build()
        assert list(index.blocks_for_table("a")) == [0, 1]
        assert list(index.blocks_for_table("b")) == [0, 2]
        assert list(index.blocks_for_table("zzz")) == []

    def test_blocks_for_sender(self):
        index = self.build()
        assert list(index.blocks_for_sender("s1")) == [0, 1, 2]
        assert list(index.blocks_for_sender("s2")) == [0]

    def test_union(self):
        index = self.build()
        assert list(index.blocks_for_tables(["a", "b"])) == [0, 1, 2]

    def test_tuple_count(self):
        index = self.build()
        assert index.tuple_count("a") == 2
        assert index.tuple_count("b") == 2
        assert index.tuple_count("none") == 0

    def test_selectivity(self):
        index = self.build()
        assert index.selectivity("a") == pytest.approx(2 / 3)

    def test_returned_bitmap_is_a_copy(self):
        index = self.build()
        bitmap = index.blocks_for_table("a")
        bitmap.set(50)
        assert 50 not in index.blocks_for_table("a")


class TestLayeredIndexDiscrete:
    def build(self):
        index = LayeredIndex(
            column="senid", extractor=lambda tx: tx.senid, continuous=False,
        )
        index.add_block(make_block(0, [("t", "org1", (), 0),
                                       ("t", "org2", (), 1)]))
        index.add_block(make_block(1, [("t", "org2", (), 2)], start_tid=2))
        index.add_block(make_block(2, [("t", "org1", (), 3),
                                       ("t", "org1", (), 4)], start_tid=3))
        return index

    def test_candidate_blocks_eq(self):
        index = self.build()
        assert list(index.candidate_blocks_eq("org1")) == [0, 2]
        assert list(index.candidate_blocks_eq("orgX")) == []

    def test_search_block_positions(self):
        index = self.build()
        assert index.search_block(2, "org1") == [0, 1]
        assert index.search_block(1, "org1") == []

    def test_first_level_bitmap(self):
        index = self.build()
        assert list(index.first_level_bitmap()) == [0, 1, 2]

    def test_block_values(self):
        index = self.build()
        assert index.block_values(0) == {"org1", "org2"}

    def test_block_value_bounds(self):
        index = self.build()
        assert index.block_value_bounds(0) == ("org1", "org2")
        assert index.block_value_bounds(99) is None

    def test_bucket_ranges_are_points(self):
        index = self.build()
        assert index.block_bucket_ranges(2) == [("org1", "org1")]

    def test_out_of_order_add_rejected(self):
        index = self.build()
        with pytest.raises(IndexError_):
            index.add_block(make_block(1, [("t", "x", (), 9)]))

    def test_candidate_range_on_discrete(self):
        index = self.build()
        got = index.candidate_blocks_range("org1", "org1")
        assert list(got) == [0, 2]


class TestLayeredIndexContinuous:
    def build(self):
        from repro.index import EqualDepthHistogram

        hist = EqualDepthHistogram([100.0, 200.0, 300.0])
        index = LayeredIndex(
            column="amount", extractor=lambda tx: tx.values[0],
            continuous=True, histogram=hist,
        )
        index.add_block(make_block(0, [("t", "s", (50.0,), 0),
                                       ("t", "s", (150.0,), 1)]))
        index.add_block(make_block(1, [("t", "s", (250.0,), 2)], start_tid=2))
        index.add_block(make_block(2, [("t", "s", (350.0,), 3)], start_tid=3))
        return index

    def test_histogram_required(self):
        with pytest.raises(IndexError_):
            LayeredIndex("x", lambda tx: 0, continuous=True)

    def test_candidate_blocks_range(self):
        index = self.build()
        # [120, 180] hits bucket (100,200] -> blocks 0 (has 150)
        assert list(index.candidate_blocks_range(120.0, 180.0)) == [0]
        # [220, 400] -> buckets (200,300] and (300,inf) -> blocks 1, 2
        assert list(index.candidate_blocks_range(220.0, 400.0)) == [1, 2]

    def test_range_block(self):
        index = self.build()
        assert index.range_block(0, 100.0, 200.0) == ([150.0], [1])

    def test_block_value_bounds_from_buckets(self):
        index = self.build()
        low, high = index.block_value_bounds(0)
        assert low is None          # bucket (-inf, 100]
        assert high == 200.0        # bucket (100, 200]

    def test_none_values_skipped(self):
        index = self.build()
        index.add_block(make_block(3, [("t", "s", (None,), 9)], start_tid=9))
        assert not index.has_tree(3)

    def test_tree_access_raises_when_absent(self):
        index = self.build()
        with pytest.raises(IndexError_):
            index.tree(42)


class TestRangesIntersect:
    def test_overlap(self):
        assert ranges_intersect([(1, 5)], [(4, 9)])
        assert ranges_intersect([(1, 5), (20, 30)], [(25, 26)])

    def test_disjoint(self):
        assert not ranges_intersect([(1, 5)], [(6, 9)])

    def test_touching_counts(self):
        assert ranges_intersect([(1, 5)], [(5, 9)])

    def test_open_ends(self):
        assert ranges_intersect([(None, 5)], [(4, None)])
        assert not ranges_intersect([(None, 3)], [(4, None)])

    def test_empty(self):
        assert not ranges_intersect([], [(1, 2)])


class TestIndexManager:
    def test_manager_via_chain_fixture(self, chain):
        # created in conftest: senid, tname global; app columns per table
        assert chain.indexes.layered("senid") is not None
        assert chain.indexes.layered("amount", "donate") is not None
        assert chain.indexes.layered("nothing") is None

    def test_global_fallback(self, chain):
        # asking with a table falls back to the global index
        assert chain.indexes.layered("senid", "donate") is not None

    def test_duplicate_creation_rejected(self, chain):
        with pytest.raises(IndexError_):
            chain.indexes.create_layered_index("senid")

    def test_app_column_needs_schema(self, chain):
        from repro.common.errors import CatalogError

        with pytest.raises(CatalogError):
            chain.indexes.create_layered_index("project", table="donate")

    def test_backfill_matches_live(self, chain):
        """An index created after loading equals one updated live."""
        late = chain.indexes.create_layered_index(
            "donor", table="donate", schema=chain.catalog.get("donate")
        )
        # verify against ground truth
        expected_blocks = {
            tx.tid // chain.TXS_PER_BLOCK
            for tx in chain.all_txs
            if tx.tname == "donate" and tx.values[0] == "donor3"
        }
        got = set(late.candidate_blocks_eq("donor3"))
        truth = set()
        for height in range(1, chain.store.height):
            block = chain.store.read_block(height)
            if any(tx.tname == "donate" and tx.values[0] == "donor3"
                   for tx in block.transactions):
                truth.add(height)
        assert got == truth


# -- backfill from stored records ---------------------------------------------

#: histogram sample cap for these tests: small enough that the sample
#: stops part-way through the chain
SAMPLE_CAP = 9


def mixed_block(height):
    """Block ``height`` of a chain whose tables come and go: every fourth
    block holds donations only, so the transfer and distribute indexes
    skip it; one donation has a NULL amount."""
    out = []
    for i in range(6):
        sender = f"org{(height + i) % 3}"
        kind = 0 if height % 4 == 0 else (height + i) % 3
        if kind == 0:
            amount = None if (height, i) == (5, 1) else float(height * 7 + i)
            values = (f"donor{i}", "edu", amount)
            out.append(Transaction.create("donate", values, ts=height * 100 + i,
                                          sender=sender))
        elif kind == 1:
            values = ("edu", f"donor{i}", f"org{i % 4}", 5.0)
            out.append(Transaction.create("transfer", values,
                                          ts=height * 100 + i, sender=sender))
        else:
            values = ("edu", f"donor{i}", f"org{i % 3}", f"donee{height % 5}", 1.0)
            out.append(Transaction.create("distribute", values,
                                          ts=height * 100 + i, sender=sender))
    return out


def mixed_node(cache_mode="transaction", data_dir=None, blocks=12):
    """Genesis with the schema transactions, then ``blocks`` data blocks."""
    config = SebdbConfig.in_memory(cache_mode=cache_mode, data_dir=data_dir)
    node = FullNode("backfill", config=config,
                    genesis=make_genesis(0, ONCHAIN_SCHEMAS))
    for height in range(1, blocks + 1):
        node.apply_batch(mixed_block(height))
    return node


def reference_extractor(node, table, column):
    if table is None or column in ("senid", "tname", "ts", "tid"):
        return system_extractor(column, table)
    return app_extractor(node.catalog.get(table), column)


def decoded_sample(store, extractor, heights):
    """The histogram sample drawn from decoded blocks: values in block
    order, stopping after the block that takes it to the cap."""
    sample = []
    for height in heights:
        for tx in store.read_block(height).transactions:
            value = extractor(tx)
            if value is not None:
                sample.append(value)
        if len(sample) >= SAMPLE_CAP:
            break
    return sample


def bucket_ranges(histogram):
    return [histogram.bucket_range(i) for i in range(histogram.num_buckets)]


def ali_factory(order):
    def build(pairs, record_at):
        return MBTree.bulk_load(
            pairs, order=order,
            digest_fn=lambda key, position: hash_leaf(record_at(position)))

    return build


def structures(index):
    """Everything a layered index holds: value bitmaps, bucket bits and,
    per block, the level-2 entries and (ALI) the MB-root."""
    return (
        index._value_bitmaps,
        index._bucket_bits,
        {bid: list(tree.range(None, None)) for bid, tree in index._trees.items()},
        {bid: getattr(tree, "root", None) for bid, tree in index._trees.items()},
    )


def flip_name_byte(node, data_dir, field):
    """Overwrite the first byte of a donation's ``field`` (``senid`` or
    ``tname``) in the newest block's segment file, in place: the record's
    ``(height, position, name)``."""
    height = node.store.height - 1
    _header, records = node.store.read_records(height)
    position, tx = next((i, tx) for i, tx in enumerate(map(Transaction.from_bytes, records))
                        if tx.tname == "donate")
    record, name = records[position], getattr(tx, field)
    location = node.store.location(height)
    path = data_dir / f"segment-{location.segment:06d}.dat"
    data = bytearray(path.read_bytes())
    at = data.index(record, location.offset) + record.index(name.encode("utf-8"))
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    return height, position, name


class TestBackfillFromRecords:
    """An index created over history equals one fed decoded blocks."""

    @pytest.mark.parametrize("authenticated", [False, True])
    @pytest.mark.parametrize("cache_mode", ["transaction", "block"])
    def test_created_index_equals_decoded_reference(
            self, monkeypatch, cache_mode, authenticated):
        monkeypatch.setattr(manager_module, "_HISTOGRAM_SAMPLE_CAP", SAMPLE_CAP)
        node = mixed_node(cache_mode)
        store = node.store
        created_at = store.height
        create_standard_indexes(
            Dataset(node=node, num_blocks=created_at, txs_per_block=6,
                    result_size=0, distribution="uniform"),
            authenticated=authenticated)
        node.apply_batch(mixed_block(created_at))  # after creation
        order = node.config.bptree_order
        indexes = node.indexes.layered_indexes
        assert len(indexes) == 6
        for (table, column), index in indexes.items():
            extractor = reference_extractor(node, table, column)
            histogram = None
            if index.continuous:
                sample = decoded_sample(store, extractor, range(created_at))
                histogram = EqualDepthHistogram.from_sample(
                    sample, node.config.histogram_depth)
                assert bucket_ranges(index.histogram) == bucket_ranges(histogram)
            reference = LayeredIndex(
                column, extractor, index.continuous, histogram=histogram,
                tree_factory=ali_factory(order) if authenticated else None)
            for height in range(store.height):
                reference.add_block(store.read_block(height))
            assert structures(index) == structures(reference), (table, column)
            assert index._trees, (table, column)
        # a senid / tname key is the store's own name string, one object
        # per name, in level 1 and in the level-2 trees built over history
        names = {name: name for height in range(store.height)
                 for column in store.record_names(height) for name in column}
        for column in ("senid", "tname"):
            index = indexes[(None, column)]
            keys = list(index._value_bitmaps)
            keys += [key for height in range(created_at)
                     for key, _position in index._trees[height].range(None, None)]
            assert all(key is names[key] for key in keys), column
        # the chain has blocks without transfer rows; that index skipped them
        transfer = indexes[("transfer", "organization")]
        assert set(transfer._trees) < set(range(1, store.height))

    def test_refresh_samples_as_decoded_blocks_do(self, monkeypatch):
        monkeypatch.setattr(manager_module, "_HISTOGRAM_SAMPLE_CAP", SAMPLE_CAP)
        node = mixed_node()
        node.create_index("amount", table="donate")
        for height in range(node.store.height, node.store.height + 4):
            node.apply_batch(mixed_block(height))
        refreshed = node.refresh_statistics()
        extractor = reference_extractor(node, "donate", "amount")
        sample = decoded_sample(node.store, extractor,
                                range(node.store.height - 1, -1, -1))
        assert refreshed == {"donate.amount": len(sample)}
        expected = EqualDepthHistogram.from_sample(
            sample, node.config.histogram_depth)
        index = node.indexes.layered("amount", "donate")
        assert bucket_ranges(index.histogram) == bucket_ranges(expected)

    def test_continuous_index_reads_and_decodes_each_record_once(
            self, monkeypatch):
        """The histogram sample's blocks are built, not read again: one
        read per block of the table, one decode per record of it."""
        monkeypatch.setattr(manager_module, "_HISTOGRAM_SAMPLE_CAP", SAMPLE_CAP)
        node = mixed_node()
        store = node.store
        blocks = list(node.indexes.table_index.blocks_for_table("donate"))
        donations = sum(tx.tname == "donate" for height in blocks
                        for tx in store.read_block(height).transactions)
        assert donations > SAMPLE_CAP  # the sample stops short of the chain
        reads, decodes = [], []
        read_records = store.read_records

        def reading(height):
            reads.append(height)
            return read_records(height)

        from_bytes = Transaction.from_bytes

        def counting(cls, data):
            decodes.append(1)
            return from_bytes(data)

        monkeypatch.setattr(store, "read_records", reading)
        monkeypatch.setattr(Transaction, "from_bytes", classmethod(counting))
        node.create_index("amount", table="donate")
        assert reads == blocks
        assert len(decodes) == donations

    def test_six_indexes_decode_at_most_twice_per_record(self, monkeypatch):
        dataset = build_join_dataset(num_blocks=30, txs_per_block=40,
                                     table_rows=200, result_pairs=50)
        store = dataset.store
        records = sum(store.transactions_in_block(h) for h in range(store.height))
        decodes = []
        from_bytes = Transaction.from_bytes

        def counting(cls, data):
            decodes.append(1)
            return from_bytes(data)

        monkeypatch.setattr(Transaction, "from_bytes", classmethod(counting))
        create_standard_indexes(dataset)
        assert len(dataset.indexes.layered_indexes) == 6
        assert 0 < len(decodes) <= 2 * records

    @pytest.mark.parametrize("field, column, table", [
        ("senid", "amount", "donate"),
    ])
    def test_flipped_name_byte_is_a_codec_error(self, tmp_path, field,
                                                column, table):
        """A record keyed on a value column is decoded, and a decode
        validates its names as UTF-8."""
        node = mixed_node(data_dir=tmp_path, blocks=2)
        try:
            flip_name_byte(node, tmp_path, field)
            with pytest.raises(CodecError):
                node.create_index(column, table=table)
        finally:
            node.close()

    @pytest.mark.parametrize("column", ["senid", "tname"])
    def test_flipped_name_byte_keyed_as_parsed(self, tmp_path, column):
        """A global ``senid`` / ``tname`` index keys each record under the
        name the store tagged when it verified the block, and does not read
        the name off disk again."""
        node = mixed_node(data_dir=tmp_path, blocks=2)
        try:
            height, position, name = flip_name_byte(node, tmp_path, column)
            _header, records = node.store.read_records(height)
            with pytest.raises(CodecError):
                Transaction.from_bytes(records[position])
            index = node.create_index(column)
            assert position in index.search_block(height, name)
        finally:
            node.close()


class TestAppendedKeys:
    """A block appended after a global ``senid`` / ``tname`` index exists
    is keyed on the store's names, as the backfill is."""

    @pytest.mark.parametrize("column", ["senid", "tname"])
    def test_appended_keys_are_the_stores_names(self, column):
        node = mixed_node()
        index = node.create_index(column)
        created_at = node.store.height
        for height in range(created_at, created_at + 5):
            node.apply_batch(mixed_block(height))
        store = node.store
        names = {name: name for height in range(store.height)
                 for column_names in store.record_names(height)
                 for name in column_names}
        keys = [key for height in range(created_at, store.height)
                for key, _position in index.tree(height).range()]
        assert len(keys) == 30
        assert all(key is names[key] for key in keys)
