"""Sharded ledger tests: routing, 2PC, determinism, fan-out reads.

Covers the partitioned write path end to end: deterministic table/key ->
shard routing, the logged cross-shard two-phase commit and its crash
recovery, byte-identical per-shard chains across runs (and a one-shard
deployment's byte-equality with an unsharded FullNode), the ShardMerge
read path (ordered-LIMIT laziness, disjoint per-shard cost attribution,
fuzz equivalence against a single-chain oracle), and the sharded bench's
aggregate throughput scaling.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import SebdbConfig
from repro.common.errors import ConfigError, QueryError, ShardError
from repro.crypto import KeyPair
from repro.faults.checker import InvariantChecker
from repro.model.transaction import Transaction, schema_sync_transaction
from repro.node.fullnode import FullNode
from repro.query.optimizer import plan_sharded_select
from repro.query.physical import ShardMerge
from repro.query.plan import FanoutTracker
from repro.shard import (
    CRASH_AFTER_DECISION,
    CRASH_AFTER_PREPARE,
    CRASH_MID_OUTCOME,
    ShardedNode,
    ShardRouter,
    cross_shard_xid,
    resolve_in_doubt,
)
from repro.sqlparser.parser import parse


def make_node(
    num_shards: int,
    placement: dict | None = None,
    node_id: str = "shard-test",
    keypair: KeyPair | None = None,
) -> ShardedNode:
    config = SebdbConfig.in_memory(
        num_shards=num_shards, shard_placement=placement
    )
    return ShardedNode(node_id, config=config, keypair=keypair)


def tx_for(table: str, key, value: str = "v", ts: int = 0) -> Transaction:
    return Transaction.create(table, (key, value), ts=ts)


# -- routing -----------------------------------------------------------------


class TestShardRouter:
    def test_hash_routing_is_stable_and_table_wide(self):
        router = ShardRouter(4)
        home = router.shard_for_key("donate", "any")
        assert 0 <= home < 4
        # the whole table lives on one shard, whatever the key
        assert all(
            router.shard_for_key("donate", k) == home
            for k in ("x", 0, None, 3.5)
        )
        # stable across router instances (sha256, not hash())
        assert ShardRouter(4).shard_for_key("donate", "other") == home

    def test_pinned_placement(self):
        router = ShardRouter(4, {"t": 2})
        assert router.shard_for_key("t", "anything") == 2
        assert router.shards_for_table("t") == (2,)

    def test_range_placement_buckets(self):
        router = ShardRouter(3, {"t": (10, 20)})
        assert router.shard_for_key("t", 5) == 0
        assert router.shard_for_key("t", 10) == 1  # splits are inclusive-left
        assert router.shard_for_key("t", 15) == 1
        assert router.shard_for_key("t", 25) == 2
        assert router.shards_for_table("t") == (0, 1, 2)

    def test_range_pruning(self):
        router = ShardRouter(3, {"t": (10, 20)})
        assert router.shards_for_range("t", None, 9) == (0,)
        assert router.shards_for_range("t", 12, 18) == (1,)
        assert router.shards_for_range("t", 5, 25) == (0, 1, 2)
        assert router.shards_for_range("t", None, None) == (0, 1, 2)

    def test_schema_has_no_home_shard(self):
        router = ShardRouter(2)
        schema_tx = schema_sync_transaction(
            __import__("repro.model.schema", fromlist=["TableSchema"])
            .TableSchema.create("t", [("k", "int")]),
            ts=0,
            keypair=KeyPair.from_seed("s"),
        )
        with pytest.raises(ShardError):
            router.home_shard(schema_tx)

    def test_home_shard_is_the_leading_values_owner(self):
        for placement in (None, {"t": 2}, {"t": (10, 20)}):
            router = ShardRouter(3, placement)
            for key in (5, 15, 25):
                assert router.home_shard(tx_for("t", key)) == (
                    router.shard_for_key("t", key)
                )
        # a value-less transaction routes by its sender id
        router = ShardRouter(3, {"t": ("m",)})
        for sender, home in (("alice", 0), ("zed", 1)):
            bare = Transaction.create("t", (), ts=0, sender=sender)
            assert router.home_shard(bare) == home

    def test_incomparable_range_key_raises(self):
        router = ShardRouter(3, {"t": (10, 20)})
        with pytest.raises(ShardError):
            router.shard_for_key("t", "not-an-int")

    def test_config_validates_placement(self):
        with pytest.raises(ConfigError):
            SebdbConfig.in_memory(num_shards=2, shard_placement={"t": 5})
        with pytest.raises(ConfigError):
            SebdbConfig.in_memory(
                num_shards=2, shard_placement={"t": (20, 10)}
            )


# -- cross-shard two-phase commit --------------------------------------------


def _fill(node: ShardedNode, keys, table: str = "t") -> None:
    for key in keys:
        node.insert(table, [key, f"v{key}"])


class TestTwoPhaseCommit:
    def make_ranged(self, shards: int = 3) -> ShardedNode:
        node = make_node(shards, placement={"t": (10, 20)})
        node.create_table("CREATE TABLE t (k INT, v STRING)")
        return node

    def count(self, node: ShardedNode) -> int:
        return node.query("SELECT COUNT(*) FROM t").rows[0][0]

    def test_single_shard_group_skips_2pc(self):
        node = self.make_ranged()
        xid = node.submit_atomic([tx_for("t", 1), tx_for("t", 2)])
        assert xid is None  # same shard: ordinary block, no 2PC tax
        assert self.count(node) == 2
        assert not any(
            node.shards[sid].commit_log.prepares() for sid in node.shards
        )
        node.close()

    def test_cross_shard_commit_journals_every_phase(self):
        node = self.make_ranged()
        group = [tx_for("t", 1), tx_for("t", 15), tx_for("t", 25)]
        xid = node.submit_atomic(group)
        assert xid is not None
        assert self.count(node) == 3
        for sid in (0, 1, 2):
            log = node.shards[sid].commit_log
            assert [p.xid for p in log.prepares()] == [xid]
            assert log.outcome_for(xid).committed
            assert log.in_doubt() == []
        # the commit point lives on the coordinator (lowest shard id)
        decision = node.shards[0].commit_log.decision_for(xid)
        assert decision is not None and decision.commit
        node.close()

    def test_unknown_table_aborts_atomically(self):
        node = make_node(3, placement={"t": (10, 20), "ghost": 2})
        node.create_table("CREATE TABLE t (k INT, v STRING)")
        before = self.count(node)
        xid = node.submit_atomic([tx_for("t", 1), tx_for("ghost", 9)])
        assert xid is None
        assert self.count(node) == before  # the healthy slice did not land
        node.close()

    def test_crash_after_prepare_presumes_abort(self, ):
        node = self.make_ranged()
        node.crash_during_next_atomic(CRASH_AFTER_PREPARE)
        assert node.submit_atomic([tx_for("t", 1), tx_for("t", 15)]) is None
        assert node.crashed
        node.restart()
        assert node.last_recovery["twophase"] == {
            "replayed": 0, "already_applied": 0, "aborted": 2,
        }
        assert self.count(node) == 0
        InvariantChecker(sharded=[node]).check()
        node.close()

    def test_crash_after_decision_replays_all_slices(self):
        node = self.make_ranged()
        node.crash_during_next_atomic(CRASH_AFTER_DECISION)
        assert node.submit_atomic([tx_for("t", 1), tx_for("t", 15)]) is None
        node.restart()
        assert node.last_recovery["twophase"]["replayed"] == 2
        assert self.count(node) == 2
        InvariantChecker(sharded=[node]).check()
        node.close()

    def test_crash_mid_outcome_replays_the_unapplied_slice(self):
        node = self.make_ranged()
        node.crash_during_next_atomic(CRASH_MID_OUTCOME)
        assert node.submit_atomic([tx_for("t", 1), tx_for("t", 15)]) is None
        node.restart()
        report = node.last_recovery["twophase"]
        assert report["replayed"] == 1 and report["aborted"] == 0
        assert self.count(node) == 2
        InvariantChecker(sharded=[node]).check()
        node.close()

    def test_recovery_is_idempotent(self):
        node = self.make_ranged()
        node.crash_during_next_atomic(CRASH_AFTER_DECISION)
        node.submit_atomic([tx_for("t", 1), tx_for("t", 15)])
        node.restart()
        assert resolve_in_doubt(node.shards) == {
            "replayed": 0, "already_applied": 0, "aborted": 0,
        }
        assert self.count(node) == 2
        node.close()

    def test_already_applied_slice_is_not_replayed(self):
        # hand-build the one gap the crash points cannot reach: a
        # participant that applied its slice but died before its OUTCOME
        node = self.make_ranged()
        t_low, t_mid = tx_for("t", 1), tx_for("t", 15)
        groups = [(0, [t_low]), (1, [t_mid])]
        xid = cross_shard_xid(groups)
        for sid, txs in groups:
            shard = node.shards[sid]
            shard.commit_log.prepare(
                xid, sid, 0, (0, 1),
                tuple(tx.to_bytes() for tx in txs), shard.store.height,
            )
        node.shards[0].commit_log.decide(xid, True)
        node.shards[0].apply_batch([t_low])
        node.shards[0].commit_log.outcome(xid, True)
        node.shards[1].apply_batch([t_mid])  # applied, but no outcome
        report = resolve_in_doubt(node.shards)
        assert report == {"replayed": 0, "already_applied": 1, "aborted": 0}
        assert self.count(node) == 2  # not committed twice
        InvariantChecker(sharded=[node]).check()
        node.close()


# -- determinism -------------------------------------------------------------


def _chain_bytes(node: FullNode) -> list[bytes]:
    return [
        node.store.read_block(h).to_bytes()
        for h in range(node.store.height)
    ]


class TestShardedDeterminism:
    WORKLOAD = [(k, f"v{k}") for k in (1, 5, 11, 15, 21, 25, 1, 15, 21, 8)]

    def _run(self) -> ShardedNode:
        node = make_node(3, placement={"t": (10, 20)}, node_id="det")
        node.create_table("CREATE TABLE t (k INT, v STRING)")
        # multi-tx batches with same-cell writes on every shard
        batch = [tx_for("t", k, v) for k, v in self.WORKLOAD]
        node.apply_batch(batch)
        node.apply_batch([tx_for("t", k, v.upper()) for k, v in self.WORKLOAD])
        return node

    def test_chains_identical_across_runs(self):
        first, second = self._run(), self._run()
        try:
            for sid in first.shards:
                assert _chain_bytes(first.shards[sid]) == _chain_bytes(
                    second.shards[sid]
                ), f"shard {sid} diverged between two runs"
        finally:
            first.close()
            second.close()

    def test_one_shard_matches_unsharded_fullnode(self):
        keypair = KeyPair.from_seed("det-equal")
        sharded = make_node(1, node_id="det-equal", keypair=keypair)
        plain = FullNode("det-equal", keypair=keypair)
        try:
            for node in (sharded, plain):
                node.create_table("CREATE TABLE t (k INT, v STRING)")
                for k, v in self.WORKLOAD:
                    node.insert("t", [k, v])
            assert _chain_bytes(sharded.shards[0]) == _chain_bytes(plain)
        finally:
            sharded.close()
            plain.close()


# -- fan-out reads -----------------------------------------------------------


class TestShardMergeReads:
    def make_populated(self, n: int = 30) -> ShardedNode:
        node = make_node(3, placement={"t": (10, 20)})
        node.create_table("CREATE TABLE t (k INT, v STRING)")
        _fill(node, range(n))
        return node

    def test_explain_shows_shard_fanout(self):
        node = self.make_populated()
        result = node.query("EXPLAIN SELECT k, v FROM t ORDER BY k LIMIT 4")
        text = "\n".join(line for (line,) in result.rows)
        assert "ShardMerge(shards=[0,1,2], ordered on k ASC)" in text
        node.close()

    def test_ordered_limit_pulls_at_most_limit_plus_one_per_shard(self):
        node = self.make_populated()
        stmt = parse("SELECT k, v FROM t ORDER BY k LIMIT 4")
        plan = plan_sharded_select(
            [(sid, node.shards[sid].engine.planner) for sid in (0, 1, 2)],
            stmt,
        )
        rows = [values for _tx, values in plan.root.execute()]
        assert [k for k, _v in rows] == [0, 1, 2, 3]
        merge = next(
            op for op in plan.operators() if isinstance(op, ShardMerge)
        )
        # the incremental merge holds one row ahead per shard, so each
        # per-shard subplan emits at most limit + 1 rows...
        for child in merge.children:
            assert child.stats.rows_out <= 4 + 1
        # ...and the merge consumes at most limit + one-per-shard total
        assert merge.stats.rows_in <= 4 + len(merge.children)
        node.close()

    def test_unordered_limit_stops_pulling_shards_early(self):
        node = self.make_populated()
        stmt = parse("SELECT k, v FROM t LIMIT 3")
        plan = plan_sharded_select(
            [(sid, node.shards[sid].engine.planner) for sid in (0, 1, 2)],
            stmt,
        )
        assert len(list(plan.root.execute())) == 3
        merge = next(
            op for op in plan.operators() if isinstance(op, ShardMerge)
        )
        assert merge.stats.rows_in == 3  # concat mode stays lazy too
        node.close()

    def test_cost_attribution_is_disjoint_per_shard(self):
        node = self.make_populated()
        result = node.query("SELECT k, v FROM t")
        assert result.access_path == "shard-merge"
        tracker = result.plan.tracker
        assert isinstance(tracker, FanoutTracker)
        assert len(tracker.parts) == 3
        for part in tracker.parts:
            assert part.seeks > 0  # every shard was actually charged
        snapshot = tracker.snapshot()
        assert snapshot.seeks == sum(p.seeks for p in tracker.parts)
        assert snapshot.page_transfers == sum(
            p.page_transfers for p in tracker.parts
        )
        # per-shard charge equals that shard's own scan, nothing pooled:
        # the per-leaf operator trackers EXPLAIN shows add up to the same
        leaf_seeks = sorted(
            op.stats.tracker.seeks
            for op in result.plan.operators()
            if op.stats.tracker is not None
        )
        assert sorted(p.seeks for p in tracker.parts) == leaf_seeks
        node.close()

    def test_aggregates_span_shards(self):
        node = self.make_populated(12)
        assert node.query("SELECT COUNT(*) FROM t").rows == [(12,)]
        assert node.query("SELECT SUM(k) FROM t").rows == [(66,)]
        node.close()

    def test_get_block_requires_explicit_shard(self):
        node = self.make_populated(3)
        with pytest.raises(QueryError):
            node.query("GET BLOCK ID = 0")
        node.close()

    def test_fuzz_equivalence_with_single_chain_oracle(self):
        rng = random.Random(421)
        node = make_node(4, placement={"t": (100, 200, 300)})
        oracle = FullNode("oracle")
        try:
            for target in (node, oracle):
                target.create_table("CREATE TABLE t (k INT, v STRING)")
            keys = rng.sample(range(400), 60)  # unique -> total order
            for key in keys:
                for target in (node, oracle):
                    target.insert("t", [key, f"v{key % 7}"])
            queries = ["SELECT k, v FROM t"]
            for _ in range(12):
                low = rng.randrange(400)
                high = low + rng.randrange(10, 250)
                where = f"WHERE k >= {low} AND k <= {high}"
                queries.append(f"SELECT k, v FROM t {where}")
                queries.append(f"SELECT k, v FROM t {where} ORDER BY k")
                queries.append(
                    f"SELECT k, v FROM t {where} ORDER BY k DESC "
                    f"LIMIT {rng.randrange(1, 9)}"
                )
                queries.append(f"SELECT COUNT(*), SUM(k) FROM t {where}")
            for sql in queries:
                got = node.query(sql).rows
                want = oracle.query(sql).rows
                if "ORDER BY" in sql:
                    assert got == want, sql
                else:
                    assert sorted(got) == sorted(want), sql
        finally:
            node.close()
            oracle.close()


    def test_forced_layered_without_index_is_a_query_error(self):
        node = self.make_populated()
        try:
            # no layered index on k anywhere: the fan-out refuses like a
            # single engine does, inside the SebdbError hierarchy
            with pytest.raises(QueryError):
                node.query("SELECT k, v FROM t WHERE k > 3", method="layered")
            with pytest.raises(QueryError):
                node.query(
                    "EXPLAIN SELECT k, v FROM t WHERE k > 3", method="layered"
                )
        finally:
            node.close()

    def test_explain_get_block_requires_explicit_shard_too(self):
        node = self.make_populated(3)
        with pytest.raises(QueryError):
            node.query("EXPLAIN GET BLOCK ID = 0")
        node.close()


TRACES = (
    "TRACE OPERATOR = 'org1'",
    "TRACE OPERATION = 't'",
    "TRACE OPERATOR = 'org1', OPERATION = 't'",
    "TRACE [5, 18] OPERATOR = 'org2', OPERATION = 't'",
)


class TestShardedTrace:
    """Unforced multi-shard TRACE: every shard applies Algorithm 1's
    index-availability rule on its own, the leaves concatenate."""

    @pytest.fixture()
    def pair(self):
        """A 3-shard node (t spans all shards, u lives on one) and one
        FullNode fed the same writes."""
        node = make_node(3, placement={"t": (10, 20)})
        oracle = FullNode("trace-oracle")
        for target in (node, oracle):
            target.create_table("CREATE TABLE t (k INT, v STRING)")
            target.create_table("CREATE TABLE u (k INT, v STRING)")
            for k in range(30):
                target.insert("t", [k, f"v{k}"], sender=f"org{k % 3}", ts=k)
                target.insert("u", [k, f"w{k}"], sender=f"org{k % 2}", ts=k)
        yield node, oracle
        node.close()
        oracle.close()

    @staticmethod
    def rows(result):
        # tid is a per-chain counter: compare what the writer supplied
        return sorted(row[1:] for row in result.rows)

    def assert_fanout_matches_oracle(self, node, oracle, leaf_names):
        for sql in TRACES:
            got = node.query(sql)
            assert got.access_path == "shard-merge", sql
            assert self.rows(got) == self.rows(oracle.query(sql)), sql
            assert len(got.rows) > 0, sql
            text = "\n".join(
                line for (line,) in node.query(f"EXPLAIN {sql}").rows
            )
            assert "ShardMerge(shards=[0,1,2]" in text, sql
            leaves = [
                op.name for op in got.plan.operators()
                if op.name.startswith("Trace")
            ]
            assert leaves == leaf_names, sql

    def test_without_indexes_every_shard_degrades_to_bitmap(self, pair):
        node, oracle = pair
        self.assert_fanout_matches_oracle(node, oracle, ["TraceBitmap"] * 3)

    def test_with_indexes_every_shard_goes_layered(self, pair):
        node, oracle = pair
        for target in (node, oracle):
            target.create_index("senid")
            target.create_index("tname")
        self.assert_fanout_matches_oracle(node, oracle, ["TraceLayered"] * 3)

    def test_rule_is_per_shard(self, pair):
        node, oracle = pair
        for column in ("senid", "tname"):
            node.shards[1].create_index(column)
        self.assert_fanout_matches_oracle(
            node, oracle, ["TraceBitmap", "TraceLayered", "TraceBitmap"]
        )

    def test_forced_method_pins_every_shard(self, pair):
        node, oracle = pair
        for sql in TRACES:
            got = node.query(sql, method="scan")
            assert self.rows(got) == self.rows(oracle.query(sql)), sql
            assert [
                op.name for op in got.plan.operators()
                if op.name.startswith("Trace")
            ] == ["TraceScan"] * 3
        with pytest.raises(QueryError):
            node.query(TRACES[0], method="layered")  # no senid index


# -- chaos soak --------------------------------------------------------------


class TestCrossShardChaosSoak:
    def test_random_crashes_never_break_atomicity(self, soak_seed):
        rng = random.Random(soak_seed)
        node = make_node(3, placement={"t": (10, 20)})
        node.create_table("CREATE TABLE t (k INT, v STRING)")
        points = (
            CRASH_AFTER_PREPARE, CRASH_AFTER_DECISION, CRASH_MID_OUTCOME,
        )
        landed, aborted = 0, 0
        for round_no in range(30):
            keys = [rng.randrange(30) for _ in range(rng.randrange(2, 5))]
            txs = [tx_for("t", k, f"r{round_no}") for k in keys]
            if rng.random() < 0.4:
                node.crash_during_next_atomic(points[rng.randrange(3)])
            node.submit_atomic(txs)
            if node.crashed:
                node.restart()
            InvariantChecker(sharded=[node]).check()
            # the round is atomic: either every tx landed or none did
            visible = node.query(
                f"SELECT COUNT(*) FROM t WHERE v = 'r{round_no}'"
            ).rows[0][0]
            assert visible in (0, len(txs)), (
                f"round {round_no}: {visible} of {len(txs)} txs visible"
            )
            landed += visible == len(txs)
            aborted += visible == 0
        assert landed > 0 and aborted > 0  # the soak exercised both paths
        assert node.verify_local_chain(full=True) > 0
        node.close()


# -- sharded bench scaling ---------------------------------------------------


class TestShardedBenchScaling:
    def test_four_shards_scale_aggregate_throughput(self):
        from repro.bench.write_bench import sharded_stage_breakdown

        one = sharded_stage_breakdown(
            num_shards=1, clients_per_shard=8, txs_per_client=6,
            batch_txs=20,
        )
        four = sharded_stage_breakdown(
            num_shards=4, clients_per_shard=8, txs_per_client=6,
            batch_txs=20,
        )
        assert one["aggregate"]["committed"] == 48
        assert four["aggregate"]["committed"] == 192
        ratio = four["aggregate"]["tps"] / one["aggregate"]["tps"]
        assert ratio >= 1.7, f"aggregate speedup {ratio:.2f}x below 1.7x"
        # every shard really ran its own pipeline
        assert all(
            four["per_shard"][sid]["persist"]["calls"] > 0
            for sid in range(4)
        )


# -- CLI facade --------------------------------------------------------------


class TestShardedShell:
    def test_shell_over_sharded_node(self):
        from repro.cli import Shell, build_node

        node = build_node(None, num_shards=3)
        assert isinstance(node, ShardedNode)
        shell = Shell(node)
        shell.run_line("CREATE TABLE t (k INT, v STRING)")
        shell.run_line("INSERT INTO t VALUES (1, 'a')")
        out = shell.run_line("SELECT k, v FROM t")
        assert "1 row(s)" in out
        shards = shell.run_line("\\shards")
        assert shards.count("shard ") == 3
        assert "[shard 2]" in shell.run_line("\\stats")
        node.close()
