"""Replicated ordering-broker tests: replication, elections, failover.

The ISSUE's acceptance scenario: crash the Kafka leader mid-batch under
loss + delay and the cluster must resume ordering through a deterministic
epoch-based election, with no batch ordered twice, bounded client retry
latency, and every live broker converged on one leader per epoch (the
broker-level invariants the checker now audits when handed the engine).
"""

import pytest

from repro import (
    ChaosController,
    FaultSchedule,
    InvariantChecker,
    ResilientSubmitter,
    SebdbNetwork,
)
from repro.common.errors import ConfigError, ConsensusError
from repro.consensus.kafka import BROKER_ID, ORDERER_ID, KafkaOrderer
from repro.model.transaction import Transaction
from repro.network.bus import MessageBus


def submit_over_time(net, sub, count, window_ms, table="t"):
    """Stagger submissions across the run so faults actually hit them."""
    for i in range(count):
        at = (i * window_ms) / count

        def fire(i=i):
            tx = Transaction.create(
                table, (i,), ts=int(net.bus.clock.now_ms()), sender="c",
            )
            sub.submit(tx)

        net.bus.schedule(at, fire)


def drive(net, total_ms, step_ms=200.0):
    steps = int(total_ms / step_ms) + 1
    for _ in range(steps):
        net.bus.run_for(step_ms)
        net.consensus.flush()
    net.bus.run_until_idle()
    net.consensus.flush()
    net.bus.run_until_idle()


def make_tx(i: int) -> Transaction:
    return Transaction.create("t", (f"v{i}",), ts=i, sender="c")


def make_cluster(num_brokers=3, seed=0, **kwargs):
    bus = MessageBus(seed=seed)
    orderer = KafkaOrderer(bus, batch_txs=4, timeout_ms=20,
                           num_brokers=num_brokers, **kwargs)
    chains = []
    orderer.register_replica("node0", chains.append)
    return bus, orderer, chains


class TestClusterTopology:
    def test_single_broker_keeps_legacy_topology(self):
        """One broker is a cluster of one: the facade registers its
        redirect endpoint as any cluster does, the broker leads from the
        start, and it orders, delivers and acks as the single-broker
        pipeline always has (times pinned from before the special case
        was removed)."""
        bus = MessageBus(seed=1)
        orderer = KafkaOrderer(bus, batch_txs=2, timeout_ms=50.0)
        assert orderer.broker_ids == [BROKER_ID]
        assert [n for n in bus.node_ids if n.startswith("kafka")] == [
            BROKER_ID, ORDERER_ID,
        ]
        assert orderer.leader_id == BROKER_ID
        batches, acks = [], []
        orderer.register_replica(
            "n0", lambda batch: batches.append([tx.ts for tx in batch])
        )
        for i in range(5):
            orderer.submit(Transaction.create("t", (i,), ts=i, sender="c"),
                           on_reply=acks.append)
        bus.run_until_idle()
        orderer.flush()
        bus.run_until_idle()
        assert batches == [[0, 1], [2, 3], [4]]
        assert acks == [7.5, 7.5, 13.0, 13.0, 57.25]
        assert (orderer.stats.messages, bus.messages_sent) == (8, 10)
        assert orderer.stats.elections == orderer.stats.redirects == 0

    def test_replicated_topology(self):
        bus, orderer, _ = make_cluster(3, seed=2)
        assert orderer.broker_ids == [
            BROKER_ID, f"{BROKER_ID}-1", f"{BROKER_ID}-2",
        ]
        assert ORDERER_ID in bus.node_ids
        assert orderer.leader_id == BROKER_ID

    def test_config_validation(self):
        bus = MessageBus(seed=3)
        with pytest.raises(ConfigError):
            KafkaOrderer(bus, num_brokers=0)
        with pytest.raises(ConfigError):
            KafkaOrderer(bus, num_brokers=2, election_timeout_ms=0)

    def test_unknown_broker_rejected(self):
        _, orderer, _ = make_cluster(3, seed=4)
        with pytest.raises(ConsensusError):
            orderer.crash_broker("kafka-broker-9")


class TestReplication:
    def test_happy_path_replicates_before_commit(self):
        bus, orderer, chains = make_cluster(3, seed=5)
        replies = []
        for i in range(8):
            orderer.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        orderer.flush()
        bus.run_until_idle()
        assert len(replies) == 8
        assert sum(len(batch) for batch in chains) == 8
        # no crash, no election: epoch 0 throughout
        assert orderer.stats.elections == 0
        cluster = orderer.cluster
        logs = [broker.log for broker in cluster.brokers]
        assert len(logs[0]) > 0
        # every follower converged on the leader's exact log
        for log in logs[1:]:
            assert len(log) == len(logs[0])
            assert all(a.same_as(b) for a, b in zip(log, logs[0]))

    def test_follower_submit_redirects_to_leader(self):
        bus, orderer, chains = make_cluster(3, seed=6)
        # a stale client hint points at a follower
        orderer._leader_hint = f"{BROKER_ID}-1"
        replies = []
        for i in range(4):
            orderer.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        # forwarded to the leader and committed anyway
        assert len(replies) == 4
        assert sum(len(batch) for batch in chains) == 4
        assert orderer.stats.redirects >= 1
        # the NOT_LEADER reply re-resolved the hint
        assert orderer.leader_hint == BROKER_ID


class TestLeaderFailover:
    def test_crash_mid_batch_elects_and_resumes(self):
        bus, orderer, chains = make_cluster(3, seed=7)
        replies = []
        for i in range(4):
            orderer.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        # park two txs in the shared batch buffer, then kill the leader
        # before its cut timer fires - mid-batch by construction
        orderer.submit(make_tx(100), on_reply=replies.append)
        orderer.submit(make_tx(101), on_reply=replies.append)
        orderer.crash_broker(BROKER_ID)
        bus.run_until_idle()
        assert orderer.stats.elections >= 1
        new_leader = orderer.leader_id
        assert new_leader is not None and new_leader != BROKER_ID
        # the noted-but-uncommitted submissions were re-proposed and
        # committed exactly once by the new leader
        assert len(replies) == 6
        assert sum(len(batch) for batch in chains) == 6
        seqs = [seq for seq, _e, _d in orderer.cluster.delivery_log]
        assert seqs == sorted(set(seqs))

    def test_deposed_leader_rejoins_as_follower(self):
        bus, orderer, chains = make_cluster(3, seed=8)
        for i in range(4):
            orderer.submit(make_tx(i))
        bus.run_until_idle()
        orderer.crash_broker(BROKER_ID)
        for i in range(4, 8):
            orderer.submit(make_tx(i))
        bus.run_until_idle()
        assert orderer.stats.elections >= 1
        orderer.restart_broker(BROKER_ID)
        bus.run_until_idle()
        old = orderer.cluster.broker(BROKER_ID)
        leader = orderer.cluster.acting_leader()
        assert leader is not None and leader.node_id != BROKER_ID
        assert not old.is_leader
        # the rejoined broker resynced the new leader's full log
        assert len(old.log) == len(leader.log)
        assert all(a.same_as(b) for a, b in zip(old.log, leader.log))
        assert sum(len(batch) for batch in chains) == 8


def broker_failover_soak(seed):
    """Crash the leader mid-stream under loss + delay; ordering must
    resume via election with exactly-once delivery."""
    net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=seed,
                       batch_txs=20, timeout_ms=50, num_brokers=3)
    net.execute("CREATE t (v int)")
    schedule = (
        FaultSchedule()
        .degrade_link(0, "client", BROKER_ID,
                      loss_rate=0.05, extra_delay_ms=5.0)
        .leader_failover(800, BROKER_ID, downtime_ms=1_200)
    )
    controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                 nodes=net.nodes)
    controller.arm()
    sub = ResilientSubmitter(net.consensus, net.bus, seed=seed,
                             attempt_timeout_ms=300.0, max_attempts=10)
    submit_over_time(net, sub, count=120, window_ms=2_000)
    drive(net, 8_000)
    report = InvariantChecker(net.nodes, [sub], engine=net.consensus).check()
    tips = tuple(node.store.tip_hash for node in net.nodes)
    counters = (net.bus.messages_sent, net.bus.messages_dropped,
                net.consensus.stats.committed, net.consensus.stats.elections,
                net.consensus.stats.deduplicated, sub.total_retries())
    return net, sub, report, tips, counters


class TestBrokerFailoverSoak:
    def test_leader_crash_mid_batch_resumes_within_budget(self, soak_seed):
        net, sub, report, tips, _ = broker_failover_soak(soak_seed)
        # safety: chain + client + broker-cluster invariants all hold
        # (no double-ordered batch, no unresolved election, converged ISR)
        assert report.ok
        assert report.acked == 120 and report.pending == 0
        assert len(set(tips)) == 1
        # the crash actually forced an election and the cluster recovered
        assert net.consensus.stats.elections >= 1
        leader = net.consensus.leader_id
        assert leader is not None
        # bounded client retry latency: every request acked within its
        # retry budget, none anywhere near the submitter's worst case
        latencies = [r.acked_at - r.submitted_at for r in sub.records]
        assert max(latencies) < 4_000.0
        # exactly-once: 120 client txs + the CREATE's schema-sync tx
        assert net.consensus.stats.committed == 121

    def test_soak_is_deterministic(self):
        _, _, _, tips_a, counters_a = broker_failover_soak(11)
        _, _, _, tips_b, counters_b = broker_failover_soak(11)
        assert tips_a == tips_b
        assert counters_a == counters_b


def election_storm_soak(seed):
    """Cascading leader crashes: each freshly elected leader dies while
    its predecessor is still down (the broker mirror of the PBFT
    cascading-primaries soak)."""
    net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=seed,
                       batch_txs=10, timeout_ms=40, num_brokers=5)
    net.execute("CREATE t (v int)")
    t0 = net.bus.clock.now_ms()
    victims = [BROKER_ID, f"{BROKER_ID}-1", f"{BROKER_ID}-2"]
    schedule = (
        FaultSchedule()
        .degrade_link(0, "client", BROKER_ID, loss_rate=0.05)
        .broker_election_storm(t0 + 600, victims, gap_ms=400,
                               downtime_ms=1_600)
    )
    controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                 nodes=net.nodes)
    controller.arm()
    sub = ResilientSubmitter(net.consensus, net.bus, seed=seed,
                             attempt_timeout_ms=400.0, max_attempts=12)
    submit_over_time(net, sub, count=80, window_ms=2_500)
    drive(net, 12_000)
    report = InvariantChecker(net.nodes, [sub], engine=net.consensus).check()
    tips = tuple(node.store.tip_hash for node in net.nodes)
    return net, sub, report, tips


class TestElectionStormSoak:
    def test_cascading_leader_crashes_stay_safe_and_live(self, soak_seed):
        net, sub, report, tips = election_storm_soak(soak_seed)
        assert report.ok
        assert report.acked == 80 and report.pending == 0
        assert len(set(tips)) == 1
        # the storm chained through multiple epochs
        assert net.consensus.stats.elections >= 2
        # one leader stands at the end, all live brokers behind it
        assert net.consensus.leader_id is not None
        assert net.consensus.stats.committed == 81

    def test_storm_is_deterministic(self):
        *_, report_a, tips_a = election_storm_soak(29)
        *_, report_b, tips_b = election_storm_soak(29)
        assert tips_a == tips_b
        assert report_a.heights == report_b.heights


class TestFailoverBench:
    def test_sweep_measures_recovery_gap(self):
        from repro.bench.failover_bench import (
            render_failover_table,
            sweep_election_timeouts,
        )

        samples = sweep_election_timeouts([150.0, 600.0], num_txs=40, seed=3)
        for sample in samples:
            assert sample.acked == sample.submitted == 40
            assert sample.elections >= 1
            assert sample.resume_at_ms is not None
        # a slower failure detector means a longer commit gap
        assert samples[0].recovery_ms < samples[1].recovery_ms
        table = render_failover_table(samples)
        lines = table.splitlines()
        assert lines[0].startswith("election_timeout_ms\trecovery_ms")
        assert len(lines) == 3


class TestBrokerInvariantChecker:
    def test_checker_flags_forged_double_ordering(self):
        bus, orderer, _ = make_cluster(3, seed=9)
        for i in range(4):
            orderer.submit(make_tx(i))
        bus.run_until_idle()
        net = SebdbNetwork(num_nodes=1, consensus=None, seed=9)
        # forge a duplicated delivery-log sequence
        log = orderer.cluster.delivery_log
        assert log, "need at least one delivered batch to forge"
        log.append(log[-1])
        report = InvariantChecker(
            net.nodes, engine=orderer
        ).check(raise_on_violation=False)
        assert any("delivery log" in v for v in report.violations)

    def test_checker_flags_diverged_follower_log(self):
        bus, orderer, _ = make_cluster(3, seed=10)
        for i in range(4):
            orderer.submit(make_tx(i))
        bus.run_until_idle()
        net = SebdbNetwork(num_nodes=1, consensus=None, seed=10)
        follower = orderer.cluster.broker(f"{BROKER_ID}-1")
        follower.log.append(follower.log[-1])  # now longer than the leader
        report = InvariantChecker(
            net.nodes, engine=orderer
        ).check(raise_on_violation=False)
        assert any("entries" in v for v in report.violations)
