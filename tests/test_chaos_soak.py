"""Chaos soak tests: scripted fault schedules against full deployments.

The acceptance scenario from the robustness issue: crash the Kafka broker
(or the PBFT primary), asymmetrically partition one replica, run 5% link
loss with duplication enabled, submit through the resilient client, then
heal everything, drain, and hold the deployment to the safety contract -
byte-identical chains and exactly-once acked transactions.  Every run is
repeated to prove determinism for a fixed seed.
"""

import pytest

from repro import (
    ChaosController,
    FaultSchedule,
    InvariantChecker,
    ResilientSubmitter,
    SebdbNetwork,
)
from repro.client.submitter import FAILED
from repro.common.errors import DivergenceError, RetryExhausted
from repro.consensus.kafka import BROKER_ID
from repro.faults.schedule import FaultEvent
from repro.model.transaction import Transaction
from repro.node.observer import BlockGossip, make_observer


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


def kafka_soak(seed):
    net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=seed,
                       batch_txs=20, timeout_ms=50)
    net.execute("CREATE t (v int)")
    schedule = (
        FaultSchedule()
        .degrade_link(0, "client", BROKER_ID,
                      loss_rate=0.05, duplicate_rate=0.05)
        .crash(800, BROKER_ID)
        .restart(1400, BROKER_ID)
        .crash(400, "node-2")
        .restart(2200, "node-2")
    )
    controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                 nodes=net.nodes)
    controller.arm()
    sub = ResilientSubmitter(net.consensus, net.bus, seed=seed,
                             attempt_timeout_ms=300.0)
    submit_over_time(net, sub, count=120, window_ms=2_000)
    drive(net, 6_000)
    report = InvariantChecker(net.nodes, [sub]).check()
    tips = tuple(node.store.tip_hash for node in net.nodes)
    counters = (net.bus.messages_sent, net.bus.messages_dropped,
                net.bus.messages_duplicated, net.consensus.stats.committed,
                net.consensus.stats.deduplicated, sub.total_retries())
    return report, tips, counters


def pbft_soak(seed):
    net = SebdbNetwork(num_nodes=4, consensus="pbft", seed=seed,
                       batch_txs=10, timeout_ms=30)
    net.consensus.request_timeout_ms = 600.0
    net.execute("CREATE t (v int)")
    others = ["pbft-0", "pbft-1", "pbft-2"]
    schedule = (
        FaultSchedule()
        .degrade_link(0, "client", "*",
                      loss_rate=0.05, duplicate_rate=0.05)
        # replica 3 goes deaf (asymmetric: it can send, cannot hear)
        .partition(500, others, ["pbft-3"], symmetric=False)
        .heal_partition(1_800, others, ["pbft-3"])
        # the view-0 primary crashes mid-run and later rejoins
        .crash(900, "pbft-0")
        .restart(2_600, "pbft-0")
    )
    controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                 nodes=net.nodes)
    controller.arm()
    sub = ResilientSubmitter(net.consensus, net.bus, seed=seed,
                             attempt_timeout_ms=900.0, max_attempts=8)
    submit_over_time(net, sub, count=60, window_ms=2_200)
    drive(net, 12_000)
    report = InvariantChecker(net.nodes, [sub]).check()
    tips = tuple(node.store.tip_hash for node in net.nodes)
    counters = (net.bus.messages_sent, net.bus.messages_dropped,
                net.consensus.stats.committed,
                net.consensus.stats.deduplicated, sub.total_retries())
    return report, tips, counters


@pytest.mark.soak_seeds(11, 29)
class TestKafkaChaosSoak:
    def test_soak_converges_and_is_deterministic(self, soak_seed):
        report_a, tips_a, counters_a = kafka_soak(soak_seed)
        report_b, tips_b, counters_b = kafka_soak(soak_seed)
        # safety: the checker passed (would have raised DivergenceError)
        assert report_a.ok and report_b.ok
        # byte-identical chains across all four nodes
        assert len(set(tips_a)) == 1
        # every acked submission committed, none lost or duplicated
        assert report_a.acked == 120 and report_a.pending == 0
        # determinism: the two fresh runs are indistinguishable
        assert tips_a == tips_b
        assert counters_a == counters_b

    def test_faults_actually_fired(self):
        report, _, counters = kafka_soak(11)
        sent, dropped, duplicated, committed, deduplicated, retries = counters
        assert dropped > 0, "chaos run lost no messages at all"
        assert duplicated > 0
        # the broker outage forces client retries, dedup absorbs them
        assert retries > 0
        # 120 client txs + the CREATE's schema-sync transaction
        assert committed == 121


@pytest.mark.soak_seeds(7, 23)
class TestPBFTChaosSoak:
    def test_soak_converges_and_is_deterministic(self, soak_seed):
        report_a, tips_a, counters_a = pbft_soak(soak_seed)
        report_b, tips_b, counters_b = pbft_soak(soak_seed)
        assert report_a.ok and report_b.ok
        assert len(set(tips_a)) == 1
        assert report_a.acked == 60 and report_a.pending == 0
        assert tips_a == tips_b
        assert counters_a == counters_b


class TestCommitRateUnderLoss:
    def test_99pct_commit_rate_at_5pct_loss(self):
        """ISSUE acceptance: >=99% of submissions commit despite 5% loss."""
        net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=5,
                           batch_txs=20, timeout_ms=50)
        net.execute("CREATE t (v int)")
        net.bus.set_link_fault("client", BROKER_ID, loss_rate=0.05)
        sub = ResilientSubmitter(net.consensus, net.bus, seed=5,
                                 attempt_timeout_ms=300.0)
        submit_over_time(net, sub, count=200, window_ms=1_000)
        drive(net, 4_000)
        report = InvariantChecker(net.nodes, [sub]).check()
        assert report.acked >= 0.99 * 200
        assert report.pending == 0
        # exactly-once: acked txs + the CREATE's schema-sync transaction
        assert net.consensus.stats.committed == report.acked + 1


class TestInvariantChecker:
    def test_detects_divergent_chains(self):
        net = SebdbNetwork(num_nodes=2, consensus=None, seed=1)
        net.execute("CREATE t (v int)")
        net.commit()
        # forge divergence: apply a batch on node 0 only
        tx = Transaction.create("t", (1,), ts=1, sender="c")
        net.nodes[0].apply_batch([tx])
        with pytest.raises(DivergenceError):
            InvariantChecker(net.nodes).check()
        report = InvariantChecker(net.nodes).check(raise_on_violation=False)
        assert not report.ok

    def test_crashed_nodes_are_excluded(self):
        net = SebdbNetwork(num_nodes=2, consensus=None, seed=1)
        net.execute("CREATE t (v int)")
        net.commit()
        net.nodes[1].crash()
        tx = Transaction.create("t", (1,), ts=1, sender="c")
        net.nodes[0].apply_batch([tx])
        assert InvariantChecker(net.nodes).check().ok

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "crash")
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meteor-strike")

    def test_randomized_schedule_is_seed_deterministic(self):
        nodes = [f"n{i}" for i in range(4)]
        a = FaultSchedule.randomized(42, 5_000, nodes)
        b = FaultSchedule.randomized(42, 5_000, nodes)
        assert a.describe() == b.describe()
        assert len(a) > 0


def cascading_primary_soak(seed):
    """Two consecutive primaries die mid-protocol; PBFT must stay live.

    n=7 (f=2): the view-0 primary is first stranded mid-prepare (its
    pre-prepares reach only pbft-1), then crashes; pbft-1 - the primary
    of view 1 - crashes moments later, so the first view change elects a
    dead replica and only the escalation timers can recover liveness by
    pushing past it to view 2+.
    """
    net = SebdbNetwork(num_nodes=7, consensus="pbft", seed=seed,
                       batch_txs=10, timeout_ms=30)
    net.consensus.request_timeout_ms = 500.0
    net.consensus.view_change_timeout_ms = 500.0
    net.execute("CREATE t (v int)")
    # schedule times are absolute simulated time; the CREATE's commit
    # already advanced the clock, so anchor the script at "now"
    t0 = net.bus.clock.now_ms()
    schedule = FaultSchedule()
    # strand the view-0 primary: only pbft-1 still hears it, so sequences
    # get pre-prepared but can never gather a prepare quorum
    for i in range(2, 7):
        schedule.degrade_link(t0 + 300, "pbft-0", f"pbft-{i}", loss_rate=1.0)
        schedule.restore_link(t0 + 4_000, "pbft-0", f"pbft-{i}")
    # then the primaries of views 0 and 1 crash back to back
    schedule.cascading_crashes(t0 + 600, ["pbft-0", "pbft-1"],
                               gap_ms=300, downtime_ms=4_000)
    controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                 nodes=net.nodes)
    controller.arm()
    sub = ResilientSubmitter(net.consensus, net.bus, seed=seed,
                             attempt_timeout_ms=700.0, max_attempts=12)
    submit_over_time(net, sub, count=40, window_ms=1_500)
    drive(net, 15_000)
    report = InvariantChecker(net.nodes, [sub]).check()
    return net, sub, report


@pytest.mark.soak_seeds(13, 31)
class TestCascadingPrimaryCrash:
    def test_commits_within_bounded_view_changes(self, soak_seed):
        net, sub, report = cascading_primary_soak(soak_seed)
        # liveness: every request eventually commits and is acked
        assert report.ok
        assert report.acked == 40
        assert report.pending == 0 and report.failed == 0
        # the cluster escalated past the dead view-1 primary ...
        assert max(r.view for r in net.consensus.replicas) >= 2
        # ... within a bounded number of view changes (no runaway
        # escalation once progress resumed)
        assert 2 <= net.consensus.stats.view_changes <= 12
        # safety: byte-identical chains on all seven nodes
        assert len({node.store.tip_hash for node in net.nodes}) == 1

    def test_is_deterministic(self):
        net_a, _, _ = cascading_primary_soak(13)
        net_b, _, _ = cascading_primary_soak(13)
        tips_a = tuple(n.store.tip_hash for n in net_a.nodes)
        tips_b = tuple(n.store.tip_hash for n in net_b.nodes)
        assert tips_a == tips_b
        assert (net_a.consensus.stats.view_changes
                == net_b.consensus.stats.view_changes)
        assert (net_a.consensus.stats.state_transfers
                == net_b.consensus.stats.state_transfers)


class TestCheckpointStateTransfer:
    def test_partitioned_replica_rejoins_via_checkpoint(self):
        """ISSUE acceptance: a long-partitioned replica catches up through
        a certified checkpoint + committed tail, not by re-running the
        three-phase protocol for every missed sequence - and ends
        byte-identical."""
        net = SebdbNetwork(num_nodes=4, consensus="pbft", seed=17,
                           batch_txs=2, timeout_ms=30)
        net.consensus.checkpoint_interval = 3
        net.execute("CREATE t (v int)")
        # anchor the script at "now": the CREATE's commit already advanced
        # the simulated clock past the schedule's absolute timestamps
        t0 = net.bus.clock.now_ms()
        others = ["pbft-0", "pbft-1", "pbft-2"]
        schedule = (
            FaultSchedule()
            # pbft-3 (and its co-located full node) drop off for a long
            # stretch while the rest keep committing
            .partition(t0 + 800, others, ["pbft-3"])
            .crash(t0 + 800, "node-3")
            .heal_partition(t0 + 3_000, others, ["pbft-3"])
            .restart(t0 + 3_000, "node-3")
        )
        controller = ChaosController(net.bus, schedule, engine=net.consensus,
                                     nodes=net.nodes)
        controller.arm()
        sub = ResilientSubmitter(net.consensus, net.bus, seed=17,
                                 attempt_timeout_ms=700.0, max_attempts=10)
        # wave 1: committed by everyone, forms the first checkpoints
        submit_over_time(net, sub, count=8, window_ms=500)
        # wave 2: committed behind pbft-3's back (well past an interval)
        for i in range(24):
            at = 1_000 + i * 60.0

            def fire(i=i):
                tx = Transaction.create(
                    "t", (100 + i,), ts=int(net.bus.clock.now_ms()),
                    sender="c",
                )
                sub.submit(tx)

            net.bus.schedule(at, fire)
        # wave 3: after the heal - the first pre-prepare far beyond
        # pbft-3's horizon is what triggers its STATE-REQ
        for i in range(6):
            at = 3_300 + i * 80.0

            def fire(i=i):
                tx = Transaction.create(
                    "t", (200 + i,), ts=int(net.bus.clock.now_ms()),
                    sender="c",
                )
                sub.submit(tx)

            net.bus.schedule(at, fire)
        drive(net, 12_000)
        report = InvariantChecker(net.nodes, [sub]).check()
        assert report.ok
        assert report.acked == 38 and report.pending == 0
        stats = net.consensus.stats
        # checkpoints formed and were certified during the run
        assert stats.checkpoints >= 3
        # the rejoining replica jumped via a transferred certificate
        # instead of re-executing every missed sequence
        assert stats.state_transfers >= 1
        assert net.consensus.replicas[3].sequences_skipped > 0
        assert net.consensus.replicas[3].stable_checkpoint is not None
        # the co-located full node recovered from its newest recorded
        # chain checkpoint (partial re-verification, then catch-up)
        recovery = net.nodes[3].last_recovery
        assert recovery["from_checkpoint"]
        assert recovery["adopted"] > 0
        # byte-identical chains, including the rejoined node
        assert len({node.store.tip_hash for node in net.nodes}) == 1
        assert len({node.store.height for node in net.nodes}) == 1


class TestRetryExhaustedButCommitted:
    def test_lost_acks_yield_typed_ambiguity_not_duplication(self):
        """A client that exhausts retries because *acks* are lost must get
        a typed RetryExhausted - while the chain holds each request
        exactly once and the checker flags the ambiguity as a warning,
        not a violation."""
        net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=19,
                           batch_txs=5, timeout_ms=40)
        net.execute("CREATE t (v int)")
        # the submit direction stays clean; the ack direction is dead, so
        # every request commits but no confirmation ever arrives
        net.bus.set_link_fault(BROKER_ID, "client", loss_rate=1.0)
        sub = ResilientSubmitter(net.consensus, net.bus, seed=19,
                                 attempt_timeout_ms=200.0, max_attempts=3)
        submit_over_time(net, sub, count=10, window_ms=400)
        drive(net, 5_000)
        report = InvariantChecker(net.nodes, [sub]).check()
        # no safety violation: exactly-once held despite all the retries
        assert report.ok
        assert report.failed == 10 and report.acked == 0
        for record in sub.records:
            assert record.status == FAILED
            assert isinstance(record.error, RetryExhausted)
        # every request is on-chain exactly once (10 + the CREATE)
        assert net.consensus.stats.committed == 11
        assert net.consensus.stats.deduplicated >= 10
        # the checker surfaced each failed-but-committed ambiguity
        committed_warnings = [
            w for w in report.warnings if "but did commit" in w
        ]
        assert len(committed_warnings) == 10


class TestObserverConvergenceUnderChaos:
    def test_observer_converges_after_anti_entropy(self):
        """Gossip observers wired into a chaos run: the observer crashes
        mid-run, rumors are lost, duplicated and corrupted, yet after
        restart-triggered anti-entropy it converges byte-identically."""
        net = SebdbNetwork(num_nodes=3, consensus="kafka", seed=23,
                           batch_txs=5, timeout_ms=40)
        # meshes attach before the first commit so every block (including
        # the CREATE's schema-sync block) is announced to the observer
        meshes = [
            BlockGossip(node, net.bus, seed=23 + i, announce_commits=True)
            for i, node in enumerate(net.nodes)
        ]
        observer, obs_mesh = make_observer(net.nodes[0], net.bus, seed=41)
        net.execute("CREATE t (v int)")
        obs_id = obs_mesh.gossip.node_id
        schedule = (
            FaultSchedule()
            # every push toward the observer is lossy and duplicating;
            # one member's link additionally corrupts payloads
            .degrade_link(0, "gossip-node-0", obs_id,
                          loss_rate=0.15, duplicate_rate=0.1,
                          corrupt_rate=0.3)
            .degrade_link(0, "gossip-node-1", obs_id,
                          loss_rate=0.15, duplicate_rate=0.1)
            .degrade_link(0, "gossip-node-2", obs_id,
                          loss_rate=0.15, duplicate_rate=0.1)
            .crash(600, observer.node_id)
            .restart(2_200, observer.node_id)
            .restore_link(4_000, "gossip-node-0", obs_id)
            .restore_link(4_000, "gossip-node-1", obs_id)
            .restore_link(4_000, "gossip-node-2", obs_id)
        )
        controller = ChaosController(
            net.bus, schedule, engine=net.consensus,
            nodes=[observer], gossips=meshes + [obs_mesh],
        )
        controller.arm()
        sub = ResilientSubmitter(net.consensus, net.bus, seed=23,
                                 attempt_timeout_ms=300.0)
        submit_over_time(net, sub, count=60, window_ms=3_000)
        drive(net, 8_000)
        # a final anti-entropy pass over the (now healed) links is the
        # recovery path the paper's network layer prescribes
        obs_mesh.anti_entropy(meshes[1])
        net.bus.run_until_idle()
        # the chaos actually happened
        assert net.bus.messages_dropped > 0
        assert net.bus.messages_duplicated > 0
        assert net.bus.messages_corrupted > 0
        # convergence: the observer holds the members' exact chain
        assert observer.store.height == net.nodes[0].store.height
        assert observer.store.tip_hash == net.nodes[0].store.tip_hash
        report = InvariantChecker(list(net.nodes) + [observer], [sub]).check()
        assert report.ok and report.pending == 0


class TestNodeCrashRestart:
    def test_restart_verifies_and_catches_up(self):
        net = SebdbNetwork(num_nodes=3, consensus="kafka", seed=2,
                           batch_txs=5, timeout_ms=20)
        net.execute("CREATE t (v int)")
        net.commit()
        net.nodes[2].crash()
        for i in range(12):
            net.execute("INSERT INTO t VALUES (%s)" % i)
        net.commit()
        assert net.nodes[2].store.height < net.nodes[0].store.height
        adopted = net.nodes[2].restart(net.nodes[:2])
        assert adopted > 0
        assert net.nodes[2].store.tip_hash == net.nodes[0].store.tip_hash
        # after rejoining, new blocks flow to the restarted node again
        net.execute("INSERT INTO t VALUES (99)")
        net.commit()
        assert net.nodes[2].store.tip_hash == net.nodes[0].store.tip_hash
        assert InvariantChecker(net.nodes).check().ok


class TestCrashMidAppendSoak:
    """The ISSUE's durability scenario: the power cut lands *inside* the
    persist stage, between the intent record and the commit record."""

    @pytest.mark.parametrize("mode", ["torn", "after-append"])
    def test_persist_crash_heals_on_restart(self, mode):
        net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=29,
                           batch_txs=5, timeout_ms=40)
        net.execute("CREATE t (v int)")
        sub = ResilientSubmitter(net.consensus, net.bus, seed=29,
                                 attempt_timeout_ms=300.0)
        submit_over_time(net, sub, count=20, window_ms=800)
        # arm the one-shot fault: node-3 loses power inside the persist
        # stage of the next batch consensus delivers to it
        net.bus.schedule(
            200.0, lambda: net.nodes[3].crash_during_next_persist(mode)
        )
        drive(net, 3_000)
        victim = net.nodes[3]
        assert victim.crashed
        # the crash left the intent record unresolved - exactly the state
        # restart must repair before rejoining
        assert victim.commit_log.pending() is not None
        victim.restart(peers=net.nodes[:3])
        recovery = victim.last_recovery
        if mode == "torn":
            assert recovery["wal_discarded"] == 1 and recovery["wal_replayed"] == 0
        else:
            assert recovery["wal_replayed"] == 1 and recovery["wal_discarded"] == 0
        assert recovery["adopted"] > 0
        assert victim.commit_log.pending() is None
        drive(net, 1_000)
        # safety contract holds: no torn block, no lost or duplicated ack
        report = InvariantChecker(net.nodes, [sub]).check()
        assert report.ok
        assert report.acked == 20 and report.pending == 0
        assert len({node.store.tip_hash for node in net.nodes}) == 1

    def test_persist_crash_run_is_deterministic(self):
        def run():
            net = SebdbNetwork(num_nodes=4, consensus="kafka", seed=29,
                               batch_txs=5, timeout_ms=40)
            net.execute("CREATE t (v int)")
            sub = ResilientSubmitter(net.consensus, net.bus, seed=29,
                                     attempt_timeout_ms=300.0)
            submit_over_time(net, sub, count=20, window_ms=800)
            net.bus.schedule(
                200.0,
                lambda: net.nodes[3].crash_during_next_persist("torn"),
            )
            drive(net, 3_000)
            net.nodes[3].restart(peers=net.nodes[:3])
            drive(net, 1_000)
            return tuple(node.store.tip_hash for node in net.nodes)

        assert run() == run()


class TestDurableCheckpointRecovery:
    """ISSUE acceptance: a PBFT replica that loses its *process* state
    proves its prefix back from the checkpoint certificate its co-located
    node persisted through the commit log - no full re-verification, no
    re-execution of covered sequences."""

    def test_wiped_replica_reseeds_from_the_persisted_certificate(self):
        net = SebdbNetwork(num_nodes=4, consensus="pbft", seed=31,
                           batch_txs=2, timeout_ms=30)
        net.consensus.checkpoint_interval = 3
        net.execute("CREATE t (v int)")
        sub = ResilientSubmitter(net.consensus, net.bus, seed=31,
                                 attempt_timeout_ms=700.0, max_attempts=10)
        submit_over_time(net, sub, count=12, window_ms=800)
        drive(net, 4_000)
        node = net.nodes[3]
        # the engine's stable checkpoints were persisted, pinned to the
        # chain position they certify
        assert node.ledger.stats.checkpoints_recorded >= 1
        certificate = node.persisted_engine_checkpoint
        assert certificate is not None
        assert len(certificate.votes) >= 3  # 2f+1 with n=4
        # full process restart: the replica loses everything PBFT keeps
        # in RAM; only the node's segments and commit log survive
        node.crash()
        net.consensus.crash(3)
        net.consensus.wipe(3)
        replica = net.consensus.replicas[3]
        assert replica.last_executed == -1
        assert replica.stable_checkpoint is None
        # an under-voted certificate is refused ...
        assert not net.consensus.reseed_replica(
            3, {"seq": certificate.seq, "digest": certificate.digest,
                "votes": ["pbft-0"]},
        )
        # ... the durable 2f+1 certificate is not: the replica jumps its
        # protocol state to the certified sequence without re-running the
        # three-phase protocol for any covered sequence
        proof = {"seq": certificate.seq, "digest": certificate.digest,
                 "votes": list(certificate.votes)}
        assert net.consensus.reseed_replica(3, proof)
        assert replica.last_executed == certificate.seq
        assert replica.sequences_skipped == certificate.seq + 1
        assert replica.stable_checkpoint is not None
        # the node proves its chain prefix from the recorded anchor
        # instead of re-verifying every Merkle root back to genesis
        net.consensus.restart(3)
        node.restart(peers=net.nodes[:3])
        assert node.last_recovery["from_checkpoint"]
        # and the deployment keeps committing with the reseeded replica
        submit_over_time(net, sub, count=6, window_ms=400)
        drive(net, 4_000)
        report = InvariantChecker(net.nodes, [sub]).check()
        assert report.ok
        assert report.acked == 18 and report.pending == 0
        assert len({n.store.tip_hash for n in net.nodes}) == 1
        assert len({n.store.height for n in net.nodes}) == 1
