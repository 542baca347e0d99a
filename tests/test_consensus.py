"""Tests for the three consensus engines and the batch buffer."""

import hashlib

import pytest

from repro.bench.chaos_bench import sweep_loss_rates, sweep_loss_rates_closed_loop
from repro.bench.failover_bench import run_leader_crash
from repro.client.submitter import ResilientSubmitter
from repro.common.errors import ConfigError
from repro.consensus import (
    BYZ_EQUIVOCATE,
    BYZ_SILENT,
    BatchBuffer,
    ConsensusEngine,
    KafkaOrderer,
    PBFTCluster,
    TendermintEngine,
)
from repro.consensus.base import SerialLane
from repro.consensus.pbft import REQUEST
from repro.model import Transaction
from repro.network import MessageBus


def make_tx(i: int) -> Transaction:
    return Transaction.create("donate", (f"d{i}", "edu", float(i)),
                              ts=i, sender="client")


def collect_chains(engine, count=4):
    chains = {i: [] for i in range(count)}
    for i in range(count):
        engine.register_replica(
            f"node{i}",
            (lambda i: lambda batch: chains[i].append(
                tuple(tx.ts for tx in batch)))(i),
        )
    return chains


class TestBatchBuffer:
    def test_take_full_when_ready(self):
        buffer = BatchBuffer(3, 10.0, MessageBus())
        for i in range(2):
            buffer.append(make_tx(i))
        assert buffer.take_full() is None
        buffer.append(make_tx(2))
        batch = buffer.take_full()
        assert batch is not None and len(batch) == 3
        assert len(buffer) == 0

    def test_take_full_leaves_remainder(self):
        buffer = BatchBuffer(2, 10.0, MessageBus())
        for i in range(3):
            buffer.append(make_tx(i))
        assert len(buffer.take_full()) == 2
        assert len(buffer) == 1

    def test_take_all(self):
        buffer = BatchBuffer(10, 10.0, MessageBus())
        buffer.append(make_tx(0))
        assert len(buffer.take_all()) == 1
        assert buffer.take_all() == []

    def test_epoch_bumps_only_on_nonempty(self):
        buffer = BatchBuffer(10, 10.0, MessageBus())
        epoch = buffer.epoch
        buffer.take_all()
        assert buffer.epoch == epoch
        buffer.append(make_tx(0))
        buffer.take_all()
        assert buffer.epoch == epoch + 1

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            BatchBuffer(0, 10.0, MessageBus())

    def test_add_cuts_a_full_batch_or_arms_the_timeout_once(self):
        bus = MessageBus()
        buffer = BatchBuffer(3, 10.0, bus)
        fired = []
        assert buffer.add(make_tx(0), lambda: fired.append(bus.clock.now_ms())) is None
        assert buffer.add(make_tx(1), lambda: fired.append(-1.0)) is None
        bus.run_until_idle()
        assert fired == [10.0]  # armed by the first item only
        assert len(buffer) == 2
        full = buffer.add(make_tx(2), lambda: fired.append(-1.0))
        assert [tx.ts for tx in full] == [0, 1, 2]

    def test_a_cut_silences_the_armed_timer(self):
        bus = MessageBus()
        buffer = BatchBuffer(2, 10.0, bus)
        fired = []
        buffer.add(make_tx(0), lambda: fired.append("stale"))
        assert buffer.add(make_tx(1), lambda: fired.append("x")) is not None
        buffer.add(make_tx(2), lambda: fired.append("fresh"))
        bus.run_until_idle()
        # the first timer saw the cut; the second was armed after it
        assert fired == ["fresh"]


class TestSerialLane:
    def test_jobs_queue_behind_one_another(self):
        bus = MessageBus()
        lane = SerialLane(bus)
        done = []
        lane.run(5.0, lambda: done.append(bus.clock.now_ms()))
        lane.run(2.0, lambda: done.append(bus.clock.now_ms()))
        bus.run_until_idle()
        bus.schedule(10.0, lambda: lane.run(
            1.0, lambda: done.append(bus.clock.now_ms())))
        bus.run_until_idle()
        # the second job waits for the first; an idle lane starts at once
        assert done == [5.0, 7.0, 18.0]


class TestKafka:
    def test_batches_by_size(self):
        bus = MessageBus(seed=1)
        engine = KafkaOrderer(bus, batch_txs=5, timeout_ms=1_000)
        chains = collect_chains(engine)
        for i in range(10):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        assert [len(b) for b in chains[0]] == [5, 5]

    def test_batches_by_timeout(self):
        bus = MessageBus(seed=1)
        engine = KafkaOrderer(bus, batch_txs=100, timeout_ms=20)
        chains = collect_chains(engine)
        for i in range(3):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        assert [len(b) for b in chains[0]] == [3]
        assert bus.clock.now_ms() >= 20

    def test_all_replicas_identical(self):
        bus = MessageBus(seed=2)
        engine = KafkaOrderer(bus, batch_txs=4, timeout_ms=10)
        chains = collect_chains(engine)
        for i in range(13):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        assert chains[0] == chains[1] == chains[2] == chains[3]
        assert sum(len(b) for b in chains[0]) == 13

    def test_replies_fired(self):
        bus = MessageBus(seed=3)
        engine = KafkaOrderer(bus, batch_txs=2, timeout_ms=10)
        collect_chains(engine)
        replies = []
        for i in range(4):
            engine.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        assert len(replies) == 4
        assert all(t >= 0 for t in replies)

    def test_flush_cuts_partial_batch(self):
        bus = MessageBus(seed=4)
        engine = KafkaOrderer(bus, batch_txs=100, timeout_ms=100_000)
        chains = collect_chains(engine)
        engine.submit(make_tx(0))
        bus.run_until_idle()
        engine.flush()
        bus.run_until_idle()
        assert sum(len(b) for b in chains[0]) == 1

    def test_stats(self):
        bus = MessageBus(seed=5)
        engine = KafkaOrderer(bus, batch_txs=2, timeout_ms=10)
        collect_chains(engine)
        for i in range(4):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        assert engine.stats.submitted == 4
        assert engine.stats.committed == 4
        assert engine.stats.batches == 2


class TestPBFT:
    def run_cluster(self, n=4, byzantine=None, crash=None, txs=12,
                    request_timeout=500.0):
        bus = MessageBus(seed=7)
        cluster = PBFTCluster(bus, n=n, batch_txs=5, timeout_ms=20,
                              request_timeout_ms=request_timeout)
        if byzantine is not None:
            index, mode = byzantine
            cluster.make_byzantine(index, mode)
        chains = collect_chains(cluster, count=n)
        if crash is not None:
            cluster.crash(crash)
        replies = []
        for i in range(txs):
            cluster.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        return cluster, chains, replies

    def test_happy_path(self):
        cluster, chains, replies = self.run_cluster()
        assert chains[0] == chains[1] == chains[2] == chains[3]
        assert sum(len(b) for b in chains[0]) == 12
        assert len(replies) == 12

    def test_total_order_agreed(self):
        """Concurrent requests may be reordered by network jitter, but all
        replicas must agree on one total order covering every request."""
        _, chains, _ = self.run_cluster()
        orders = [
            [ts for batch in chains[i] for ts in batch] for i in range(4)
        ]
        assert orders[0] == orders[1] == orders[2] == orders[3]
        assert sorted(orders[0]) == list(range(12))

    @pytest.mark.parametrize("mode", [BYZ_SILENT, BYZ_EQUIVOCATE])
    def test_one_byzantine_tolerated(self, mode):
        cluster, chains, replies = self.run_cluster(byzantine=(3, mode))
        assert chains[0] == chains[1] == chains[2]
        assert sum(len(b) for b in chains[0]) == 12
        assert len(replies) == 12

    def test_pending_requests_stay_bounded(self):
        """Every replica prunes the requests it tracks once they execute,
        the primary included (it arms no progress timer to do it)."""
        bus = MessageBus(seed=8)
        cluster = PBFTCluster(bus, n=4, batch_txs=5, timeout_ms=20)
        collect_chains(cluster)
        for i in range(300):
            bus.schedule(i * 2.0, lambda i=i: cluster.submit(make_tx(i)))
        bus.run_until_idle()
        assert cluster.stats.committed == 300
        assert [len(r.pending_requests) <= 5 for r in cluster.replicas] == [
            True] * 4

    def test_in_pipeline_digests_stay_bounded(self):
        """A request's digest leaves the in-flight set once it executes;
        the executed set keeps retries out."""
        bus = MessageBus(seed=8)
        cluster = PBFTCluster(bus, n=4, batch_txs=5, timeout_ms=20)
        collect_chains(cluster)
        txs = [make_tx(i) for i in range(300)]
        for i, tx in enumerate(txs):
            bus.schedule(i * 2.0, lambda tx=tx: cluster.submit(tx))
        bus.run_until_idle()
        assert cluster.stats.committed == 300
        assert len(cluster._in_pipeline) <= 5
        # a retry of an executed request is not buffered again
        cluster.submit(txs[0])
        bus.run_until_idle()
        cluster.flush()
        bus.run_until_idle()
        assert cluster.stats.committed == 300

    def test_request_after_execution_is_not_tracked(self):
        """A REQUEST that reaches the replicas after its transaction
        executed (a client retry) enters no replica's pending table, so
        no progress timer finds it stuck."""
        bus = MessageBus(seed=8)
        cluster = PBFTCluster(bus, n=4, batch_txs=1, timeout_ms=20)
        collect_chains(cluster)
        tx = make_tx(0)
        cluster.submit(tx)
        bus.run_until_idle()
        assert cluster.stats.committed == 1
        for replica in cluster.replicas:
            replica.handle("client", {"kind": REQUEST, "tx": tx})
        assert [len(r.pending_requests) for r in cluster.replicas] == [0] * 4
        bus.run_until_idle()
        assert cluster.stats.committed == 1
        assert [r.view for r in cluster.replicas] == [0] * 4

    def test_primary_crash_triggers_view_change(self):
        cluster, chains, replies = self.run_cluster(
            crash=0, txs=3, request_timeout=100.0
        )
        assert sum(len(b) for b in chains[1]) == 3
        assert cluster.replicas[1].view >= 1

    def test_bad_byzantine_mode_rejected(self):
        bus = MessageBus()
        cluster = PBFTCluster(bus, n=4)
        from repro.common.errors import ConsensusError

        with pytest.raises(ConsensusError):
            cluster.make_byzantine(0, "chaotic")

    def test_f_computed(self):
        bus = MessageBus()
        assert PBFTCluster(bus, n=4).f == 1
        bus2 = MessageBus()
        assert PBFTCluster(bus2, n=7).f == 2


class TestTendermint:
    def test_happy_path(self):
        bus = MessageBus(seed=9)
        engine = TendermintEngine(bus, n=4, batch_txs=6, timeout_ms=20)
        chains = collect_chains(engine)
        replies = []
        for i in range(15):
            engine.submit(make_tx(i), on_reply=replies.append)
        bus.run_until_idle()
        assert chains[0] == chains[3]
        assert sum(len(b) for b in chains[0]) == 15
        assert len(replies) == 15

    def test_serial_checktx_delays_under_load(self):
        """More clients -> longer queueing in the serial CheckTx lane."""
        def mean_latency(num):
            bus = MessageBus(seed=10)
            engine = TendermintEngine(bus, n=4, batch_txs=10_000,
                                      timeout_ms=20)
            collect_chains(engine)
            latencies = []
            t0 = bus.clock.now_ms()
            for i in range(num):
                engine.submit(make_tx(i),
                              on_reply=lambda t, s=t0: latencies.append(t - s))
            bus.run_until_idle()
            return sum(latencies) / len(latencies)

        assert mean_latency(200) > mean_latency(20)

    def test_order_consistent(self):
        bus = MessageBus(seed=11)
        engine = TendermintEngine(bus, n=4, batch_txs=4, timeout_ms=10)
        chains = collect_chains(engine)
        for i in range(9):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        flattened = [ts for batch in chains[2] for ts in batch]
        assert flattened == sorted(flattened)


class TestCrossEngineEquivalence:
    """All engines must deliver the same *set* of transactions to all
    replicas in a consistent order - the property the node layer relies
    on for identical chains."""

    @pytest.mark.parametrize("factory", [
        lambda bus: KafkaOrderer(bus, batch_txs=7, timeout_ms=25),
        lambda bus: PBFTCluster(bus, n=4, batch_txs=7, timeout_ms=25),
        lambda bus: TendermintEngine(bus, n=4, batch_txs=7, timeout_ms=25),
    ])
    def test_delivery_contract(self, factory):
        bus = MessageBus(seed=21)
        engine = factory(bus)
        chains = collect_chains(engine)
        for i in range(20):
            engine.submit(make_tx(i))
        bus.run_until_idle()
        engine.flush()
        bus.run_until_idle()
        assert chains[0] == chains[1] == chains[2] == chains[3]
        delivered = [ts for batch in chains[0] for ts in batch]
        assert sorted(delivered) == list(range(20))


# -- event-trace pins ----------------------------------------------------------

def drive_in_slices(bus, engine, slices):
    """Run ``slices`` x 100 ms with a flush after each, then drain."""
    for _ in range(slices):
        bus.run_for(100.0)
        engine.flush()
    bus.run_until_idle()
    engine.flush()
    bus.run_until_idle()


def submit_spread(bus, submitter, count, window_ms):
    for i in range(count):
        bus.schedule(i * window_ms / count,
                     lambda i=i: submitter.submit(make_tx(i)))


def pbft_byzantine_crash_run():
    """n=4: replica 3 equivocates, the primary crashes at 50 ms and comes
    back at 900 ms, and every link loses, duplicates and reorders."""
    bus = MessageBus(seed=3)
    cluster = PBFTCluster(bus, n=4, batch_txs=5, timeout_ms=20,
                          request_timeout_ms=300.0)
    cluster.make_byzantine(3, BYZ_EQUIVOCATE)
    bus.set_link_fault("*", "*", loss_rate=0.05, duplicate_rate=0.05,
                       reorder_rate=0.1)
    chains = collect_chains(cluster)
    bus.schedule(50.0, lambda: cluster.crash(0))
    bus.schedule(900.0, lambda: cluster.restart(0))
    sub = ResilientSubmitter(cluster, bus, seed=3, attempt_timeout_ms=400.0,
                             max_attempts=8)
    submit_spread(bus, sub, 40, 1_000.0)
    drive_in_slices(bus, cluster, 30)
    return (chains[0], cluster.stats, len(sub.acked), len(sub.failed),
            sub.total_retries())


def tendermint_lossy_run():
    """30 % loss on every link: proposals retransmit, and a height whose
    budget runs out is abandoned and its nonces re-admitted."""
    bus = MessageBus(seed=5, loss_rate=0.3)
    engine = TendermintEngine(bus, n=4, batch_txs=8, timeout_ms=20)
    chains = collect_chains(engine)
    sub = ResilientSubmitter(engine, bus, seed=5, attempt_timeout_ms=300.0)
    submit_spread(bus, sub, 40, 800.0)
    drive_in_slices(bus, engine, 30)
    return (chains[0], engine.stats, len(sub.acked), len(sub.failed),
            sub.total_retries())


def trace_scenarios():
    scenarios = {}
    for name in ("kafka", "pbft", "tendermint"):
        scenarios[f"open-loop-{name}"] = lambda name=name: sweep_loss_rates(
            name, [0.0, 0.05, 0.2], num_txs=200)
        scenarios[f"closed-loop-{name}"] = (
            lambda name=name: sweep_loss_rates_closed_loop(
                name, [0.0, 0.2], window_ms=1_500))
    for timeout in (150, 300):
        for brokers in (3, 5):
            scenarios[f"leader-crash-{timeout}-{brokers}"] = (
                lambda timeout=timeout, brokers=brokers: run_leader_crash(
                    float(timeout), num_brokers=brokers, seed=2))
    scenarios["pbft-byzantine-crash"] = pbft_byzantine_crash_run
    scenarios["tendermint-lossy"] = tendermint_lossy_run
    return scenarios


def trace_digest(monkeypatch, scenario):
    """sha256 over every bus send ``(now_ms, src, dst, kind)``, every batch
    delivered to the replicas (each tx's ``ts`` and ``senid``) and the
    scenario's result; also the number of sends."""
    log = []
    send, deliver = MessageBus.send, ConsensusEngine._deliver

    def traced_send(bus, src, dst, message, *args, **kwargs):
        log.append((bus.clock.now_ms(), src, dst, message.get("kind")))
        send(bus, src, dst, message, *args, **kwargs)

    def traced_deliver(engine, batch):
        log.append([(tx.ts, tx.senid) for tx in batch])
        deliver(engine, batch)

    monkeypatch.setattr(MessageBus, "send", traced_send)
    monkeypatch.setattr(ConsensusEngine, "_deliver", traced_deliver)
    result = scenario()
    sends = sum(1 for entry in log if isinstance(entry, tuple))
    return hashlib.sha256(repr((log, result)).encode()).hexdigest(), sends


#: captured before the engines shared one batch cutter, serial lane and
#: counted send; re-pin only for an intended protocol change
TRACE_PINS = {
    "closed-loop-kafka": "a397edd4c70a79a9fc12e23d199f1ee5f0d8bd4c156ec2a874c9e666e02a3ea7",
    "closed-loop-pbft": "2934d2bbc6937052aeef341377b91e8a07248a559c7954990a0e2c49b793497e",
    "closed-loop-tendermint": "e69d491daf7b54940fd8d27d6c95f0d9603f5af745069941edc2792d11940551",
    "leader-crash-150-3": "1f49c7b5370f23ae51430ce21f3c658d5f88c27afd4298ec6d649cea706db9d4",
    "leader-crash-150-5": "e3bb598396f6c919bb97dd931df4f54e7d438c2bcff966cdc1326fddfddd20c4",
    "leader-crash-300-3": "a5585ebe60e46af5cddfe732611361f46c7b06dfae28cf9d646045f237ecc812",
    "leader-crash-300-5": "7cd558e079048390c25e59bacd4f9956a821992f2e72a3f95d837794c20e3f5b",
    "open-loop-kafka": "bfd308e9d7225a1eb509008a8f1f15ee5dc242cdf767004b1c472d0d28222ce7",
    "open-loop-pbft": "636726f7724cccdc57f5b610ba71e4ca5e6d4ac43cb449951a61ba623438d16e",
    "open-loop-tendermint": "deb913f8277fcfa2d3aec8661d7382b4b0c487ae6eeaf882877ed9a1ee3769c0",
    "pbft-byzantine-crash": "bc9e15a1c52e395c2fe85e03daf1e38bfa4d42ddcbea536a781e5c91753d725d",
    "tendermint-lossy": "97e795d0d6f58db516c467959868c4607cde92d788d08433239f83ac222aafa4",
}


class TestEventTracePinned:
    """Byte-identical simulation: the same sends, in the same order, at the
    same simulated times, and the same delivered batches and results."""

    @pytest.mark.parametrize("name", sorted(TRACE_PINS))
    def test_trace_matches_pin(self, monkeypatch, name):
        digest, sends = trace_digest(monkeypatch, trace_scenarios()[name])
        assert sends > 0
        assert digest == TRACE_PINS[name]

    def test_every_scenario_is_pinned(self):
        assert sorted(trace_scenarios()) == sorted(TRACE_PINS)
