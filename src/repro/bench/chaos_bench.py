"""Chaos benchmark: write throughput and latency vs injected loss rate.

Complements the Fig 7 closed-loop driver with the robustness question the
paper's evaluation leaves open: how does the ordering pipeline degrade
when the client-to-orderer link drops messages?  The resilient submitter
(nonce-stamped retries with exponential backoff) converts raw loss into
extra latency and retry traffic instead of lost transactions, so the
headline metric is the *commit rate* staying ~100% while mean/p95
latency and retries grow with the loss rate.
"""

from __future__ import annotations

import dataclasses
import statistics

from ..client.submitter import ResilientSubmitter
from ..consensus.base import ConsensusEngine
from ..consensus.kafka import BROKER_ID, KafkaOrderer
from ..consensus.pbft import PBFTCluster
from ..consensus.tendermint import ENTRY_ID, TendermintEngine
from ..model.transaction import Transaction
from ..network.bus import MessageBus


@dataclasses.dataclass
class ChaosSample:
    """Outcome of one lossy-link load run."""

    loss_rate: float
    submitted: int
    acked: int
    failed: int
    retries: int
    duration_ms: float
    latencies_ms: list[float]

    @property
    def commit_rate(self) -> float:
        return self.acked / self.submitted if self.submitted else 0.0

    @property
    def throughput_tps(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.acked / (self.duration_ms / 1000.0)

    @property
    def mean_latency_ms(self) -> float:
        return statistics.fmean(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def p95_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def _submit_target(engine: ConsensusEngine) -> str:
    """Bus destination of client submissions for ``engine``."""
    if isinstance(engine, KafkaOrderer):
        return engine.broker_id
    if isinstance(engine, TendermintEngine):
        return ENTRY_ID
    if isinstance(engine, PBFTCluster):
        return "*"  # requests broadcast to every replica
    return BROKER_ID


def run_lossy_load(
    bus: MessageBus,
    engine: ConsensusEngine,
    loss_rate: float,
    num_txs: int = 300,
    window_ms: float = 1_500.0,
) -> ChaosSample:
    """Submit ``num_txs`` over ``window_ms`` through a lossy submit link."""
    if loss_rate:
        bus.set_link_fault("client", _submit_target(engine),
                           loss_rate=loss_rate)
    submitter = ResilientSubmitter(
        engine, bus, attempt_timeout_ms=300.0, max_attempts=8,
    )
    t_start = bus.clock.now_ms()
    for i in range(num_txs):
        at = (i * window_ms) / num_txs

        def fire(i: int = i) -> None:
            tx = Transaction.create(
                "donate", (f"donor{i}", "education", float(i)),
                ts=int(bus.clock.now_ms()) + 1, sender="bench",
            )
            submitter.submit(tx)

        bus.schedule(at, fire)
    # drive in slices so batch timeouts and retry backoffs interleave
    for _ in range(int(window_ms / 100.0) + 40):
        bus.run_for(100.0)
        engine.flush()
    bus.run_until_idle()
    engine.flush()
    bus.run_until_idle()
    duration = bus.clock.now_ms() - t_start
    latencies = [
        record.acked_at - record.submitted_at
        for record in submitter.acked
        if record.acked_at is not None
    ]
    return ChaosSample(
        loss_rate=loss_rate,
        submitted=len(submitter.records),
        acked=len(submitter.acked),
        failed=len(submitter.failed),
        retries=submitter.total_retries(),
        duration_ms=duration,
        latencies_ms=latencies,
    )


def run_closed_loop_lossy_load(
    bus: MessageBus,
    engine: ConsensusEngine,
    loss_rate: float,
    clients: int = 8,
    window_ms: float = 3_000.0,
    seed: int = 0,
) -> ChaosSample:
    """Closed-loop load: each client submits its next tx when the last
    one *finishes* (ack or typed failure).

    This is the driver where link loss shows up as reduced throughput:
    every lost submission or lost ack stalls that client through a retry
    round trip, so fewer requests complete inside the window.  The
    open-loop :func:`run_lossy_load` hides this (it fires a fixed count
    regardless), which is why both exist.
    """
    if loss_rate:
        bus.set_link_fault("client", _submit_target(engine),
                           loss_rate=loss_rate)
    submitter = ResilientSubmitter(
        engine, bus, seed=seed, attempt_timeout_ms=300.0, max_attempts=8,
    )
    t_start = bus.clock.now_ms()
    counter = {"next": 0}

    def fire(_record: object = None) -> None:
        if bus.clock.now_ms() - t_start >= window_ms:
            return  # window closed: this client's loop ends
        counter["next"] += 1
        i = counter["next"]
        tx = Transaction.create(
            "donate", (f"donor{i}", "education", float(i)),
            ts=int(bus.clock.now_ms()) + 1, sender="bench",
        )
        submitter.submit(tx, on_done=fire)

    for c in range(clients):
        bus.schedule(float(c), fire)  # staggered start, one loop per client
    for _ in range(int(window_ms / 100.0) + 40):
        bus.run_for(100.0)
        engine.flush()
    bus.run_until_idle()
    engine.flush()
    bus.run_until_idle()
    duration = bus.clock.now_ms() - t_start
    latencies = [
        record.acked_at - record.submitted_at
        for record in submitter.acked
        if record.acked_at is not None
    ]
    return ChaosSample(
        loss_rate=loss_rate,
        submitted=len(submitter.records),
        acked=len(submitter.acked),
        failed=len(submitter.failed),
        retries=submitter.total_retries(),
        duration_ms=duration,
        latencies_ms=latencies,
    )


def sweep_loss_rates(
    consensus: str,
    loss_rates: list[float],
    num_txs: int = 300,
    window_ms: float = 1_500.0,
) -> list[ChaosSample]:
    """One fresh bus + engine per loss rate (mirrors ``sweep_clients``)."""
    samples = []
    for loss in loss_rates:
        bus = MessageBus()
        if consensus == "kafka":
            engine: ConsensusEngine = KafkaOrderer(
                bus, batch_txs=50, timeout_ms=50.0)
        elif consensus == "pbft":
            engine = PBFTCluster(bus, n=4, batch_txs=50, timeout_ms=50.0)
        elif consensus == "tendermint":
            engine = TendermintEngine(bus, n=4, batch_txs=50, timeout_ms=50.0)
        else:
            raise ValueError(f"unknown consensus {consensus!r}")
        for i in range(4):
            engine.register_replica(f"sink-{i}", lambda batch: None)
        samples.append(
            run_lossy_load(bus, engine, loss, num_txs=num_txs,
                           window_ms=window_ms)
        )
    return samples


def sweep_loss_rates_closed_loop(
    consensus: str,
    loss_rates: list[float],
    clients: int = 8,
    window_ms: float = 3_000.0,
    seed: int = 0,
) -> list[ChaosSample]:
    """Closed-loop counterpart of :func:`sweep_loss_rates`."""
    samples = []
    for loss in loss_rates:
        bus = MessageBus(seed=seed)
        if consensus == "kafka":
            engine: ConsensusEngine = KafkaOrderer(
                bus, batch_txs=50, timeout_ms=50.0)
        elif consensus == "pbft":
            engine = PBFTCluster(bus, n=4, batch_txs=50, timeout_ms=50.0)
        elif consensus == "tendermint":
            engine = TendermintEngine(bus, n=4, batch_txs=50, timeout_ms=50.0)
        else:
            raise ValueError(f"unknown consensus {consensus!r}")
        for i in range(4):
            engine.register_replica(f"sink-{i}", lambda batch: None)
        samples.append(
            run_closed_loop_lossy_load(
                bus, engine, loss, clients=clients,
                window_ms=window_ms, seed=seed,
            )
        )
    return samples
