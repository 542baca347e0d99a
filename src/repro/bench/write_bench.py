"""Write benchmark - the Fig 7 closed-loop driver.

"A client works as follows: it first sends a transaction to system, and
then waits for a response from the system before it sends next
transaction.  Each client sends 100 transactions."  We reproduce that
loop on the simulated clock for any consensus engine, measuring committed
transactions per simulated second and the per-transaction response time.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..consensus.base import ConsensusEngine
from ..consensus.kafka import KafkaOrderer
from ..consensus.tendermint import TendermintEngine
from ..crypto.keys import KeyPair
from ..model.transaction import Transaction
from ..network.bus import MessageBus
from .metrics import ThroughputSample


def _make_tx(
    client: int, seq: int, now_ms: float, keypair: Optional[KeyPair] = None,
    table: str = "donate",
) -> Transaction:
    return Transaction.create(
        table,
        (f"donor{client}", "education", float(seq)),
        ts=int(now_ms) + 1,
        keypair=keypair,
        sender=None if keypair is not None else f"client{client}",
    )


def run_closed_loop(
    bus: MessageBus,
    engine: ConsensusEngine,
    num_clients: int,
    txs_per_client: int = 100,
    keypairs: Sequence[KeyPair] = (),
) -> ThroughputSample:
    """Drive ``num_clients`` synchronous clients to completion.

    ``keypairs`` turns on a signed workload: client ``i`` signs every
    transaction with ``keypairs[i]`` (signature-heavy write path, as the
    signed stage breakdown needs).
    """
    latencies: list[float] = []
    outstanding = {"count": num_clients * txs_per_client}
    t_start = bus.clock.now_ms()

    def client_send(client: int, remaining: int) -> None:
        if remaining <= 0:
            return
        sent_at = bus.clock.now_ms()
        keypair = keypairs[client] if keypairs else None
        tx = _make_tx(client, remaining, sent_at, keypair)

        def on_reply(commit_ms: float) -> None:
            latencies.append(bus.clock.now_ms() - sent_at)
            outstanding["count"] -= 1
            client_send(client, remaining - 1)

        engine.submit(tx, on_reply)

    for client in range(num_clients):
        client_send(client, txs_per_client)
    bus.run_until_idle(max_events=20_000_000)
    # flush any final partial batch so every client finishes
    guard = 0
    while outstanding["count"] > 0 and guard < 64:
        engine.flush()
        bus.run_until_idle(max_events=20_000_000)
        guard += 1
    duration = bus.clock.now_ms() - t_start
    committed = num_clients * txs_per_client - outstanding["count"]
    return ThroughputSample(
        clients=num_clients,
        committed=committed,
        duration_ms=duration,
        latencies_ms=latencies,
    )


EngineFactory = Callable[[MessageBus], ConsensusEngine]


def kafka_factory(
    batch_txs: int = 200, timeout_ms: float = 200.0
) -> EngineFactory:
    """Fig 7's Kafka setup: 1 broker, block = 200 txs / 200 ms."""

    def build(bus: MessageBus) -> ConsensusEngine:
        engine = KafkaOrderer(bus, batch_txs=batch_txs, timeout_ms=timeout_ms)
        _attach_sink(engine)
        return engine

    return build


def tendermint_factory(
    batch_txs: int = 10_000, timeout_ms: float = 200.0
) -> EngineFactory:
    """Fig 7's Tendermint setup: default settings, block size 10 000."""

    def build(bus: MessageBus) -> ConsensusEngine:
        engine = TendermintEngine(bus, batch_txs=batch_txs, timeout_ms=timeout_ms)
        _attach_sink(engine)
        return engine

    return build


def _attach_sink(engine: ConsensusEngine) -> None:
    """Register lightweight replicas that just count delivered batches."""
    for i in range(4):
        engine.register_replica(f"sink-{i}", lambda batch: None)


def sweep_clients(
    factory: EngineFactory,
    client_counts: list[int],
    txs_per_client: int = 100,
) -> list[ThroughputSample]:
    """One fresh engine + bus per client count (as the paper does)."""
    samples = []
    for clients in client_counts:
        bus = MessageBus()
        engine = factory(bus)
        samples.append(run_closed_loop(bus, engine, clients, txs_per_client))
    return samples


def stage_breakdown(
    num_clients: int = 40,
    txs_per_client: int = 20,
    batch_txs: int = 50,
    verify_signatures: bool = False,
) -> dict[str, dict[str, float]]:
    """Profile the write path per pipeline stage (Fig 7's companion table).

    The throughput sweeps attach counting sinks; this run instead wires a
    real :class:`~repro.node.fullnode.FullNode` to the engine so every
    delivered batch runs the full ledger pipeline - signature validation,
    sequencing, packaging, the write-ahead persist and the catalog/index
    apply.  ``verify_signatures`` switches to a signed workload (every
    client gets a deterministic keypair).  Returns ``{stage: {calls,
    txs, wall_ms, ms_per_call}}`` in canonical stage order.
    """
    from ..ledger import STAGES
    from ..node.fullnode import FullNode

    bus = MessageBus()
    engine = KafkaOrderer(bus, batch_txs=batch_txs, timeout_ms=100.0)
    node = FullNode(
        "bench-0",
        consensus=engine,
        clock=bus.clock,
        verify_signatures=verify_signatures,
    )
    node.create_table(
        "CREATE donate (donor string, project string, amount decimal)"
    )
    bus.run_until_idle()
    engine.flush()
    bus.run_until_idle()
    keypairs = (
        [KeyPair.from_seed(f"bench-client-{i}") for i in range(num_clients)]
        if verify_signatures
        else []
    )
    # profile only the client workload, not genesis/schema bootstrap
    node.ledger.stats.reset()
    run_closed_loop(bus, engine, num_clients, txs_per_client, keypairs)
    stats = node.ledger.stats
    node.close()
    profile: dict[str, dict[str, float]] = {}
    for name in STAGES:
        stage = stats.stage(name)
        profile[name] = {
            "calls": float(stage.calls),
            "txs": float(stage.txs),
            "wall_ms": stage.wall_ms,
            "ms_per_call": stage.ms_per_call(),
        }
    return profile


def render_stage_table(profile: dict[str, dict[str, float]]) -> str:
    """Render a :func:`stage_breakdown` profile as a TSV table."""
    lines = ["stage\tcalls\ttxs\twall_ms\tms_per_block"]
    for name, row in profile.items():
        lines.append(
            f"{name}\t{int(row['calls'])}\t{int(row['txs'])}\t"
            f"{row['wall_ms']:.3f}\t{row['ms_per_call']:.4f}"
        )
    return "\n".join(lines)


# -- sharded write path (Fig 7 at N partitioned pipelines) -------------------


def sharded_stage_breakdown(
    num_shards: int = 4,
    clients_per_shard: int = 10,
    txs_per_client: int = 20,
    batch_txs: int = 50,
) -> dict[str, object]:
    """Drive a disjoint-key closed loop over a :class:`ShardedNode`.

    Each shard gets its own table (``donate0`` .. ``donateN-1``, pinned
    to its shard through ``shard_placement``), its own orderer on the
    shared simulated bus, and ``clients_per_shard`` closed-loop clients
    writing only to that table - so shards never contend and the
    workload scales the way Fig 7's would on a partitioned deployment.
    Aggregate modelled throughput is total committed transactions over
    the run's simulated duration; because the per-shard orderer rounds
    overlap on the simulated clock, N shards commit ~N times the
    transactions of one shard in the same simulated window.

    Returns ``{"per_shard": {sid: stage profile}, "aggregate":
    {"num_shards", "clients", "committed", "duration_ms", "tps"}}``.
    """
    from ..common.config import SebdbConfig
    from ..ledger import STAGES
    from ..shard.node import ShardedNode

    bus = MessageBus()
    engines = {
        sid: KafkaOrderer(
            bus, batch_txs=batch_txs, timeout_ms=100.0,
            broker_id=f"kafka-broker-s{sid}",
        )
        for sid in range(num_shards)
    }
    config = SebdbConfig.in_memory(
        num_shards=num_shards,
        shard_placement={f"donate{sid}": sid for sid in range(num_shards)},
    )
    node = ShardedNode(
        "bench",
        config=config,
        clock=bus.clock,
        consensus_factory=lambda sid: engines[sid],
    )
    for sid in range(num_shards):
        node.create_table(
            f"CREATE donate{sid} (donor string, project string, "
            f"amount decimal)"
        )
    bus.run_until_idle()
    for sid in range(num_shards):
        engines[sid].flush()
    bus.run_until_idle()
    for sid in range(num_shards):
        node.shards[sid].ledger.stats.reset()

    # the closed loop: client (sid, i) sends only to shard sid's orderer
    total_clients = num_shards * clients_per_shard
    outstanding = {"count": total_clients * txs_per_client}
    latencies: list[float] = []
    t_start = bus.clock.now_ms()

    def client_send(sid: int, client: int, remaining: int) -> None:
        if remaining <= 0:
            return
        sent_at = bus.clock.now_ms()
        tx = _make_tx(
            sid * clients_per_shard + client, remaining, sent_at,
            table=f"donate{sid}",
        )

        def on_reply(commit_ms: float) -> None:
            latencies.append(bus.clock.now_ms() - sent_at)
            outstanding["count"] -= 1
            client_send(sid, client, remaining - 1)

        engines[sid].submit(tx, on_reply)

    for sid in range(num_shards):
        for client in range(clients_per_shard):
            client_send(sid, client, txs_per_client)
    bus.run_until_idle(max_events=20_000_000)
    guard = 0
    while outstanding["count"] > 0 and guard < 64:
        for sid in range(num_shards):
            engines[sid].flush()
        bus.run_until_idle(max_events=20_000_000)
        guard += 1
    duration = bus.clock.now_ms() - t_start
    committed = total_clients * txs_per_client - outstanding["count"]

    per_shard: dict[int, dict[str, dict[str, float]]] = {}
    for sid in range(num_shards):
        stats = node.shards[sid].ledger.stats
        profile: dict[str, dict[str, float]] = {}
        for name in STAGES:
            stage = stats.stage(name)
            profile[name] = {
                "calls": float(stage.calls),
                "txs": float(stage.txs),
                "wall_ms": stage.wall_ms,
                "ms_per_call": stage.ms_per_call(),
            }
        per_shard[sid] = profile
    node.close()
    sample = ThroughputSample(
        clients=total_clients, committed=committed,
        duration_ms=duration, latencies_ms=latencies,
    )
    return {
        "per_shard": per_shard,
        "aggregate": {
            "num_shards": num_shards,
            "clients": total_clients,
            "committed": committed,
            "duration_ms": duration,
            "tps": sample.throughput_tps,
        },
    }


def render_sharded_stage_table(result: dict[str, object]) -> str:
    """Render a :func:`sharded_stage_breakdown` result as one TSV table.

    Per-shard stage rows carry a leading ``shard`` column; the aggregate
    summary rides along as a trailing comment line, so the file stays a
    valid single-header TSV for plotting.
    """
    per_shard = result["per_shard"]
    aggregate = result["aggregate"]
    lines = ["shard\tstage\tcalls\ttxs\twall_ms\tms_per_block"]
    for sid in sorted(per_shard):
        for name, row in per_shard[sid].items():
            lines.append(
                f"{sid}\t{name}\t{int(row['calls'])}\t{int(row['txs'])}\t"
                f"{row['wall_ms']:.3f}\t{row['ms_per_call']:.4f}"
            )
    lines.append(
        f"# aggregate: num_shards={aggregate['num_shards']} "
        f"clients={aggregate['clients']} "
        f"committed={aggregate['committed']} "
        f"duration_ms={aggregate['duration_ms']:.1f} "
        f"tps={aggregate['tps']:.1f}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(
        description="per-stage write-path breakdown (fig 7 companion)"
    )
    parser.add_argument("--clients", type=int, default=40)
    parser.add_argument("--txs-per-client", type=int, default=20)
    parser.add_argument("--batch-txs", type=int, default=50)
    parser.add_argument("--verify-signatures", action="store_true")
    parser.add_argument("--num-shards", type=int, default=None,
                        help="partition the write path over N shards "
                             "(disjoint per-shard tables; --clients is "
                             "then per shard; N=1 runs the same harness "
                             "unsharded for comparable TSVs)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the TSV here instead of stdout")
    args = parser.parse_args(argv)
    if args.num_shards is not None:
        result = sharded_stage_breakdown(
            num_shards=args.num_shards,
            clients_per_shard=args.clients,
            txs_per_client=args.txs_per_client,
            batch_txs=args.batch_txs,
        )
        table = render_sharded_stage_table(result)
    else:
        profile = stage_breakdown(
            num_clients=args.clients,
            txs_per_client=args.txs_per_client,
            batch_txs=args.batch_txs,
            verify_signatures=args.verify_signatures,
        )
        table = render_stage_table(profile)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(table + "\n")
    else:
        print(table)


if __name__ == "__main__":  # pragma: no cover
    main()
