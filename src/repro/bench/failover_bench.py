"""Failover benchmark: ordering-service recovery time vs election timeout.

The replicated broker cluster trades failure-detection latency against
election stability: a short ``election_timeout_ms`` re-elects quickly but
risks spurious elections under delay, a long one leaves the ordering
service dark after a leader crash.  This driver crashes the acting
leader mid-stream and measures *crash-to-next-commit* latency - the gap
during which clients see no progress - across a timeout sweep, rendered
as a TSV table like the write-path breakdown.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..client.submitter import ResilientSubmitter
from ..consensus.kafka import KafkaOrderer
from ..model.transaction import Transaction
from ..network.bus import MessageBus

#: submission window, leader crash time and leader downtime of one run (ms)
WINDOW_MS = 2_000.0
CRASH_AT_MS = 800.0
DOWNTIME_MS = 1_200.0


@dataclasses.dataclass
class FailoverSample:
    """Outcome of one leader-crash run at a fixed election timeout."""

    election_timeout_ms: float
    submitted: int
    acked: int
    retries: int
    elections: int
    resume_at_ms: Optional[float]

    @property
    def recovery_ms(self) -> float:
        """Crash-to-next-commit gap; infinite if ordering never resumed."""
        if self.resume_at_ms is None:
            return float("inf")
        return self.resume_at_ms - CRASH_AT_MS

    @property
    def commit_rate(self) -> float:
        return self.acked / self.submitted if self.submitted else 0.0


def run_leader_crash(
    election_timeout_ms: float,
    num_brokers: int = 3,
    num_txs: int = 120,
    seed: int = 0,
) -> FailoverSample:
    """Crash the acting leader mid-stream and time the commit gap."""
    bus = MessageBus(seed=seed)
    orderer = KafkaOrderer(
        bus, batch_txs=20, timeout_ms=50.0, num_brokers=num_brokers,
        election_timeout_ms=election_timeout_ms,
    )
    commits: list[float] = []
    orderer.register_replica(
        "bench-node", lambda batch: commits.append(bus.clock.now_ms())
    )
    submitter = ResilientSubmitter(
        bus=bus, engine=orderer, seed=seed,
        attempt_timeout_ms=300.0, max_attempts=12,
    )
    for i in range(num_txs):
        at = (i * WINDOW_MS) / num_txs

        def fire(i: int = i) -> None:
            tx = Transaction.create(
                "donate", (f"donor{i}", "education", float(i)),
                ts=int(bus.clock.now_ms()) + 1, sender="bench",
            )
            submitter.submit(tx)

        bus.schedule(at, fire)
    victim: dict[str, str] = {}

    def crash() -> None:
        victim["id"] = orderer.leader_id or orderer.broker_id
        orderer.crash_broker(victim["id"])

    bus.schedule(CRASH_AT_MS, crash)
    bus.schedule(CRASH_AT_MS + DOWNTIME_MS,
                 lambda: orderer.restart_broker(victim["id"]))
    for _ in range(int((WINDOW_MS + DOWNTIME_MS) / 100.0) + 40):
        bus.run_for(100.0)
        orderer.flush()
    bus.run_until_idle()
    orderer.flush()
    bus.run_until_idle()
    resume = next((at for at in commits if at > CRASH_AT_MS), None)
    return FailoverSample(
        election_timeout_ms=election_timeout_ms,
        submitted=len(submitter.records),
        acked=len(submitter.acked),
        retries=submitter.total_retries(),
        elections=orderer.stats.elections,
        resume_at_ms=resume,
    )


def sweep_election_timeouts(
    timeouts_ms: list[float],
    num_brokers: int = 3,
    num_txs: int = 120,
    seed: int = 0,
) -> list[FailoverSample]:
    """One fresh bus + cluster per timeout (mirrors ``sweep_loss_rates``)."""
    return [
        run_leader_crash(timeout, num_brokers=num_brokers,
                         num_txs=num_txs, seed=seed)
        for timeout in timeouts_ms
    ]


def render_failover_table(samples: list[FailoverSample]) -> str:
    """Render a timeout sweep as a TSV table."""
    lines = [
        "election_timeout_ms\trecovery_ms\telections\tacked\t"
        "commit_rate\tretries"
    ]
    for sample in samples:
        recovery = (
            f"{sample.recovery_ms:.1f}"
            if sample.resume_at_ms is not None else "never"
        )
        lines.append(
            f"{sample.election_timeout_ms:.0f}\t{recovery}\t"
            f"{sample.elections}\t{sample.acked}\t"
            f"{sample.commit_rate:.3f}\t{sample.retries}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(
        description="broker failover recovery-time sweep"
    )
    parser.add_argument("--timeouts", type=str, default="100,200,400,800",
                        help="comma-separated election timeouts in ms")
    parser.add_argument("--brokers", type=int, default=3)
    parser.add_argument("--txs", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None,
                        help="write the TSV here instead of stdout")
    args = parser.parse_args(argv)
    timeouts = [float(part) for part in args.timeouts.split(",") if part]
    samples = sweep_election_timeouts(
        timeouts, num_brokers=args.brokers, num_txs=args.txs, seed=args.seed,
    )
    table = render_failover_table(samples)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(table + "\n")
    else:
        print(table)


if __name__ == "__main__":  # pragma: no cover
    main()
