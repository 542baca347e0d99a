"""Scripted fault schedules.

A :class:`FaultSchedule` is a deterministic, replayable script of timed
fault events - the chaos-engineering counterpart of a benchmark workload.
Build one with the fluent helpers (``crash`` / ``partition`` /
``degrade_link`` / ...), or sample a randomized-but-seeded schedule with
:meth:`FaultSchedule.randomized`.  The schedule itself never touches the
system; :class:`~repro.faults.controller.ChaosController` arms it against
a live bus/engine/node deployment.

Two runs with the same schedule and the same bus seed produce identical
event sequences, which is what lets the soak tests assert byte-identical
chains across repetitions.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterator, Sequence

# -- event kinds --------------------------------------------------------------

CRASH = "crash"                    #: crash-stop a bus node
RESTART = "restart"                #: bring a crashed node back
PARTITION = "partition"            #: cut links between two groups
HEAL_PARTITION = "heal-partition"  #: restore links between two groups
LINK_FAULT = "link-fault"          #: degrade one directed link
CLEAR_LINK = "clear-link"          #: restore one directed link
BYZANTINE = "byzantine"            #: flip a PBFT replica Byzantine
HEAL_BYZANTINE = "heal-byzantine"  #: restore a PBFT replica to honest

_KINDS = frozenset({
    CRASH, RESTART, PARTITION, HEAL_PARTITION,
    LINK_FAULT, CLEAR_LINK, BYZANTINE, HEAL_BYZANTINE,
})


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *at* ``at_ms`` apply *kind* with ``params``."""

    at_ms: float
    kind: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("fault events cannot fire before t=0")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        # fail at build time, not mid-run when the controller applies it
        for name, value in self.params:
            if name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            if name.endswith("_ms") and value < 0:
                raise ValueError(f"{name} cannot be negative, got {value}")

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"t={self.at_ms:.0f}ms {self.kind}({args})"


class FaultSchedule:
    """An ordered, immutable-once-armed script of fault events."""

    def __init__(self) -> None:
        self._events: list[FaultEvent] = []

    # -- fluent builders ----------------------------------------------------

    def _add(self, at_ms: float, kind: str, **params: Any) -> "FaultSchedule":
        self._events.append(
            FaultEvent(at_ms, kind, tuple(sorted(params.items())))
        )
        self._events.sort(key=lambda e: e.at_ms)
        return self

    def crash(self, at_ms: float, node: str) -> "FaultSchedule":
        """Crash-stop ``node`` (a bus id, e.g. ``pbft-1``, ``kafka-broker``)."""
        return self._add(at_ms, CRASH, node=node)

    def restart(self, at_ms: float, node: str) -> "FaultSchedule":
        """Restart a previously crashed node."""
        return self._add(at_ms, RESTART, node=node)

    def partition(
        self,
        at_ms: float,
        group_a: Sequence[str],
        group_b: Sequence[str],
        symmetric: bool = True,
    ) -> "FaultSchedule":
        """Cut traffic between two groups; asymmetric cuts only a->b."""
        return self._add(
            at_ms, PARTITION,
            group_a=tuple(group_a), group_b=tuple(group_b),
            symmetric=symmetric,
        )

    def heal_partition(
        self, at_ms: float, group_a: Sequence[str], group_b: Sequence[str]
    ) -> "FaultSchedule":
        return self._add(
            at_ms, HEAL_PARTITION,
            group_a=tuple(group_a), group_b=tuple(group_b),
        )

    def degrade_link(
        self, at_ms: float, src: str, dst: str, **fault_fields: float
    ) -> "FaultSchedule":
        """Apply loss/delay/duplicate/reorder/corrupt rates to a link.

        ``src``/``dst`` accept the ``"*"`` wildcard; ``fault_fields`` are
        the :class:`~repro.network.bus.LinkFault` fields (``loss_rate``,
        ``extra_delay_ms``, ``duplicate_rate``, ``reorder_rate``,
        ``corrupt_rate``, ...).
        """
        return self._add(at_ms, LINK_FAULT, src=src, dst=dst, **fault_fields)

    def restore_link(self, at_ms: float, src: str, dst: str) -> "FaultSchedule":
        return self._add(at_ms, CLEAR_LINK, src=src, dst=dst)

    def cascading_crashes(
        self,
        at_ms: float,
        nodes: Sequence[str],
        gap_ms: float,
        downtime_ms: float,
    ) -> "FaultSchedule":
        """Crash ``nodes`` one after another, ``gap_ms`` apart.

        Each victim stays down for ``downtime_ms``.  With ``gap_ms`` <
        ``downtime_ms`` the outages overlap - aimed at consecutive PBFT
        primaries, this forces view changes to chain (v+1's primary is
        already dead when v's view change completes) and exercises the
        escalation timers.
        """
        for i, node in enumerate(nodes):
            start = at_ms + i * gap_ms
            self.crash(start, node)
            self.restart(start + downtime_ms, node)
        return self

    def leader_failover(
        self, at_ms: float, broker: str, downtime_ms: float
    ) -> "FaultSchedule":
        """Crash an ordering broker and bring it back ``downtime_ms`` later.

        Aimed at the broker-cluster leader this forces an epoch-based
        election mid-stream; the restarted broker rejoins as a follower
        and resyncs its log from the new leader.
        """
        self.crash(at_ms, broker)
        self.restart(at_ms + downtime_ms, broker)
        return self

    def broker_election_storm(
        self,
        at_ms: float,
        brokers: Sequence[str],
        gap_ms: float,
        downtime_ms: float,
    ) -> "FaultSchedule":
        """Crash successive broker leaders so elections chain.

        The broker-cluster mirror of :meth:`cascading_crashes` against
        PBFT primaries: with ``gap_ms`` < ``downtime_ms`` the freshly
        elected leader dies while its predecessor is still down, so the
        cluster must escalate through multiple epochs to regain a quorum.
        """
        return self.cascading_crashes(at_ms, brokers, gap_ms, downtime_ms)

    def byzantine(
        self, at_ms: float, replica: int, mode: str = "silent"
    ) -> "FaultSchedule":
        """Flip PBFT replica ``replica`` Byzantine (silent/equivocate)."""
        return self._add(at_ms, BYZANTINE, replica=replica, mode=mode)

    def heal_byzantine(self, at_ms: float, replica: int) -> "FaultSchedule":
        return self._add(at_ms, HEAL_BYZANTINE, replica=replica)

    # -- introspection ------------------------------------------------------

    @property
    def events(self) -> list[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def describe(self) -> str:
        return "\n".join(event.describe() for event in self._events)

    # -- randomized-but-seeded generation -----------------------------------

    @classmethod
    def randomized(
        cls, seed: int, duration_ms: float, nodes: Sequence[str]
    ) -> "FaultSchedule":
        """Sample a plausible chaos script from a seed (fully deterministic):
        one crash, one partition and two lossy links (5 % loss, 2 %
        duplication), each lasting at least 200 ms.

        Crashes always restart before ``duration_ms`` and partitions
        always heal, so a run that drains the bus afterwards can be held
        to the full convergence contract.
        """
        rng = random.Random(seed)
        schedule = cls()
        down = 200.0  # shortest sampled outage (ms)
        window = max(duration_ms - 2 * down, down)
        victim = rng.choice(list(nodes))
        start = rng.uniform(0, window)
        stop = min(duration_ms, start + rng.uniform(down, 2 * down))
        schedule.crash(start, victim)
        schedule.restart(stop, victim)
        if len(nodes) >= 2:
            cut = max(1, len(nodes) // 3)
            shuffled = list(nodes)
            rng.shuffle(shuffled)
            group_a, group_b = shuffled[:cut], shuffled[cut:]
            start = rng.uniform(0, window)
            stop = min(duration_ms, start + rng.uniform(down, 2 * down))
            symmetric = rng.random() < 0.5
            schedule.partition(start, group_a, group_b, symmetric=symmetric)
            schedule.heal_partition(stop, group_a, group_b)
        for _ in range(2):
            src = rng.choice(list(nodes) + ["*"])
            dst = rng.choice([n for n in nodes if n != src] or list(nodes))
            start = rng.uniform(0, window)
            schedule.degrade_link(
                start, src, dst, loss_rate=0.05, duplicate_rate=0.02,
            )
            schedule.restore_link(
                min(duration_ms, start + rng.uniform(down, 3 * down)),
                src, dst,
            )
        return schedule
