"""Discrete-event message bus.

The cluster of the paper's evaluation (4 servers, 1 Gbps) is simulated
in-process: nodes register message handlers, the bus delivers messages
after a configurable latency (plus deterministic jitter), and a priority
queue driven by the simulated clock executes everything in timestamp
order.  Experiments therefore run deterministically and orders of
magnitude faster than wall time while preserving the *ordering* behaviour
that consensus depends on.

Fault injection happens at two granularities:

* whole-node: :meth:`MessageBus.fail` / :meth:`MessageBus.heal` partition
  a node away entirely (both directions);
* per-link: :meth:`MessageBus.set_link_fault` attaches a
  :class:`LinkFault` to one *directed* (src, dst) pair - or to wildcard
  patterns ``(src, "*")`` / ``("*", dst)`` / ``("*", "*")`` - supporting
  asymmetric partitions, loss/delay spikes, duplication, reordering and
  payload corruption on exactly the links a chaos schedule names.

Every fault consumes randomness from the bus RNG *only when its rate is
non-zero*, so configurations without faults replay the exact event
sequence they always did.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import Any, Callable, Iterable, Optional

from ..common.clock import Clock
from ..common.errors import NetworkError

Handler = Callable[[str, Any], None]

#: wildcard endpoint accepted by the per-link fault API
ANY = "*"

#: events one drive call may run before it reports a livelock
MAX_EVENTS = 1_000_000


@dataclasses.dataclass
class LinkFault:
    """Fault filter for one directed link (or a wildcard pattern).

    Attributes
    ----------
    drop:
        Hard-drop every message on this link (an asymmetric partition
        when only one direction is configured).
    loss_rate:
        Probability each message is lost, on top of the bus-wide rate.
    extra_delay_ms:
        Fixed additional latency (a per-link delay spike).
    duplicate_rate:
        Probability a delivered message is delivered *twice*.
    reorder_rate:
        Probability a message is held back by a random extra delay of up
        to ``reorder_window_ms``, letting later traffic overtake it.
    reorder_window_ms:
        Maximum hold-back applied to reordered messages.
    corrupt_rate:
        Probability the delivered payload is corrupted (every ``bytes``
        leaf inside the message gets its first byte flipped - digests and
        serialized blocks/transactions stop verifying, while the message
        structure stays parseable).
    """

    drop: bool = False
    loss_rate: float = 0.0
    extra_delay_ms: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_window_ms: float = 5.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in ("loss_rate", "duplicate_rate", "reorder_rate",
                      "corrupt_rate"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise NetworkError(f"{field} must be in [0, 1], got {value}")
        if self.extra_delay_ms < 0 or self.reorder_window_ms < 0:
            raise NetworkError("delays cannot be negative")

    def merged_with(self, other: "LinkFault") -> "LinkFault":
        """Combine two matching filters (worst case of each field)."""
        return LinkFault(
            drop=self.drop or other.drop,
            loss_rate=max(self.loss_rate, other.loss_rate),
            extra_delay_ms=max(self.extra_delay_ms, other.extra_delay_ms),
            duplicate_rate=max(self.duplicate_rate, other.duplicate_rate),
            reorder_rate=max(self.reorder_rate, other.reorder_rate),
            reorder_window_ms=max(self.reorder_window_ms,
                                  other.reorder_window_ms),
            corrupt_rate=max(self.corrupt_rate, other.corrupt_rate),
        )


def corrupt_payload(message: Any) -> Any:
    """Deep-copy ``message`` flipping the first byte of every bytes leaf.

    Containers (dict/list/tuple) are rebuilt so the sender's copy is
    untouched; non-bytes leaves pass through unchanged, keeping the
    corrupted message *parseable* but cryptographically broken - exactly
    how a flipped bit on the wire shows up above a checksum-free
    transport.
    """
    if isinstance(message, dict):
        return {k: corrupt_payload(v) for k, v in message.items()}
    if isinstance(message, list):
        return [corrupt_payload(v) for v in message]
    if isinstance(message, tuple):
        return tuple(corrupt_payload(v) for v in message)
    if isinstance(message, (bytes, bytearray)) and len(message) > 0:
        flipped = bytearray(message)
        flipped[0] ^= 0xFF
        return bytes(flipped)
    return message


class MessageBus:
    """Latency-modelled, deterministic in-process network."""

    def __init__(
        self,
        latency_ms: float = 1.0,
        jitter_ms: float = 0.2,
        seed: int = 0,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError("loss_rate must be in [0, 1)")
        self.clock = Clock()
        self._latency = latency_ms
        self._jitter = jitter_ms
        self._loss_rate = loss_rate
        self._rng = random.Random(seed)
        self._handlers: dict[str, Handler] = {}
        self._down: set[str] = set()
        self._link_faults: dict[tuple[str, str], LinkFault] = {}
        #: (fire_time, seq, action) - seq breaks ties deterministically
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self.messages_sent = 0
        self.messages_dropped = 0
        #: sends whose destination was never registered - counted apart
        #: from fault drops so chaos assertions on drop counts are exact
        self.messages_unroutable = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.messages_corrupted = 0

    # -- membership ---------------------------------------------------------

    def register(self, node_id: str, handler: Handler) -> None:
        if node_id in self._handlers:
            raise NetworkError(f"node id {node_id!r} already registered")
        self._handlers[node_id] = handler

    @property
    def node_ids(self) -> list[str]:
        return sorted(self._handlers)

    def fail(self, node_id: str) -> None:
        """Partition a node away: its messages are dropped both ways."""
        self._down.add(node_id)

    def heal(self, node_id: str) -> None:
        self._down.discard(node_id)

    # -- per-link fault filters ---------------------------------------------

    def set_link_fault(self, src: str, dst: str, **fields: Any) -> LinkFault:
        """Attach (or update) the fault filter on the directed link
        ``src -> dst``; either endpoint may be the wildcard ``"*"``."""
        current = self._link_faults.get((src, dst), LinkFault())
        fault = dataclasses.replace(current, **fields)
        self._link_faults[(src, dst)] = fault
        return fault

    def clear_link_fault(self, src: str, dst: str) -> None:
        self._link_faults.pop((src, dst), None)

    def clear_link_faults(self) -> None:
        self._link_faults.clear()

    def link_fault(self, src: str, dst: str) -> Optional[LinkFault]:
        """The merged filter applying to ``src -> dst`` (None when clean)."""
        if not self._link_faults:
            return None
        merged: Optional[LinkFault] = None
        for key in ((src, dst), (src, ANY), (ANY, dst), (ANY, ANY)):
            fault = self._link_faults.get(key)
            if fault is not None:
                merged = fault if merged is None else merged.merged_with(fault)
        return merged

    def partition(
        self,
        group_a: Iterable[str],
        group_b: Iterable[str],
        symmetric: bool = True,
    ) -> None:
        """Sever every link from ``group_a`` to ``group_b``.

        ``symmetric=False`` leaves the reverse direction intact - the
        asymmetric partitions that break naive failure detectors.
        """
        a, b = list(group_a), list(group_b)
        for src in a:
            for dst in b:
                self.set_link_fault(src, dst, drop=True)
        if symmetric:
            for src in b:
                for dst in a:
                    self.set_link_fault(src, dst, drop=True)

    def heal_partition(
        self, group_a: Iterable[str], group_b: Iterable[str]
    ) -> None:
        """Remove the ``drop`` flags a :meth:`partition` call installed."""
        a, b = list(group_a), list(group_b)
        for src in a + b:
            for dst in a + b:
                fault = self._link_faults.get((src, dst))
                if fault is not None and fault.drop:
                    updated = dataclasses.replace(fault, drop=False)
                    if updated == LinkFault():
                        self._link_faults.pop((src, dst))
                    else:
                        self._link_faults[(src, dst)] = updated

    # -- sending --------------------------------------------------------------

    def _delay(self, override: Optional[float], fifo: bool = False) -> float:
        base = self._latency if override is None else override
        if fifo:
            return max(0.0, base)
        return max(0.0, base + self._rng.uniform(0, self._jitter))

    def send(
        self, src: str, dst: str, message: Any,
        delay_ms: Optional[float] = None, fifo: bool = False,
    ) -> None:
        """Deliver ``message`` to ``dst`` after the network latency.

        ``fifo=True`` models an ordered byte stream (one TCP connection,
        e.g. client submissions): no per-message jitter, so same-delay
        messages arrive in send order.  Link faults still apply - the
        stream can lose, duplicate, delay, or corrupt messages.
        """
        self.messages_sent += 1
        if dst not in self._handlers:
            self.messages_unroutable += 1
            return
        if src in self._down or dst in self._down:
            self.messages_dropped += 1
            return
        fault = self.link_fault(src, dst)
        if fault is not None and fault.drop:
            self.messages_dropped += 1
            return
        if self._loss_rate and self._rng.random() < self._loss_rate:
            self.messages_dropped += 1
            return
        if fault is not None:
            if fault.loss_rate and self._rng.random() < fault.loss_rate:
                self.messages_dropped += 1
                return
            if fault.corrupt_rate and self._rng.random() < fault.corrupt_rate:
                message = corrupt_payload(message)
                self.messages_corrupted += 1
        handler = self._handlers[dst]
        fire = self.clock.now_ms() + self._delay(delay_ms, fifo)
        if fault is not None:
            fire += fault.extra_delay_ms
            if fault.reorder_rate and self._rng.random() < fault.reorder_rate:
                fire += self._rng.uniform(0, fault.reorder_window_ms)
                self.messages_reordered += 1

        def deliver() -> None:
            if dst in self._down:
                self.messages_dropped += 1
                return
            handler(src, message)

        heapq.heappush(self._queue, (fire, self.clock.next_seq(), deliver))
        if (fault is not None and fault.duplicate_rate
                and self._rng.random() < fault.duplicate_rate):
            self.messages_duplicated += 1
            echo = fire + self._rng.uniform(0, self._jitter or 0.1)
            heapq.heappush(self._queue, (echo, self.clock.next_seq(), deliver))

    def broadcast(self, src: str, message: Any) -> None:
        for node_id in self.node_ids:
            if node_id != src:
                self.send(src, node_id, message)

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay_ms`` of simulated time (a timer)."""
        fire = self.clock.now_ms() + max(0.0, delay_ms)
        heapq.heappush(self._queue, (fire, self.clock.next_seq(), action))

    # -- event loop ---------------------------------------------------------------

    def step(self) -> bool:
        """Execute the earliest pending event; returns False when idle."""
        if not self._queue:
            return False
        fire, _seq, action = heapq.heappop(self._queue)
        if fire > self.clock.now_ms():
            self.clock.advance(fire - self.clock.now_ms())
        action()
        return True

    def run_until_idle(self, max_events: int = MAX_EVENTS) -> int:
        """Drain the queue; returns the number of events executed."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise NetworkError(
                    f"bus did not go idle within {max_events} events - "
                    f"likely a livelock in a protocol implementation"
                )
        return executed

    def run_for(self, duration_ms: float) -> int:
        """Run events up to now+duration; leaves later events queued."""
        deadline = self.clock.now_ms() + duration_ms
        executed = 0
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
            executed += 1
            if executed >= MAX_EVENTS:
                raise NetworkError("too many events within the window")
        if self.clock.now_ms() < deadline:
            self.clock.advance(deadline - self.clock.now_ms())
        return executed

    @property
    def pending_events(self) -> int:
        return len(self._queue)
