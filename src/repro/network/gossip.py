"""Gossip dissemination (section III-B, network layer).

SEBDB uses gossip for block propagation and data recovery.  Each node that
learns a new rumor pushes it to ``fanout`` random peers per round; rounds
repeat until no node has fresh rumors.  An anti-entropy pass lets a node
that was partitioned pull everything it missed, which is how a recovering
full node catches up with the chain.

Anti-entropy advertises a **height watermark**, not the full id list:
numbered rumor ids (``block-000000000042``) are summarised per prefix as
``{floor, contig, recent}`` - the lowest sequence held, the top of the
contiguous range above it, and a short digest of out-of-order ids beyond
that - so the pull request stays O(prefixes), not O(chain length).  The
responder streams missing rumors back in bounded chunks (``more`` flag);
the requester re-pulls only while it is still making progress, so a
buggy or malicious peer cannot trap it in a request loop.

Every inbound message is schema-checked first: non-dict payloads or
messages with missing/mistyped fields (e.g. bit-flipped by a corrupting
link) are counted in ``dropped_malformed`` and dropped, never raised.
"""

from __future__ import annotations

import random
import re
import zlib
from typing import Any, Callable, Optional

from .bus import MessageBus

#: message kinds
GOSSIP_PUSH = "gossip-push"
GOSSIP_PULL = "gossip-pull"
GOSSIP_PULL_REPLY = "gossip-pull-reply"

#: rumor ids ending in digits are summarised by (prefix, sequence)
_NUMBERED = re.compile(r"^(.*?)(\d+)$")

#: out-of-order ids advertised verbatim per prefix before falling back to
#: "responder re-sends, learner dedups"
_RECENT_CAP = 32
#: non-numbered ids advertised verbatim (rare: block rumors are numbered)
_PLAIN_CAP = 128
#: simulated time between two push rounds (ms)
_ROUND_MS = 5.0


def _split_rumor_id(rumor_id: str) -> tuple[Optional[str], int]:
    """``block-0007`` -> ("block-", 7); plain ids -> (None, 0)."""
    match = _NUMBERED.match(rumor_id)
    if match is None:
        return None, 0
    return match.group(1), int(match.group(2))


class GossipNode:
    """One gossip participant; owns a rumor store keyed by rumor id."""

    def __init__(
        self,
        node_id: str,
        bus: MessageBus,
        fanout: int = 2,
        seed: int = 0,
        on_rumor: Optional[Callable[[str, Any], None]] = None,
        validate: Optional[Callable[[str, Any], bool]] = None,
        pull_chunk: int = 64,
    ) -> None:
        self.node_id = node_id
        self._bus = bus
        self._fanout = fanout
        # crc32 is a stable digest: Python's salted str hash() would make
        # peer selection differ between processes and break reproducibility
        self._rng = random.Random(seed ^ zlib.crc32(node_id.encode("utf-8")))
        self._rumors: dict[str, Any] = {}
        #: rumor id -> remaining push rounds (rumor mongering budget)
        self._budget: dict[str, int] = {}
        self._on_rumor = on_rumor
        self._validate = validate
        self._round_pending = False
        self._pull_chunk = max(1, pull_chunk)
        #: malformed inbound messages dropped (schema/type violations)
        self.dropped_malformed = 0
        bus.register(node_id, self._handle)

    # -- public -------------------------------------------------------------

    @property
    def rumors(self) -> dict[str, Any]:
        return dict(self._rumors)

    def knows(self, rumor_id: str) -> bool:
        return rumor_id in self._rumors

    def publish(self, rumor_id: str, payload: Any) -> None:
        """Inject a new rumor at this node and start pushing it."""
        self._learn(rumor_id, payload)

    def anti_entropy(self, peer: str) -> None:
        """Pull everything ``peer`` knows that we do not (recovery)."""
        self._bus.send(
            self.node_id, peer,
            {
                "kind": GOSSIP_PULL,
                "prefixes": self._watermarks(),
                "plain": self._plain_ids(),
                "limit": self._pull_chunk,
            },
        )

    # -- watermark summary ---------------------------------------------------

    def _watermarks(self) -> dict[str, dict[str, Any]]:
        """Per-prefix ``{floor, contig, recent}`` summary of numbered ids."""
        groups: dict[str, list[int]] = {}
        for rumor_id in sorted(self._rumors):
            prefix, seq = _split_rumor_id(rumor_id)
            if prefix is not None:
                groups.setdefault(prefix, []).append(seq)
        summary: dict[str, dict[str, Any]] = {}
        for prefix, seqs in sorted(groups.items()):
            seqs = sorted(set(seqs))
            floor = seqs[0]
            contig = floor
            index = 1
            while index < len(seqs) and seqs[index] == contig + 1:
                contig += 1
                index += 1
            recent = seqs[index:][-_RECENT_CAP:]
            summary[prefix] = {
                "floor": floor, "contig": contig, "recent": recent,
            }
        return summary

    def _plain_ids(self) -> list[str]:
        plain = [
            rumor_id for rumor_id in sorted(self._rumors)
            if _split_rumor_id(rumor_id)[0] is None
        ]
        return plain[-_PLAIN_CAP:]

    def _requester_lacks(self, rumor_id: str, message: dict) -> bool:
        """True when the pull summary says the requester misses this id."""
        prefix, seq = _split_rumor_id(rumor_id)
        if prefix is None:
            return rumor_id not in message["_plain_set"]
        marks = message["prefixes"].get(prefix)
        if marks is None:
            return True
        if marks["floor"] <= seq <= marks["contig"]:
            return False
        return seq not in marks["_recent_set"]

    # -- internals -----------------------------------------------------------

    def _peers(self) -> list[str]:
        return [n for n in self._bus.node_ids if n != self.node_id]

    def _learn(self, rumor_id: str, payload: Any) -> bool:
        if rumor_id in self._rumors:
            return False
        if self._validate is not None and not self._validate(rumor_id, payload):
            # a corrupted rumor must not be stored: once stored, this node
            # would cover the id with its anti-entropy watermark and a
            # clean copy could never be re-fetched
            return False
        self._rumors[rumor_id] = payload
        # push for O(log n) + slack rounds - enough for full coverage whp
        n = max(len(self._bus.node_ids), 2)
        self._budget[rumor_id] = max(2, n.bit_length() + 1)
        if self._on_rumor is not None:
            self._on_rumor(rumor_id, payload)
        self._schedule_round(0.0)
        return True

    def _schedule_round(self, delay_ms: float) -> None:
        if self._round_pending:
            return
        self._round_pending = True
        self._bus.schedule(delay_ms, self._round)

    def _round(self) -> None:
        """Push every still-hot rumor to ``fanout`` random peers."""
        self._round_pending = False
        hot = sorted(rid for rid, budget in self._budget.items() if budget > 0)
        if not hot:
            return
        peers = self._peers()
        for rumor_id in hot:
            # spend the budget even with no peers, or a lone node spins
            self._budget[rumor_id] -= 1
            if not peers:
                continue
            targets = self._rng.sample(peers, min(self._fanout, len(peers)))
            for target in targets:
                self._bus.send(
                    self.node_id, target,
                    {
                        "kind": GOSSIP_PUSH,
                        "rumor_id": rumor_id,
                        "payload": self._rumors[rumor_id],
                    },
                )
        if any(budget > 0 for budget in self._budget.values()):
            self._schedule_round(_ROUND_MS)

    # -- message handling ----------------------------------------------------

    def _handle(self, src: str, message: Any) -> None:
        if not isinstance(message, dict):
            self.dropped_malformed += 1
            return
        kind = message.get("kind")
        if kind == GOSSIP_PUSH:
            self._on_push(message)
        elif kind == GOSSIP_PULL:
            self._on_pull(src, message)
        elif kind == GOSSIP_PULL_REPLY:
            self._on_pull_reply(src, message)
        else:
            self.dropped_malformed += 1

    def _on_push(self, message: dict) -> None:
        rumor_id = message.get("rumor_id")
        if not isinstance(rumor_id, str) or "payload" not in message:
            self.dropped_malformed += 1
            return
        if rumor_id not in self._rumors:
            self._learn(rumor_id, message["payload"])

    def _pull_well_formed(self, message: dict) -> bool:
        prefixes = message.get("prefixes")
        plain = message.get("plain")
        limit = message.get("limit")
        if (not isinstance(prefixes, dict) or not isinstance(plain, list)
                or not isinstance(limit, int) or limit < 1):
            return False
        for prefix, marks in prefixes.items():
            if not isinstance(prefix, str) or not isinstance(marks, dict):
                return False
            floor = marks.get("floor")
            contig = marks.get("contig")
            recent = marks.get("recent")
            if (not isinstance(floor, int) or not isinstance(contig, int)
                    or not isinstance(recent, list)
                    or not all(isinstance(seq, int) for seq in recent)):
                return False
        return all(isinstance(rumor_id, str) for rumor_id in plain)

    def _on_pull(self, src: str, message: dict) -> None:
        if not self._pull_well_formed(message):
            self.dropped_malformed += 1
            return
        # precompute membership sets once, not per stored rumor
        message["_plain_set"] = frozenset(message["plain"])
        for marks in message["prefixes"].values():
            marks["_recent_set"] = frozenset(marks["recent"])
        missing = [
            rumor_id for rumor_id in sorted(self._rumors)
            if self._requester_lacks(rumor_id, message)
        ]
        if not missing:
            return
        limit = min(message["limit"], self._pull_chunk)
        chunk = missing[:limit]
        self._bus.send(
            self.node_id, src,
            {
                "kind": GOSSIP_PULL_REPLY,
                "rumors": {rid: self._rumors[rid] for rid in chunk},
                "more": len(missing) > len(chunk),
            },
        )

    def _on_pull_reply(self, src: str, message: dict) -> None:
        rumors = message.get("rumors")
        if not isinstance(rumors, dict) or not all(
            isinstance(rumor_id, str) for rumor_id in rumors
        ):
            self.dropped_malformed += 1
            return
        progress = False
        for rumor_id, payload in sorted(rumors.items()):
            if self._learn(rumor_id, payload):
                progress = True
        # chunked transfer: keep pulling while the peer holds more AND we
        # actually learned something - a peer replying "more" forever
        # without new rumors cannot spin us
        if message.get("more") is True and progress:
            self.anti_entropy(src)
