"""Tests for the message bus and gossip."""

import pytest

from repro.common.errors import NetworkError
from repro.network import GossipNode, MessageBus


class TestMessageBus:
    def test_send_delivers_after_latency(self):
        bus = MessageBus(latency_ms=5.0, jitter_ms=0.0)
        received = []
        bus.register("a", lambda src, msg: received.append((src, msg)))
        bus.send("b", "a", "hello")
        assert received == []  # not yet delivered
        bus.run_until_idle()
        assert received == [("b", "hello")]
        assert bus.clock.now_ms() >= 5.0

    def test_broadcast_excludes_self(self):
        bus = MessageBus()
        log = []
        for name in ("a", "b", "c"):
            bus.register(name, (lambda n: lambda s, m: log.append(n))(name))
        bus.broadcast("a", "x")
        bus.run_until_idle()
        assert sorted(log) == ["b", "c"]

    def test_duplicate_registration_rejected(self):
        bus = MessageBus()
        bus.register("a", lambda s, m: None)
        with pytest.raises(NetworkError):
            bus.register("a", lambda s, m: None)

    def test_send_to_unknown_counted_unroutable(self):
        """A never-registered destination is not a fault drop: it gets its
        own counter so chaos assertions on drop counts stay meaningful."""
        bus = MessageBus()
        bus.send("a", "ghost", "x")
        assert bus.messages_unroutable == 1
        assert bus.messages_dropped == 0

    def test_fail_and_heal(self):
        bus = MessageBus()
        received = []
        bus.register("a", lambda s, m: received.append(m))
        bus.fail("a")
        bus.send("b", "a", "lost")
        bus.run_until_idle()
        assert received == []
        bus.heal("a")
        bus.send("b", "a", "found")
        bus.run_until_idle()
        assert received == ["found"]

    def test_fail_during_flight_drops(self):
        bus = MessageBus(latency_ms=10.0, jitter_ms=0.0)
        received = []
        bus.register("a", lambda s, m: received.append(m))
        bus.send("b", "a", "x")
        bus.fail("a")  # fails while the message is in flight
        bus.run_until_idle()
        assert received == []

    def test_ordering_by_time_then_seq(self):
        bus = MessageBus(latency_ms=0.0, jitter_ms=0.0)
        log = []
        bus.register("a", lambda s, m: log.append(m))
        bus.send("x", "a", 1)
        bus.send("x", "a", 2)
        bus.schedule(5.0, lambda: log.append("later"))
        bus.run_until_idle()
        assert log == [1, 2, "later"]

    def test_run_for_window(self):
        bus = MessageBus(latency_ms=0.0, jitter_ms=0.0)
        log = []
        bus.schedule(10.0, lambda: log.append("early"))
        bus.schedule(100.0, lambda: log.append("late"))
        bus.run_for(50.0)
        assert log == ["early"]
        assert bus.clock.now_ms() == pytest.approx(50.0)
        assert bus.pending_events == 1

    def test_livelock_guard(self):
        bus = MessageBus(latency_ms=0.0, jitter_ms=0.0)

        def forever() -> None:
            bus.schedule(0.0, forever)

        bus.schedule(0.0, forever)
        with pytest.raises(NetworkError):
            bus.run_until_idle(max_events=100)


class TestGossip:
    def test_full_dissemination(self):
        bus = MessageBus(seed=3)
        nodes = [GossipNode(f"n{i}", bus, fanout=2) for i in range(10)]
        nodes[0].publish("rumor", {"payload": 1})
        bus.run_until_idle()
        assert all(node.knows("rumor") for node in nodes)

    def test_duplicate_publish_idempotent(self):
        bus = MessageBus(seed=3)
        node = GossipNode("solo", bus)
        node.publish("r", 1)
        node.publish("r", 2)  # ignored, rumor already known
        bus.run_until_idle()
        assert node.rumors["r"] == 1

    def test_multiple_rumors(self):
        bus = MessageBus(seed=4)
        nodes = [GossipNode(f"n{i}", bus, fanout=2) for i in range(6)]
        nodes[0].publish("a", 1)
        nodes[3].publish("b", 2)
        bus.run_until_idle()
        for node in nodes:
            assert node.knows("a") and node.knows("b")

    def test_anti_entropy_recovery(self):
        bus = MessageBus(seed=5)
        alive = GossipNode("alive", bus)
        lagging = GossipNode("lagging", bus)
        bus.fail("lagging")
        for i in range(5):
            alive.publish(f"r{i}", i)
        bus.run_until_idle()
        assert not lagging.knows("r0")
        bus.heal("lagging")
        lagging.anti_entropy("alive")
        bus.run_until_idle()
        assert all(lagging.knows(f"r{i}") for i in range(5))

    def test_callback_invoked_once_per_rumor(self):
        bus = MessageBus(seed=6)
        learned = []
        nodes = [
            GossipNode(f"n{i}", bus, fanout=3,
                       on_rumor=lambda rid, p: learned.append(rid))
            for i in range(5)
        ]
        nodes[0].publish("x", 1)
        bus.run_until_idle()
        assert learned.count("x") == 5  # each node learns exactly once
