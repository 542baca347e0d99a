"""Simulated network: message bus and gossip."""

from .bus import ANY, LinkFault, MessageBus, corrupt_payload
from .gossip import GossipNode

__all__ = [
    "ANY",
    "GossipNode",
    "LinkFault",
    "MessageBus",
    "corrupt_payload",
]
