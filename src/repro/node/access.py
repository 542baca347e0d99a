"""Multi-channel access control (application layer, section III-B).

"The access control verifies request permission before execution, where a
multi-channel method is adopted to protect users' privacy."  A *channel*
groups a set of member identities with the tables they may touch; a
request is admitted when some channel grants the (member, table) pair the
needed capability.  Tables not claimed by any channel are public.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from ..common.errors import AccessDenied

READ = "read"
WRITE = "write"


@dataclasses.dataclass
class Channel:
    """One privacy domain: members and the tables they share."""

    name: str
    members: set[str] = dataclasses.field(default_factory=set)
    tables: set[str] = dataclasses.field(default_factory=set)
    #: capabilities granted to members, default both
    capabilities: set[str] = dataclasses.field(
        default_factory=lambda: {READ, WRITE}
    )

    def covers(self, table: str) -> bool:
        return table.lower() in self.tables

    def grants(self, member: str, capability: str) -> bool:
        return member in self.members and capability in self.capabilities


class AccessController:
    """Channel registry + admission checks used by the full node."""

    def __init__(self) -> None:
        self._channels: dict[str, Channel] = {}

    def create_channel(
        self,
        name: str,
        members: Iterable[str] = (),
        tables: Iterable[str] = (),
        capabilities: Iterable[str] = (READ, WRITE),
    ) -> Channel:
        if name in self._channels:
            raise AccessDenied(f"channel {name!r} already exists")
        channel = Channel(
            name=name,
            members=set(members),
            tables={t.lower() for t in tables},
            capabilities=set(capabilities),
        )
        self._channels[name] = channel
        return channel

    def add_member(self, channel: str, member: str) -> None:
        self._channel(channel).members.add(member)

    def remove_member(self, channel: str, member: str) -> None:
        self._channel(channel).members.discard(member)

    def _channel(self, name: str) -> Channel:
        if name not in self._channels:
            raise AccessDenied(f"unknown channel {name!r}")
        return self._channels[name]

    # -- admission ------------------------------------------------------------

    def _is_protected(self, table: str) -> bool:
        return any(ch.covers(table) for ch in self._channels.values())

    def _check(self, member: str, table: str, capability: str) -> None:
        if not self._is_protected(table):
            return
        for channel in self._channels.values():
            if channel.covers(table) and channel.grants(member, capability):
                return
        raise AccessDenied(
            f"{member!r} lacks {capability} permission on table {table!r}"
        )

    def check_read(self, member: str, table: str) -> None:
        self._check(member, table, READ)

    def check_write(self, member: str, table: str) -> None:
        self._check(member, table, WRITE)

    def can_read(self, member: str, table: str) -> bool:
        try:
            self.check_read(member, table)
        except AccessDenied:
            return False
        return True
