"""Deterministic transaction -> shard routing.

Every table has a *home* policy:

* **hash** (the default): the whole table lives on
  ``sha256(table_name) % num_shards`` - stable across processes and
  Python hash seeds, so every replica routes identically;
* **pinned** (``placement[table] = shard_id``): the table is placed on
  one explicit shard (benchmarks pin disjoint tables to disjoint
  shards);
* **range** (``placement[table] = (s1, s2, ...)``, sorted split points):
  rows are partitioned on the table's *leading key* - bucket
  ``bisect_right(splits, key)``, shard ``bucket % num_shards`` - so a
  single table genuinely spans shards and single-key predicates still
  route to one of them.

``__schema__`` transactions have no home shard: every shard's catalog
must know every table, so the node broadcasts them.  Every other
transaction is an insert and routes by its leading value (a value-less
tuple by its sender id).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Optional

from ..common.errors import ShardError
from ..model.transaction import SCHEMA_TNAME, Transaction

Placement = dict[str, "int | tuple"]


def _hash_shard(table: str, num_shards: int) -> int:
    digest = hashlib.sha256(table.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class ShardRouter:
    """Maps tables, keys and transactions to their home shard."""

    def __init__(
        self, num_shards: int, placement: Optional[Placement] = None
    ) -> None:
        if num_shards < 1:
            raise ShardError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.placement: Placement = dict(placement) if placement else {}

    # -- per-table policy --------------------------------------------------

    def is_range_partitioned(self, table: str) -> bool:
        return isinstance(self.placement.get(table), tuple)

    def _splits(self, table: str) -> tuple:
        policy = self.placement.get(table)
        if not isinstance(policy, tuple):
            raise ShardError(f"table {table!r} is not range-partitioned")
        return policy

    def shard_for_key(self, table: str, key: Any) -> int:
        """The shard owning ``(table, key)`` - the write-routing primitive."""
        policy = self.placement.get(table)
        if policy is None:
            return _hash_shard(table, self.num_shards)
        if isinstance(policy, int):
            return policy % self.num_shards
        try:
            bucket = bisect.bisect_right(policy, key)
        except TypeError as exc:
            raise ShardError(
                f"key {key!r} is not comparable with the range split "
                f"points of table {table!r}"
            ) from exc
        return bucket % self.num_shards

    def home_shard(self, tx: Transaction) -> int:
        """The shard a transaction commits on (its written cell's owner)."""
        if tx.tname == SCHEMA_TNAME:
            raise ShardError(
                "__schema__ transactions are broadcast to every shard - "
                "they have no single home"
            )
        return self.shard_for_key(
            tx.tname, tx.values[0] if tx.values else tx.senid
        )

    # -- read-side pruning -------------------------------------------------

    def shards_for_table(self, table: str) -> tuple[int, ...]:
        """Every shard that may hold rows of ``table``, ascending."""
        if not self.is_range_partitioned(table):
            return (self.shard_for_key(table, None),)
        buckets = len(self._splits(table)) + 1
        return tuple(sorted({b % self.num_shards for b in range(buckets)}))

    def shards_for_range(
        self, table: str, low: Any, high: Any
    ) -> tuple[int, ...]:
        """Shards that may hold rows of ``table`` with leading key in
        ``[low, high]`` (``None`` bounds are open) - the planner's
        fan-out pruning for range-partitioned tables."""
        if not self.is_range_partitioned(table):
            return self.shards_for_table(table)
        splits = self._splits(table)
        try:
            first = 0 if low is None else bisect.bisect_right(splits, low)
            last = (
                len(splits) if high is None
                else bisect.bisect_right(splits, high)
            )
        except TypeError as exc:
            raise ShardError(
                f"bounds ({low!r}, {high!r}) are not comparable with the "
                f"range split points of table {table!r}"
            ) from exc
        return tuple(sorted(
            {b % self.num_shards for b in range(first, last + 1)}
        ))

    def all_shards(self) -> tuple[int, ...]:
        return tuple(range(self.num_shards))
