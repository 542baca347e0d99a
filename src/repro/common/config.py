"""Global configuration for a SEBDB deployment.

The paper's defaults are: 256 MB segment files, 4 MB blocks, 300-byte
transactions, 4 KB MB-tree pages, SHA-256 digests.  Here blocks are
bounded by transaction count and the page size belongs to the cost model
(``storage/costmodel.py``); the benchmark harness uses scaled-down values
so every figure regenerates in seconds while preserving relative shapes.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .errors import ConfigError

#: Paper default (section VII, "Important parameter settings").
DEFAULT_SEGMENT_FILE_SIZE = 256 * 1024 * 1024


@dataclasses.dataclass
class SebdbConfig:
    """Tunable knobs for one SEBDB node.

    Parameters
    ----------
    data_dir:
        Directory holding segment files, index files and the off-chain
        sqlite database.  ``None`` selects fully in-memory operation.
    segment_file_size:
        Maximum bytes per append-only segment file (paper default 256 MB).
    block_size_txs:
        Maximum transactions per block (the Fig 7 Kafka setup uses 200
        txs).
    package_timeout_ms:
        Packaging timeout: a non-empty block is sealed after this many
        simulated milliseconds even if not full (Fig 7 uses 200 ms).
    bptree_order:
        Fan-out of the block-level B+-tree and of the MB-trees' digest
        levels.
    histogram_depth:
        Number of buckets in the equal-depth histogram backing layered
        indexes on continuous attributes (Fig 11 uses 100).
    cache_bytes:
        Capacity of the block/transaction cache in bytes.
    cache_mode:
        ``"block"`` caches whole recently-read blocks, ``"transaction"``
        caches individual recently-read tuples (Fig 22 compares the two),
        ``"none"`` disables caching.
    num_shards:
        Number of independent ledger shards.  1 (the default) keeps the
        single-chain topology; ``N > 1`` partitions tables across N
        pipelines, each with its own orderer and segment store (see
        ``repro.shard``).
    shard_placement:
        Optional per-table placement overrides.  A table mapped to an
        ``int`` is pinned to that shard; a table mapped to a sorted
        tuple of split points is range-partitioned on its leading key
        (bucket ``bisect(splits, key)``, shard ``bucket % num_shards``).
        Tables not listed hash on their name.
    """

    data_dir: Path | None = None
    segment_file_size: int = DEFAULT_SEGMENT_FILE_SIZE
    block_size_txs: int = 1000
    package_timeout_ms: int = 200
    bptree_order: int = 32
    histogram_depth: int = 100
    cache_bytes: int = 64 * 1024 * 1024
    cache_mode: str = "transaction"
    num_shards: int = 1
    shard_placement: dict[str, int | tuple] | None = None

    def __post_init__(self) -> None:
        if self.segment_file_size <= 0:
            raise ConfigError("segment_file_size must be positive")
        if self.block_size_txs <= 0:
            raise ConfigError("block_size_txs must be positive")
        if self.package_timeout_ms < 0:
            raise ConfigError("package_timeout_ms cannot be negative")
        if self.bptree_order < 3:
            raise ConfigError("bptree_order must be at least 3")
        if self.histogram_depth < 1:
            raise ConfigError("histogram_depth must be at least 1")
        if self.num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        if self.shard_placement is not None:
            for table, policy in self.shard_placement.items():
                if isinstance(policy, int):
                    if not 0 <= policy < self.num_shards:
                        raise ConfigError(
                            f"shard_placement pins {table!r} to shard "
                            f"{policy}, outside 0..{self.num_shards - 1}"
                        )
                elif isinstance(policy, tuple):
                    try:
                        ordered = list(policy) == sorted(policy)
                    except TypeError:
                        ordered = False
                    if not ordered:
                        raise ConfigError(
                            f"shard_placement range splits for {table!r} "
                            f"must be a sorted tuple of comparable values"
                        )
                else:
                    raise ConfigError(
                        f"shard_placement for {table!r} must be an int "
                        f"(pinned shard) or a sorted tuple of split points"
                    )
        if self.cache_mode not in ("block", "transaction", "none"):
            raise ConfigError(
                f"cache_mode must be 'block', 'transaction' or 'none', "
                f"got {self.cache_mode!r}"
            )
        if self.data_dir is not None:
            self.data_dir = Path(self.data_dir)

    @classmethod
    def in_memory(cls, **overrides: object) -> "SebdbConfig":
        """A small, fast configuration for tests and examples."""
        defaults: dict = dict(
            data_dir=None,
            segment_file_size=4 * 1024 * 1024,
            block_size_txs=100,
            bptree_order=16,
            histogram_depth=16,
            cache_bytes=4 * 1024 * 1024,
        )
        defaults.update(overrides)
        return cls(**defaults)  # type: ignore[arg-type]
