"""Block storage: segment files, block store, caches, I/O cost model."""

from .blockstore import BlockStore
from .costmodel import CostModel, CostSnapshot
from .scan import StoreScanner
from .segment import BlockLocation, SegmentStore

__all__ = [
    "BlockLocation",
    "BlockStore",
    "CostModel",
    "CostSnapshot",
    "SegmentStore",
    "StoreScanner",
]
