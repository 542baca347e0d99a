"""The three SEBDB index structures plus the B+-tree and the sorted run
they build on."""

from .bitmap import Bitmap
from .block_index import BlockEntry, BlockIndex
from .bptree import BPlusTree
from .histogram import EqualDepthHistogram
from .layered import LayeredIndex, ranges_intersect
from .manager import IndexManager, app_extractor, system_extractor
from .table_index import TableBitmapIndex

__all__ = [
    "BPlusTree",
    "Bitmap",
    "BlockEntry",
    "BlockIndex",
    "EqualDepthHistogram",
    "IndexManager",
    "LayeredIndex",
    "TableBitmapIndex",
    "app_extractor",
    "ranges_intersect",
    "system_extractor",
]
