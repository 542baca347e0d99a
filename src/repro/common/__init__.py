"""Shared utilities: errors, config, codec, hashing, caching, clock."""

from .clock import Clock
from .codec import Reader, Writer
from .config import SebdbConfig
from .errors import (
    AccessDenied,
    CatalogError,
    CodecError,
    ConfigError,
    ConsensusError,
    ContractError,
    IndexError_,
    NetworkError,
    ParseError,
    QueryError,
    SchemaError,
    SebdbError,
    SignatureError,
    StorageError,
    VerificationError,
)
from .hashing import (
    DIGEST_SIZE,
    hash_children,
    hash_concat,
    hash_leaf,
    hex_digest,
    sha256,
)
from .lru import LRUCache

__all__ = [
    "AccessDenied",
    "CatalogError",
    "Clock",
    "CodecError",
    "ConfigError",
    "ConsensusError",
    "ContractError",
    "DIGEST_SIZE",
    "IndexError_",
    "LRUCache",
    "NetworkError",
    "ParseError",
    "QueryError",
    "Reader",
    "SchemaError",
    "SebdbConfig",
    "SebdbError",
    "SignatureError",
    "StorageError",
    "VerificationError",
    "Writer",
    "hash_children",
    "hash_concat",
    "hash_leaf",
    "hex_digest",
    "sha256",
]
