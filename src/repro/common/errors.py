"""Exception hierarchy for SEBDB.

Every error raised by the library derives from :class:`SebdbError` so that
applications can catch a single base class.  Sub-classes are grouped by the
layer that raises them (parsing, catalog, storage, consensus, verification).
"""

from __future__ import annotations


class SebdbError(Exception):
    """Base class for all SEBDB errors."""


class ConfigError(SebdbError):
    """Invalid configuration value."""


class CodecError(SebdbError):
    """Raised when (de)serialization of a block or transaction fails."""


class ParseError(SebdbError):
    """Raised by the SQL-like parser on malformed input.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Character offset in the source text where the error was detected,
        or ``None`` when unknown.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


class CatalogError(SebdbError):
    """Schema/catalog level problem (unknown table, duplicate table, ...)."""


class SchemaError(CatalogError):
    """A tuple does not conform to its declared table schema."""


class StorageError(SebdbError):
    """Block store failure (corrupt segment, missing block, ...)."""


class LedgerError(SebdbError):
    """Write-path pipeline failure (commit-log corruption, torn append)."""


class ShardError(SebdbError):
    """Sharded-topology failure (routing, cross-shard commit, placement)."""


class IndexError_(SebdbError):
    """Index maintenance or lookup failure.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class QueryError(SebdbError):
    """Semantic error while planning or executing a query."""


class ForcedPathError(QueryError, ValueError):
    """A forced access path the statement cannot take (no usable index).

    Also a :class:`ValueError`: that is what forcing an unusable path
    raised before it joined the hierarchy, and callers catch it as such.
    """


class ConsensusError(SebdbError):
    """Consensus engine failure (no quorum, byzantine behaviour, ...)."""


class NetworkError(SebdbError):
    """Simulated network failure."""


class RetryExhausted(SebdbError):
    """A resilient client gave up after its retry budget ran out.

    The transaction *may or may not* have committed (the final ack could
    have been lost); callers resolve the ambiguity with a read or by
    resubmitting under the same nonce, which consensus deduplicates.
    """


class DivergenceError(SebdbError):
    """The safety contract failed after a chaos run.

    Raised by the invariant checker when honest nodes hold conflicting
    chains, an acknowledged transaction is missing, or a transaction
    committed more than once.
    """


class AccessDenied(SebdbError):
    """Access-control rejection for a channel or operation."""


class VerificationError(SebdbError):
    """Raised by a thin client when a query result fails authentication.

    This means either the soundness or the completeness check on the
    verification object (VO) did not hold - i.e. the serving full node
    returned tampered, forged, or truncated results.
    """


class SignatureError(SebdbError):
    """Invalid digital signature on a transaction or block."""


class ContractError(SebdbError):
    """Smart-contract compilation or execution failure."""
