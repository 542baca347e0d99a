"""Query results.

Every read returns a :class:`QueryResult`: named columns, the rows, the
transactions behind them (when on-chain), the I/O cost the query incurred,
and - for GET BLOCK - the block itself.

Results can be *materialized* (the default: the engine drains the operator
pipeline before returning) or *streaming* (``engine.execute(...,
stream=True)``): a streaming result pulls rows through the physical plan
on demand while iterated, so a consumer that stops early stops the
underlying block reads too.  Accessing ``rows``, ``transactions`` or
``len()`` drains the remainder; ``cost`` always reflects the I/O its leaf
operators charged *so far* (:meth:`~repro.query.plan.PhysicalPlan.cost`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..model.block import Block
from ..model.transaction import Transaction
from ..storage.costmodel import CostSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import PhysicalPlan


class QueryResult:
    """Result of one statement, materialized or streaming."""

    def __init__(
        self,
        columns: tuple[str, ...],
        rows: Optional[list[tuple[Any, ...]]] = None,
        access_path: str = "",
        plan: Optional["PhysicalPlan"] = None,
        stream: Optional[Iterator[tuple[Optional[Transaction], tuple]]] = None,
    ) -> None:
        self.columns = tuple(columns)
        self._rows: list[tuple[Any, ...]] = list(rows) if rows is not None else []
        self._transactions: list[Transaction] = []
        self.access_path = access_path
        #: the compiled physical plan (with per-operator stats), when the
        #: engine executed through the streaming pipeline
        self.plan = plan
        self._stream = stream

    # -- lazy materialization ---------------------------------------------

    @property
    def is_streaming(self) -> bool:
        """True while un-pulled rows remain in the pipeline."""
        return self._stream is not None

    def _drain(self) -> None:
        for tx, values in self._stream or ():
            self._rows.append(values)
            if tx is not None:
                self._transactions.append(tx)
        self._stream = None

    def _stream_iter(self) -> Iterator[tuple[Any, ...]]:
        """Yield all rows, pulling the pipeline past what's materialized."""
        i = 0
        while True:
            while i < len(self._rows):
                yield self._rows[i]
                i += 1
            if self._stream is None:
                return
            try:
                tx, values = next(self._stream)
            except StopIteration:
                self._stream = None
                continue
            self._rows.append(values)
            if tx is not None:
                self._transactions.append(tx)

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        self._drain()
        return self._rows

    @property
    def transactions(self) -> list[Transaction]:
        self._drain()
        return self._transactions

    @property
    def block(self) -> Optional[Block]:
        if self.plan is not None and self.plan.block_op is not None:
            return self.plan.block_op.block
        return None

    @property
    def cost(self) -> Optional[CostSnapshot]:
        """I/O charged to this query so far (scoped, interleaving-safe)."""
        if self.plan is not None:
            return self.plan.cost()
        return None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        if self._stream is None:
            return iter(self._rows)
        return self._stream_iter()

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as column->value mappings."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """One column's values across all rows."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]
