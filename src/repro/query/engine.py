"""The query engine: parse -> plan -> execute -> materialize (or stream).

The engine is a *read* component: it answers SELECT / TRACE / GET BLOCK /
EXPLAIN against one node's block store, indexes, catalog and off-chain
database.  CREATE and INSERT are write operations that must travel through
consensus; the node (:mod:`repro.node.fullnode`) owns those and raises
here.

Every read statement is lowered to the logical IR, decided by
:class:`~repro.query.optimizer.Optimizer` and compiled by
:meth:`~repro.query.plan.Planner.build` into a tree of streaming
operators (:mod:`repro.query.physical`), then executed by pulling rows
through it (:func:`run_plan` / :func:`explain_plan`, which the shard
coordinator also calls on its fan-out plans).  Costs are attributed to a
per-query :class:`~repro.storage.costmodel.CostTracker` created at plan
time, so two interleaved queries each see exactly their own I/O (the old
global snapshot-delta accounting double-counted under interleaving).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..common.errors import QueryError
from ..index.manager import IndexManager
from ..model.catalog import Catalog
from ..offchain.adapter import OffChainDatabase
from ..sqlparser import nodes
from ..sqlparser.parser import prepare
from ..storage.blockstore import BlockStore
from .logical import LScan
from .optimizer import Optimizer
from .plan import AccessPath, PhysicalPlan, Planner, rank_access_paths
from .result import QueryResult

MethodArg = Union[AccessPath, str, None]


def _resolve_method(method: MethodArg) -> Optional[AccessPath]:
    if method is None or isinstance(method, AccessPath):
        return method
    try:
        return AccessPath(method.lower())
    except ValueError as exc:
        raise QueryError(
            f"unknown access method {method!r}; use scan, bitmap or layered"
        ) from exc


def run_plan(plan: PhysicalPlan, stream: bool = False) -> QueryResult:
    """Execute a compiled plan: a lazy result, drained unless ``stream``."""
    result = QueryResult(
        columns=plan.columns,
        access_path=plan.access_path,
        plan=plan,
        stream=plan.root.execute(),
    )
    if not stream:
        result._drain()  # noqa: SLF001 - the result's own engine
    return result


def explain_plan(plan: PhysicalPlan, analyze: bool) -> QueryResult:
    """Render a compiled plan as EXPLAIN [ANALYZE] output."""
    if analyze:
        # time every pull, run the statement to completion, then annotate
        for op in plan.operators():
            op.timed = True
        for _ in plan.root.execute():
            pass
    return QueryResult(
        columns=("QUERY PLAN",),
        rows=[(line,) for line in plan.render(analyze=analyze)],
        access_path=plan.access_path,
        plan=plan,
    )


class QueryEngine:
    """Executes read statements against one full node's state."""

    def __init__(
        self,
        store: BlockStore,
        indexes: IndexManager,
        catalog: Catalog,
        offchain: Optional[OffChainDatabase] = None,
    ) -> None:
        self._planner = Planner(store, indexes, catalog, offchain)
        self._optimizer = Optimizer(self._planner)

    @property
    def planner(self) -> Planner:
        """This engine's planner (sharded fan-out builds per-shard subplans)."""
        return self._planner

    @property
    def optimizer(self) -> Optimizer:
        """The plan-space search over this engine's planner."""
        return self._optimizer

    # -- public API -------------------------------------------------------------

    def execute(
        self,
        statement: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
        stream: bool = False,
    ) -> QueryResult:
        """Run a read statement (SQL text or pre-parsed AST).

        ``method`` forces a physical access path (``"scan"``,
        ``"bitmap"``, ``"layered"``) - the benchmark harness uses this to
        reproduce the per-method curves; normal callers leave it ``None``
        and get the cost-based choice.

        ``stream=True`` returns a lazy result: rows are pulled through the
        operator pipeline as the result is iterated, and a consumer that
        stops early stops the underlying block reads too.
        """
        statement = prepare(statement, params)
        resolved = _resolve_method(method)
        if isinstance(statement, nodes.Explain):
            return explain_plan(
                self._optimizer.plan(statement.statement, resolved),
                statement.analyze,
            )
        if isinstance(statement, (nodes.CreateTable, nodes.Insert)):
            raise QueryError(
                "CREATE/INSERT are write statements - submit them through "
                "the node, not the query engine"
            )
        if not isinstance(
            statement, (nodes.Select, nodes.Trace, nodes.GetBlock)
        ):
            raise QueryError(f"unsupported statement {type(statement).__name__}")
        return run_plan(self._optimizer.plan(statement, resolved), stream)

    def plan(
        self,
        statement: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
        method: MethodArg = None,
    ) -> PhysicalPlan:
        """Compile a read statement to its physical plan without running it."""
        statement = prepare(statement, params)
        if isinstance(statement, nodes.Explain):
            statement = statement.statement
        return self._optimizer.plan(statement, _resolve_method(method))

    def explain(
        self, statement: Union[str, nodes.Statement],
        params: tuple[Any, ...] = (),
    ) -> dict[str, Any]:
        """Describe, without executing, how a SELECT would run.

        Returns the chosen access path, the index (if any), the estimated
        matching rows, and the modelled cost of each alternative - the
        planner's view of eqs (1)-(3).  (``EXPLAIN <stmt>`` renders the
        full operator tree; this older API reports path selection only.)
        """
        statement = prepare(statement, params)
        if isinstance(statement, nodes.Explain):
            statement = statement.statement
        if not isinstance(statement, nodes.Select):
            raise QueryError("EXPLAIN supports SELECT statements")
        if len(statement.tables) != 1 or statement.tables[0].source != "onchain":
            raise QueryError("EXPLAIN supports single on-chain tables")
        scan = self._planner.lower(statement).unwrap_source()
        assert isinstance(scan, LScan)
        schema, constraints = scan.schema, scan.constraints
        ranked = rank_access_paths(
            self._planner.store, self._planner.indexes, schema.name,
            dict(constraints),
        )
        choice = ranked[0]
        alternatives = {
            # the cheapest entry per path; None when not applicable
            path.value: next(
                (c.est_cost_ms for c in ranked if c.path is path), None
            )
            for path in AccessPath
        }
        return {
            "table": schema.name,
            "access_path": choice.path.value,
            "index_column": choice.index.column if choice.index else None,
            "estimated_rows": choice.est_rows,
            "estimated_cost_ms": choice.est_cost_ms,
            "alternatives_ms": alternatives,
            "constraints": {
                name: (c.low, c.high) for name, c in constraints.items()
            },
        }
