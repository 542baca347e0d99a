"""Costed fan-out plans for statements that span shards.

A statement that genuinely spans shards compiles to one subplan per
shard (each built by that shard's own Planner against its own store and
indexes, its leaf charging its own tracker) under a single ShardMerge.
The routing decision - which shards, and whether to fan out at all -
belongs to the ShardRouter (:mod:`repro.shard.routing`); this module
enumerates the fan-out shapes over the shards it is handed, like any
other decision, and assembles the chosen one:

* **per-shard-best** (the chosen default) - every shard picks its own
  cheapest access path, ordered statements sort per shard and k-way
  merge (ShardMerge's ordered mode, the pushdown);
* **uniform scan / bitmap / layered** - force one access path on every
  shard, what the per-method benchmark figures measure (layered only
  enumerated when every shard can serve it);
* **all-shards** - skip partition pruning entirely (only enumerated when
  pruning actually narrowed the set; its cost shows what pruning saved);
* **global-sort** - for ordered statements, concatenate the unsorted
  shard streams and sort once above the merge instead of pushing sorts
  down (byte-identical output: the ordered merge breaks ties on shard
  position, exactly a stable sort over the shard-ordered concat).

Cost of a fan-out candidate is the sum of its per-shard leaf estimates
(eqs 1-3) plus the sort terms on whichever side of the merge sorts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...common.errors import QueryError
from ...sqlparser import nodes
from .. import physical as phys
from ..aggregates import aggregate_columns, resolve_order_index
from ..logical import LAggregate, LProject, LScan, LSort, LTrace, LogicalPlan
from ..operators import projected_columns
from ..plan import (
    AccessPath,
    PathChoice,
    PhysicalPlan,
    Planner,
    TraceDecision,
    finish_pipeline,
    pick_access_path,
    rank_access_paths,
)
from .candidates import Candidate, attach
from .core import default_trace_path

ShardPlanners = Sequence[tuple[int, Planner]]

#: one shard's lowered statement, its scan source and that scan's
#: cost-ranked access paths
ShardRanking = tuple[LogicalPlan, LScan, list[PathChoice]]


def _shard_rankings(
    shard_planners: ShardPlanners, stmt: nodes.Select
) -> list[ShardRanking]:
    """Lower the statement on every shard and rank its access paths."""
    rankings: list[ShardRanking] = []
    for _sid, planner in shard_planners:
        lplan = planner.lower(stmt)
        scan = lplan.unwrap_source()
        if not isinstance(scan, LScan):
            raise QueryError(
                "sharded fan-out supports single on-chain tables"
            )
        rankings.append((lplan, scan, rank_access_paths(
            planner.store, planner.indexes, scan.schema.name,
            dict(scan.constraints),
        )))
    return rankings


def _build_fanout(
    shard_planners: ShardPlanners,
    rankings: list[ShardRanking],
    choices: list[PathChoice],
    sort_below_merge: bool,
) -> PhysicalPlan:
    """Assemble one fan-out plan: a scan leaf per shard, built from the
    access path already chosen for it, merged and finished.

    With ``sort_below_merge`` an ordered statement sorts per shard and
    k-way merges (ShardMerge's ordered mode), so a downstream LIMIT still
    stops per-shard I/O after at most ``limit + 1`` rows each; the LIMIT
    additionally pushes into each shard below the merge (the global top-k
    is a subset of the per-shard top-k's) unless DISTINCT intervenes.
    Without it the unsorted streams concatenate and the ordinary pipeline
    tail sorts once above the merge (byte-identical output: the ordered
    merge breaks ties on shard position, exactly a stable sort over the
    shard-ordered concat).  Aggregates pull the concatenated transaction
    streams through one blocking Aggregate.
    """
    shard_ids = [sid for sid, _planner in shard_planners]
    inputs = [
        planner.scan_leaf(scan, choice)
        for (_sid, planner), (_lplan, scan, _paths), choice in zip(
            shard_planners, rankings, choices
        )
    ]
    # every shard holds the same catalog: the first lowering speaks for all
    lplan, first_scan, _paths = rankings[0]
    stmt, schema = lplan.statement, first_scan.schema
    assert isinstance(stmt, nodes.Select)
    head, rest = lplan.pipeline[0], lplan.pipeline[1:]
    if isinstance(head, LAggregate):
        columns = aggregate_columns(stmt)
        root: phys.PhysicalOperator = phys.Aggregate(
            phys.ShardMerge(inputs, shard_ids), stmt, head.evaluate
        )
    else:
        assert isinstance(head, LProject) and head.row is not None
        columns = projected_columns(schema, stmt.projection)
        subplans: list[phys.PhysicalOperator] = [
            phys.Project(part, stmt.projection, head.row) for part in inputs
        ]
        sort = next((n for n in rest if isinstance(n, LSort)), None)
        if sort is not None and sort_below_merge:
            key = resolve_order_index(columns, sort.column)
            column = str(sort.column)
            subplans = [
                phys.Sort(sub, key, column, sort.descending)
                for sub in subplans
            ]
            if stmt.limit is not None and not stmt.distinct:
                subplans = [phys.Limit(sub, stmt.limit) for sub in subplans]
            root = phys.ShardMerge(
                subplans, shard_ids,
                key_index=key, column=column, descending=sort.descending,
            )
            rest = tuple(n for n in rest if n is not sort)
        else:
            root = phys.ShardMerge(subplans, shard_ids)
    root = finish_pipeline(root, rest, columns)
    return PhysicalPlan(
        root=root, columns=columns, access_path="shard-merge",
        statement=stmt, choice=choices[0],
    )


def _est_output_rows(
    shard_planners: ShardPlanners, stmt: nodes.Select, est_rows: int
) -> int:
    """Rows crossing the merge: the constraint estimate when one exists,
    else every shard's full table."""
    if est_rows:
        return est_rows
    table = stmt.tables[0].name
    return sum(
        planner.indexes.table_index.tuple_count(table)
        for _sid, planner in shard_planners
    )


def rank_sharded_select(
    shard_planners: ShardPlanners,
    stmt: nodes.Select,
    method: Optional[AccessPath] = None,
    unpruned: Optional[ShardPlanners] = None,
) -> list[Candidate]:
    """Enumerate the fan-out plan space, chosen candidate first.

    ``shard_planners`` is the (possibly pruned) shard set the router
    selected; ``unpruned`` - when pruning narrowed it - is the full
    shard set for the table, enumerated as the no-pruning alternative.
    A forced ``method`` pins the uniform candidate for that path, the
    legacy benchmark semantics (a forced layered path some shard has no
    index for raises :class:`QueryError`).
    """
    rankings = _shard_rankings(shard_planners, stmt)
    table = stmt.tables[0].name
    cost_model = shard_planners[0][1].store.cost
    ordered = stmt.order_by is not None

    def sort_overhead(rows: int, pushdown: bool) -> float:
        if not ordered:
            return 0.0
        if pushdown:
            # each shard sorts its own slice; assume an even spread
            per_shard = max(1, rows // max(len(shard_planners), 1))
            return sum(
                cost_model.estimate_sort(per_shard) for _ in shard_planners
            )
        return cost_model.estimate_sort(rows)

    def fanout_candidate(
        label: str,
        path: Optional[AccessPath],
        *,
        planners: ShardPlanners = shard_planners,
        ranked: list[ShardRanking] = rankings,
        sort_below_merge: bool = True,
        detail: str = "",
    ) -> Candidate:
        """A uniform ``path`` on every shard, or each shard's cheapest
        when ``path`` is None."""
        choices = [
            pick_access_path(paths, table, path)
            for _lplan, _scan, paths in ranked
        ]
        est_rows = sum(choice.est_rows for choice in choices)
        out_rows = _est_output_rows(planners, stmt, est_rows)
        return Candidate(
            label=label,
            kind="fanout",
            est_cost_ms=sum(choice.est_cost_ms for choice in choices)
            + sort_overhead(out_rows, sort_below_merge),
            est_rows=est_rows,
            est_seeks=sum(choice.est_seeks for choice in choices),
            build=lambda: _build_fanout(
                planners, ranked, choices, sort_below_merge
            ),
            detail=detail,
        )

    if method is not None:
        candidates = [fanout_candidate(
            f"fanout:uniform({method.value})", method,
            detail="forced method on every shard",
        )]
    else:
        candidates = [fanout_candidate(
            "fanout:per-shard-best", None,
            detail=f"{len(shard_planners)} shard(s), each picks its "
            f"cheapest path",
        )]
        # layered is only enumerated when every shard can serve it
        candidates += [
            fanout_candidate(f"fanout:uniform({path.value})", path)
            for path in (AccessPath.SCAN, AccessPath.BITMAP, AccessPath.LAYERED)
            if all(
                any(choice.path is path for choice in paths)
                for _lplan, _scan, paths in rankings
            )
        ]
    if ordered and not (stmt.has_aggregates or stmt.group_by is not None):
        candidates.append(fanout_candidate(
            "fanout:global-sort", method,
            sort_below_merge=False,
            detail="one blocking sort above the merge instead of "
            "per-shard sorts",
        ))
    if unpruned is not None and len(unpruned) > len(shard_planners):
        candidates.append(fanout_candidate(
            f"fanout:all-shards({len(unpruned)})", None,
            planners=unpruned, ranked=_shard_rankings(unpruned, stmt),
            detail="partition pruning disabled",
        ))
    head, tail = candidates[0], candidates[1:]
    tail.sort(key=lambda c: (c.est_cost_ms, c.label))
    return [head] + tail


def plan_sharded_select(
    shard_planners: ShardPlanners,
    stmt: nodes.Select,
    method: Optional[AccessPath] = None,
    unpruned: Optional[ShardPlanners] = None,
) -> PhysicalPlan:
    """The costed fan-out: build the chosen candidate, waterfall attached."""
    ranked = rank_sharded_select(shard_planners, stmt, method, unpruned)
    return attach(ranked[0].build(), ranked)


def plan_sharded_trace(
    shard_planners: ShardPlanners,
    stmt: nodes.Trace,
    method: Optional[AccessPath] = None,
) -> PhysicalPlan:
    """TRACE across shards: per-shard Algorithm-1 leaves, concatenated.

    There is no plan freedom beyond the per-shard strategy: the forced
    ``method``, else each shard's own Algorithm-1 default (a shard
    without the index degrades to its bitmaps on its own).
    """
    leaves: list[phys.PhysicalOperator] = []
    for _sid, planner in shard_planners:
        trace = planner.lower(stmt).unwrap_source()
        assert isinstance(trace, LTrace)
        decision = TraceDecision(
            method if method is not None
            else default_trace_path(planner.indexes, trace)
        )
        leaves.append(planner.trace_leaf(trace, decision))
    shard_ids = [sid for sid, _planner in shard_planners]
    return PhysicalPlan(
        root=phys.TraceRows(phys.ShardMerge(leaves, shard_ids)),
        columns=phys.TraceRows.COLUMNS,
        access_path="shard-merge", statement=stmt,
    )
