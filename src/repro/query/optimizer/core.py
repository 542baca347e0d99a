"""Candidate enumeration and cost ranking for single-node statements.

Enumeration rules (each maps one logical source to its decision space):

* **select** - one candidate per applicable access path, per constrained
  conjunct with a usable layered index (``rank_access_paths``);
* **join (on-chain)** - hash join over a scan or the table bitmaps, each
  with either side building the hash table, plus the Algorithm-2 merge
  join when both join columns are indexed;
* **join (on/off-chain)** - hash join over scan/bitmap plus the
  Algorithm-3 merge when the on-chain join column is indexed;
* **trace** - the Algorithm-1 structural default first (paper fidelity:
  the rule, not the estimate, picks the plan), then the remaining
  strategies cost-ranked as rejected alternatives;
* **offchain / get block** - a single candidate (no physical freedom).

Costs come from the section IV-B equations plus the hash/merge/sort
extensions on :class:`repro.storage.costmodel.CostModel`.  Cardinalities
come from the layered indexes' equal-depth histograms (continuous) or
distinct-value bitmaps (discrete) via ``estimate_matching_tuples``.
"""

from __future__ import annotations

from typing import Optional

from ...index.manager import IndexManager
from ...sqlparser import nodes
from ..logical import LBlockLookup, LJoin, LOffScan, LScan, LTrace, LogicalPlan
from ..plan import (
    AccessPath,
    JoinDecision,
    PathChoice,
    PhysicalPlan,
    Planner,
    SelectDecision,
    TraceDecision,
    avg_block_size,
    estimate_matching_tuples,
    pick_access_path,
    rank_access_paths,
)
from .candidates import Candidate, attach


def estimate_scan_rows(planner: Planner, scan: LScan) -> int:
    """Estimated tuples a scan side feeds its consumer, after pushdowns.

    The most selective constrained conjunct with a usable layered index
    bounds the estimate; without one, every tuple of the table passes.
    """
    tuples = planner.indexes.table_index.tuple_count(scan.schema.name)
    best: Optional[int] = None
    for column, constraint in scan.constraints.items():
        index = planner.indexes.layered(column, scan.schema.name)
        if index is None:
            continue
        if constraint.low is None and constraint.high is None:
            continue
        est = estimate_matching_tuples(index, constraint, tuples)
        best = est if best is None else min(best, est)
    return best if best is not None else tuples


def default_trace_path(indexes: IndexManager, trace: LTrace) -> AccessPath:
    """Algorithm 1's structural rule: layered when the index each given
    dimension needs exists (``senid`` for an operator, ``tname`` for an
    operation on its own), else the table-level bitmaps."""
    layered_ok = not (
        (trace.operator is not None and indexes.layered("senid") is None)
        or (trace.operation is not None and trace.operator is None
            and indexes.layered("tname") is None)
    )
    return AccessPath.LAYERED if layered_ok else AccessPath.BITMAP


class Optimizer:
    """Cost-ranked plan search over a single node's Planner."""

    def __init__(self, planner: Planner) -> None:
        self._planner = planner

    @property
    def planner(self) -> Planner:
        return self._planner

    # -- entry points ------------------------------------------------------

    def rank(
        self,
        statement: nodes.Statement,
        method: Optional[AccessPath] = None,
    ) -> list[Candidate]:
        """Enumerate and cost every candidate plan, chosen first.

        A forced ``method`` pins the chosen candidate (legacy benchmark
        semantics); the rest of the enumeration still trails it in the
        waterfall, cost-ranked.
        """
        lplan = self._planner.lower(statement)
        source = lplan.unwrap_source()
        if isinstance(source, LScan):
            return self._rank_select(lplan, source, method)
        if isinstance(source, LJoin):
            return self._rank_join(lplan, source, method)
        if isinstance(source, LTrace):
            return self._rank_trace(lplan, source, method)
        if isinstance(source, LOffScan):
            return [Candidate(
                label="offchain:rdbms",
                kind="offchain",
                est_cost_ms=0.0,
                build=lambda: self._planner.build(lplan),
                detail="local RDBMS is authoritative; no on-chain I/O",
            )]
        assert isinstance(source, LBlockLookup)
        cost = self._planner.store.cost
        return [Candidate(
            label="block:index-lookup",
            kind="block",
            est_cost_ms=cost.seek_ms + cost.transfer_ms,
            est_seeks=1,
            build=lambda: self._planner.build(lplan),
        )]

    def plan(
        self,
        statement: nodes.Statement,
        method: Optional[AccessPath] = None,
    ) -> PhysicalPlan:
        """Build the chosen candidate, waterfall attached."""
        ranked = self.rank(statement, method)
        return attach(ranked[0].build(), ranked)

    def force(self, candidate: Candidate) -> PhysicalPlan:
        """Build one specific enumerated candidate (the fuzz oracle)."""
        plan = candidate.build()
        plan.candidates = [candidate.info(chosen=True)]
        return plan

    # -- SELECT ------------------------------------------------------------

    def _rank_select(
        self,
        lplan: LogicalPlan,
        scan: LScan,
        method: Optional[AccessPath],
    ) -> list[Candidate]:
        planner = self._planner
        ranked = rank_access_paths(
            planner.store, planner.indexes, scan.schema.name,
            dict(scan.constraints),
        )
        if method is not None:
            # a forced layered path no index can serve is an error here
            forced = pick_access_path(ranked, scan.schema.name, method)
            ranked = [forced] + [c for c in ranked if c is not forced]
        return [self._select_candidate(lplan, choice) for choice in ranked]

    def _select_candidate(
        self, lplan: LogicalPlan, choice: PathChoice
    ) -> Candidate:
        label = f"select:{choice.path.value}"
        if choice.index is not None:
            label += f"({choice.index.column})"
        return Candidate(
            label=label,
            kind="select",
            est_cost_ms=choice.est_cost_ms,
            est_rows=choice.est_rows,
            est_seeks=choice.est_seeks,
            build=lambda: self._planner.build(lplan, SelectDecision(choice)),
        )

    # -- joins -------------------------------------------------------------

    def _rank_join(
        self,
        lplan: LogicalPlan,
        join: LJoin,
        method: Optional[AccessPath],
    ) -> list[Candidate]:
        if join.kind == "onchain":
            candidates = self._enumerate_onchain_join(lplan, join)
        else:
            candidates = self._enumerate_onoff_join(lplan, join)
        candidates.sort(key=lambda c: (c.est_cost_ms, c.label))
        if method is not None:
            # the forced method always hashes build-right / merges -
            # exactly the operator the paper's per-method figures measure
            forced_label = _forced_join_label(method, join.kind)
            forced = [c for c in candidates if c.label == forced_label]
            if forced:
                rest = [c for c in candidates if c.label != forced_label]
                return forced + rest
            # no enumerated candidate (forced layered without indexes):
            # surface the builder's QueryError at build time, as before
            decision = JoinDecision(method=method)
            return [Candidate(
                label=forced_label,
                kind="join",
                est_cost_ms=float("inf"),
                build=lambda: self._planner.build(lplan, decision),
                detail="forced method without the required indexes",
            )]
        return candidates

    def _enumerate_onchain_join(
        self, lplan: LogicalPlan, join: LJoin
    ) -> list[Candidate]:
        planner = self._planner
        store, indexes = planner.store, planner.indexes
        cost = store.cost
        assert isinstance(join.right, LScan)
        left_rows = estimate_scan_rows(planner, join.left)
        right_rows = estimate_scan_rows(planner, join.right)
        avg_block = avg_block_size(store)
        n = store.height
        k_union = len(
            indexes.table_index.blocks_for_table(join.left.schema.name)
            | indexes.table_index.blocks_for_table(join.right.schema.name)
        )
        candidates: list[Candidate] = []
        for path, k in ((AccessPath.SCAN, n), (AccessPath.BITMAP, k_union)):
            for side, build_rows, probe_rows in (
                ("right", right_rows, left_rows),
                ("left", left_rows, right_rows),
            ):
                decision = JoinDecision(method=path, build_side=side)
                candidates.append(Candidate(
                    label=f"join:hash({path.value}, build={side})",
                    kind="join",
                    est_cost_ms=cost.estimate_hash_join(
                        k, avg_block, build_rows, probe_rows
                    ),
                    est_rows=min(left_rows, right_rows),
                    est_seeks=k,
                    build=(
                        lambda d=decision: self._planner.build(lplan, d)
                    ),
                    detail=f"build side holds ~{build_rows} tuples",
                ))
        has_indexes = (
            indexes.layered(join.left_column, join.left.schema.name) is not None
            and indexes.layered(
                join.right_column, join.right.schema.name
            ) is not None
        )
        if has_indexes:
            decision = JoinDecision(method=AccessPath.LAYERED)
            candidates.append(Candidate(
                label="join:merge(layered)",
                kind="join",
                est_cost_ms=cost.estimate_merge_join(left_rows, right_rows),
                est_rows=min(left_rows, right_rows),
                est_seeks=left_rows + right_rows,
                build=lambda d=decision: self._planner.build(lplan, d),
                detail="Algorithm 2 over both sides' layered indexes",
            ))
        return candidates

    def _enumerate_onoff_join(
        self, lplan: LogicalPlan, join: LJoin
    ) -> list[Candidate]:
        planner = self._planner
        store, indexes = planner.store, planner.indexes
        cost = store.cost
        assert isinstance(join.right, LOffScan)
        on_rows = estimate_scan_rows(planner, join.left)
        off_rows = (
            planner.offchain.count(join.right.table.name)
            if planner.offchain is not None else 0
        )
        avg_block = avg_block_size(store)
        n = store.height
        k = len(
            indexes.table_index.blocks_for_table(join.left.schema.name)
        )
        candidates: list[Candidate] = []
        for path, blocks in ((AccessPath.SCAN, n), (AccessPath.BITMAP, k)):
            decision = JoinDecision(method=path)
            candidates.append(Candidate(
                # the off-chain rows always build (they are already local);
                # there is no build-side freedom to enumerate
                label=f"join:hash({path.value}, build=offchain)",
                kind="join",
                est_cost_ms=cost.estimate_hash_join(
                    blocks, avg_block, off_rows, on_rows
                ),
                est_rows=min(on_rows, max(off_rows, 1)),
                est_seeks=blocks,
                build=lambda d=decision: self._planner.build(lplan, d),
            ))
        if indexes.layered(join.left_column, join.left.schema.name) is not None:
            decision = JoinDecision(method=AccessPath.LAYERED)
            candidates.append(Candidate(
                label="join:merge(layered)",
                kind="join",
                est_cost_ms=cost.estimate_merge_join(on_rows, 0)
                + cost.estimate_sort(off_rows),
                est_rows=min(on_rows, max(off_rows, 1)),
                est_seeks=on_rows,
                build=lambda d=decision: self._planner.build(lplan, d),
                detail="Algorithm 3: off-chain [min,max] prunes level 1",
            ))
        return candidates

    # -- TRACE -------------------------------------------------------------

    def _rank_trace(
        self,
        lplan: LogicalPlan,
        trace: LTrace,
        method: Optional[AccessPath],
    ) -> list[Candidate]:
        """Algorithm 1 keeps its structural rule for the default (the
        paper's TRACE variants are defined by index availability, not
        cost), so the chosen candidate leads even when the model ranks a
        scan cheaper on a short chain; the alternatives trail, costed."""
        chosen = (
            method if method is not None
            else default_trace_path(self._planner.indexes, trace)
        )
        order = [chosen] + [
            p for p in (AccessPath.LAYERED, AccessPath.BITMAP, AccessPath.SCAN)
            if p is not chosen
        ]
        # the chain statistics are the same for all three paths: taken once
        store, indexes = self._planner.store, self._planner.indexes
        cost = store.cost
        avg_block = avg_block_size(store)
        n = store.height
        total_blocks = max(len(indexes.block_index), 1)
        total_tuples = sum(
            indexes.table_index.tuple_count(t)
            for t in indexes.table_index.table_names
        )
        # matching blocks under the tighter of the two system dimensions
        k_blocks = total_blocks
        if trace.operator is not None:
            k_blocks = min(
                k_blocks,
                len(indexes.table_index.blocks_for_sender(trace.operator)),
            )
        if trace.operation is not None:
            k_blocks = min(
                k_blocks,
                len(indexes.table_index.blocks_for_table(trace.operation)),
            )
        # discrete-uniform estimate of p over the candidate blocks
        p_rows = max(1, total_tuples * k_blocks // total_blocks)
        # path -> (est_cost_ms, est_rows, est_seeks)
        costed = {
            AccessPath.SCAN: (cost.estimate_scan(n, avg_block), 0, n),
            AccessPath.BITMAP: (
                cost.estimate_bitmap(k_blocks, avg_block), 0, k_blocks),
            AccessPath.LAYERED: (cost.estimate_layered(p_rows), p_rows, p_rows),
        }

        def candidate(path: AccessPath) -> Candidate:
            est, rows, seeks = costed[path]
            decision = TraceDecision(method=path)
            return Candidate(
                label=f"trace:{path.value}",
                kind="trace",
                est_cost_ms=est,
                est_rows=rows,
                est_seeks=seeks,
                build=lambda: self._planner.build(lplan, decision),
            )

        head, *tail = [candidate(path) for path in order]
        tail.sort(key=lambda c: (c.est_cost_ms, c.label))
        return [head] + tail


def _forced_join_label(method: AccessPath, kind: str) -> str:
    if method is AccessPath.LAYERED:
        return "join:merge(layered)"
    side = "right" if kind == "onchain" else "offchain"
    return f"join:hash({method.value}, build={side})"


__all__ = ["Optimizer", "default_trace_path", "estimate_scan_rows"]
