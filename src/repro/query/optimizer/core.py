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

import dataclasses
from typing import Any, Callable, Mapping, Optional, Sequence

from ...index.layered import LayeredIndex
from ...index.manager import IndexManager
from ...sqlparser import nodes
from ...sqlparser.parser import Binder
from ..logical import (
    LBlockLookup,
    LJoin,
    LOffScan,
    LScan,
    LTrace,
    LogicalPlan,
    Lowering,
)
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
    usable_indexes,
)
from .candidates import Candidate, attach

#: statements an optimizer keeps planned; full, it starts over, as the
#: parser's text cache does at the same size
PREPARED_ENTRIES = 512

#: costs one statement's enumerated candidates for one call's lowered plan
Ranker = Callable[[LogicalPlan, Optional[AccessPath]], list[Candidate]]


def estimate_scan_rows(
    planner: Planner, scan: LScan, usable: Mapping[str, LayeredIndex]
) -> int:
    """Estimated tuples a scan side feeds its consumer, after pushdowns.

    The most selective constrained conjunct with a usable layered index
    (``usable``, by column) bounds the estimate; without one, every
    tuple of the table passes.
    """
    tuples = planner.indexes.table_index.tuple_count(scan.schema.name)
    best: Optional[int] = None
    for column, constraint in scan.constraints.items():
        index = usable.get(column)
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
    return _trace_rule(
        trace,
        indexes.layered("senid") is not None,
        indexes.layered("tname") is not None,
    )


def _trace_rule(trace: LTrace, has_senid: bool, has_tname: bool) -> AccessPath:
    """:func:`default_trace_path` over the two indexes' presence."""
    layered_ok = not (
        (trace.operator is not None and not has_senid)
        or (trace.operation is not None and trace.operator is None
            and not has_tname)
    )
    return AccessPath.LAYERED if layered_ok else AccessPath.BITMAP


@dataclasses.dataclass
class Prepared:
    """The once-per-text half of planning one read statement.

    ``binder`` substitutes a call's parameters; ``lowering`` and
    ``ranker`` are filled by the first call that needs them, through the
    same code every later call reads: the lowering of the statement's
    shape (tables, WHERE split, column positions) and its candidate
    enumeration (labels, kinds, decisions, build recipes).  Valid while
    the planner's :attr:`~repro.query.plan.Planner.schema_version` is
    ``version``.
    """

    version: tuple[int, int, int]
    binder: Binder
    lowering: Optional[Lowering] = None
    ranker: Optional[Ranker] = None


class Optimizer:
    """Cost-ranked plan search over a single node's Planner.

    Planning a statement splits in two.  Once per statement text (the
    parsed statement, placeholders unbound, is the key; a change to the
    catalog, the layered-index set or the off-chain tables misses): the
    binder's slots, the lowered shape and the candidate enumeration, kept
    in a :class:`Prepared`.  Per call: substitute the values, extract the
    range constraints, cost each enumerated candidate against the chain
    as it is now, and build the cheapest.  Nothing is keyed on values.
    """

    def __init__(self, planner: Planner) -> None:
        self._planner = planner
        self._prepared: dict[nodes.Statement, Prepared] = {}

    @property
    def planner(self) -> Planner:
        return self._planner

    # -- entry points ------------------------------------------------------

    def rank(
        self,
        statement: nodes.Statement,
        method: Optional[AccessPath] = None,
        params: Sequence[Any] = (),
    ) -> list[Candidate]:
        """Enumerate and cost every candidate plan, chosen first.

        ``params`` bind the statement's placeholders, one each: a
        placeholder left unbound is a ``ParseError``, not a value to plan
        with.  A forced ``method`` pins the chosen candidate (legacy
        benchmark semantics); the rest of the enumeration still trails it
        in the waterfall, cost-ranked.
        """
        prepared = self._prepare(statement)
        bound = prepared.binder(params)
        if prepared.lowering is None:
            prepared.lowering = self._planner.lowering(statement)
        lplan = prepared.lowering(bound)
        if prepared.ranker is None:
            prepared.ranker = self._ranker(lplan)
        return prepared.ranker(lplan, method)

    def plan(
        self,
        statement: nodes.Statement,
        method: Optional[AccessPath] = None,
        params: Sequence[Any] = (),
    ) -> PhysicalPlan:
        """Build the chosen candidate, waterfall attached."""
        ranked = self.rank(statement, method, params)
        return attach(ranked[0].build(), ranked)

    def force(self, candidate: Candidate) -> PhysicalPlan:
        """Build one specific enumerated candidate (the fuzz oracle)."""
        plan = candidate.build()
        plan.candidates = [candidate.info(chosen=True)]
        return plan

    # -- the once-per-text half ---------------------------------------------

    def _prepare(self, statement: nodes.Statement) -> Prepared:
        """``statement``'s memo entry, new when missing or stale."""
        version = self._planner.schema_version
        prepared = self._prepared.get(statement)
        if prepared is None or prepared.version != version:
            if len(self._prepared) >= PREPARED_ENTRIES:
                self._prepared.clear()
            prepared = self._prepared[statement] = Prepared(
                version, Binder(statement))
        return prepared

    def _ranker(self, lplan: LogicalPlan) -> Ranker:
        """Enumerate the candidates of ``lplan``'s shape; the result costs
        them for any lowered plan of the same statement."""
        source = lplan.unwrap_source()
        if isinstance(source, LScan):
            return self._select_ranker(source)
        if isinstance(source, LJoin):
            return self._join_ranker(source)
        if isinstance(source, LTrace):
            return self._trace_ranker()
        planner = self._planner
        if isinstance(source, LOffScan):
            return lambda lplan, _method: [Candidate(
                label="offchain:rdbms",
                kind="offchain",
                est_cost_ms=0.0,
                build=lambda: planner.build(lplan),
            )]
        assert isinstance(source, LBlockLookup)
        return lambda lplan, _method: [Candidate(
            label="block:index-lookup",
            kind="block",
            est_cost_ms=planner.store.cost.seek_ms + planner.store.cost.transfer_ms,
            est_seeks=1,
            build=lambda: planner.build(lplan),
        )]

    # -- SELECT ------------------------------------------------------------

    def _select_ranker(self, scan: LScan) -> Ranker:
        planner = self._planner
        table = scan.schema.name
        # the constrained columns are the WHERE's, whatever its values
        usable = usable_indexes(planner.indexes, table, scan.constraints)

        def rank(lplan: LogicalPlan, method: Optional[AccessPath]) -> list[Candidate]:
            scan = lplan.unwrap_source()
            assert isinstance(scan, LScan)
            ranked = rank_access_paths(
                planner.store, planner.indexes, table, scan.constraints,
                usable,
            )
            if method is not None:
                # a forced layered path no index can serve is an error here
                forced = pick_access_path(ranked, table, method)
                ranked = [forced] + [c for c in ranked if c is not forced]
            return [self._select_candidate(lplan, choice) for choice in ranked]
        return rank

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

    def _join_ranker(self, join: LJoin) -> Ranker:
        planner = self._planner
        indexes = planner.indexes
        left = join.left.schema.name
        left_usable = usable_indexes(indexes, left, join.left.constraints)
        merge = indexes.layered(join.left_column, left) is not None
        if isinstance(join.right, LScan):
            right = join.right.schema.name
            right_usable = usable_indexes(
                indexes, right, join.right.constraints)
            merge = merge and indexes.layered(
                join.right_column, right) is not None

            def enumerate_join(lplan: LogicalPlan) -> list[Candidate]:
                join = lplan.unwrap_source()
                assert isinstance(join, LJoin) and isinstance(join.right, LScan)
                return self._onchain_join_candidates(
                    lplan, estimate_scan_rows(planner, join.left, left_usable),
                    estimate_scan_rows(planner, join.right, right_usable),
                    (left, right), merge,
                )
        else:
            off_table = join.right.table.name

            def enumerate_join(lplan: LogicalPlan) -> list[Candidate]:
                join = lplan.unwrap_source()
                assert isinstance(join, LJoin)
                return self._onoff_join_candidates(
                    lplan, estimate_scan_rows(planner, join.left, left_usable),
                    left, off_table, merge,
                )
        kind = join.kind

        def rank(lplan: LogicalPlan, method: Optional[AccessPath]) -> list[Candidate]:
            candidates = enumerate_join(lplan)
            candidates.sort(key=lambda c: (c.est_cost_ms, c.label))
            if method is None:
                return candidates
            # the forced method always hashes build-right / merges -
            # exactly the operator the paper's per-method figures measure
            forced_label = _forced_join_label(method, kind)
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
                build=lambda: planner.build(lplan, decision),
            )]
        return rank

    def _onchain_join_candidates(
        self,
        lplan: LogicalPlan,
        left_rows: int,
        right_rows: int,
        tables: tuple[str, str],
        merge: bool,
    ) -> list[Candidate]:
        planner = self._planner
        store, indexes = planner.store, planner.indexes
        cost = store.cost
        avg_block = avg_block_size(store)
        n = store.height
        k_union = len(
            indexes.table_index.blocks_for_table(tables[0])
            | indexes.table_index.blocks_for_table(tables[1])
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
                        lambda d=decision: planner.build(lplan, d)
                    ),
                ))
        if merge:
            decision = JoinDecision(method=AccessPath.LAYERED)
            candidates.append(Candidate(
                label="join:merge(layered)",
                kind="join",
                est_cost_ms=cost.estimate_merge_join(left_rows, right_rows),
                est_rows=min(left_rows, right_rows),
                est_seeks=left_rows + right_rows,
                build=lambda d=decision: planner.build(lplan, d),
            ))
        return candidates

    def _onoff_join_candidates(
        self,
        lplan: LogicalPlan,
        on_rows: int,
        on_table: str,
        off_table: str,
        merge: bool,
    ) -> list[Candidate]:
        planner = self._planner
        store, indexes = planner.store, planner.indexes
        cost = store.cost
        off_rows = (
            planner.offchain.count(off_table)
            if planner.offchain is not None else 0
        )
        avg_block = avg_block_size(store)
        n = store.height
        k = len(indexes.table_index.blocks_for_table(on_table))
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
                build=lambda d=decision: planner.build(lplan, d),
            ))
        if merge:
            decision = JoinDecision(method=AccessPath.LAYERED)
            candidates.append(Candidate(
                label="join:merge(layered)",
                kind="join",
                est_cost_ms=cost.estimate_merge_join(on_rows, 0)
                + cost.estimate_sort(off_rows),
                est_rows=min(on_rows, max(off_rows, 1)),
                est_seeks=on_rows,
                build=lambda d=decision: planner.build(lplan, d),
            ))
        return candidates

    # -- TRACE -------------------------------------------------------------

    def _trace_ranker(self) -> Ranker:
        """Algorithm 1 keeps its structural rule for the default (the
        paper's TRACE variants are defined by index availability, not
        cost), so the chosen candidate leads even when the model ranks a
        scan cheaper on a short chain; the alternatives trail, costed."""
        planner = self._planner
        store, indexes = planner.store, planner.indexes
        has_senid = indexes.layered("senid") is not None
        has_tname = indexes.layered("tname") is not None
        layered, bitmap, scan = (
            (path, f"trace:{path.value}", TraceDecision(method=path))
            for path in (AccessPath.LAYERED, AccessPath.BITMAP, AccessPath.SCAN)
        )

        def rank(lplan: LogicalPlan, method: Optional[AccessPath]) -> list[Candidate]:
            trace = lplan.source
            assert isinstance(trace, LTrace)
            chosen = (
                method if method is not None
                else _trace_rule(trace, has_senid, has_tname)
            )
            # the chain statistics are the same for all three paths
            cost = store.cost
            avg_block = avg_block_size(store)
            n = store.height
            total_blocks = max(len(indexes.block_index), 1)
            total_tuples = indexes.table_index.total_tuples()
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
            head: list[Candidate] = []
            tail: list[Candidate] = []
            for (path, label, decision), est, rows, seeks in (
                (layered, cost.estimate_layered(p_rows), p_rows, p_rows),
                (bitmap, cost.estimate_bitmap(k_blocks, avg_block), 0, k_blocks),
                (scan, cost.estimate_scan(n, avg_block), 0, n),
            ):
                (head if path is chosen else tail).append(Candidate(
                    label=label,
                    kind="trace",
                    est_cost_ms=est,
                    est_rows=rows,
                    est_seeks=seeks,
                    build=lambda d=decision: planner.build(lplan, d),
                ))
            tail.sort(key=lambda c: (c.est_cost_ms, c.label))
            return head + tail
        return rank


def _forced_join_label(method: AccessPath, kind: str) -> str:
    if method is AccessPath.LAYERED:
        return "join:merge(layered)"
    side = "right" if kind == "onchain" else "offchain"
    return f"join:hash({method.value}, build={side})"


__all__ = ["Optimizer", "default_trace_path", "estimate_scan_rows"]
