"""Plan-space optimizer tests.

Covers the three observable guarantees of the candidate search:

* **deterministic ranking** - ``rank_access_paths`` orders ties by a
  documented key (cost, modelled seeks, path, index column) so two runs
  of the same query always pick the same plan;
* **the EXPLAIN waterfall** - every plan carries the full cost-ranked
  candidate list, chosen first, and EXPLAIN ANALYZE reports estimate
  drift against measured I/O;
* **the forced-plan oracle** - every enumerated candidate, forced
  through ``Optimizer.force``, returns exactly the chosen plan's rows
  (single-node and sharded fan-out alike).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.common.config import SebdbConfig
from repro.index.manager import IndexManager
from repro.model import Block, Catalog, TableSchema, Transaction, make_genesis
from repro.query import AccessPath, physical
from repro.query.engine import explain_plan
from repro.query.operators import extract_constraints
from repro.query.optimizer import rank_sharded_select
from repro.query.plan import (
    PathChoice,
    path_rank_key,
    rank_access_paths,
)
from repro.shard import ShardedNode
from repro.sqlparser import parse
from repro.storage import BlockStore


def explain_text(result) -> str:
    return "\n".join(line for (line,) in result.rows)


def candidate_lines(result) -> list[str]:
    return [
        line for (line,) in result.rows
        if line.startswith("  ") and ". " in line and "est_ms=" in line
    ]


# -- S1: deterministic tie-breaking ------------------------------------------


def build_tiny_chain(schema: TableSchema, rows: list[list[tuple]]):
    """A chain with one block per entry of ``rows`` (all on ``schema``)."""
    store = BlockStore()
    catalog = Catalog()
    genesis = make_genesis(0, [schema])
    store.append_block(genesis)
    catalog.apply_block(genesis)
    indexes = IndexManager(store, order=8, histogram_depth=4)
    prev = store.tip_hash
    tid = len(genesis.transactions)
    for height, values_list in enumerate(rows, start=1):
        txs = []
        for i, values in enumerate(values_list):
            tx = Transaction.create(schema.name, values, ts=height * 100 + i)
            txs.append(tx.with_tid(tid))
            tid += 1
        block = Block.package(prev, height, height * 100 + 99, txs)
        store.append_block(block)
        prev = block.block_hash()
    return store, catalog, indexes


class TestDeterministicRanking:
    def test_ranking_is_stable_and_sorted_by_rank_key(self, chain):
        constraints = extract_constraints(
            parse("SELECT * FROM donate WHERE amount BETWEEN 100 AND 400").where
        )
        first = rank_access_paths(
            chain.store, chain.indexes, "donate", dict(constraints)
        )
        second = rank_access_paths(
            chain.store, chain.indexes, "donate", dict(constraints)
        )
        key = lambda c: (c.path, c.index.column if c.index else None)  # noqa: E731
        assert [key(c) for c in first] == [key(c) for c in second]
        assert [path_rank_key(c) for c in first] == sorted(
            path_rank_key(c) for c in first
        )

    def test_tie_key_prefers_fewer_seeks_then_simpler_path(self):
        # documented order: cost, then modelled seeks, then LAYERED <
        # SCAN < BITMAP - so an exact cost tie at equal seeks falls to
        # the structurally simpler plan
        def choice(path, seeks):
            return PathChoice(path=path, index=None, constraint=None,
                              est_cost_ms=10.0, est_rows=0, est_seeks=seeks)

        scan = choice(AccessPath.SCAN, 7)
        bitmap = choice(AccessPath.BITMAP, 7)
        fewer_seeks = choice(AccessPath.BITMAP, 5)
        ranked = sorted([bitmap, scan, fewer_seeks], key=path_rank_key)
        assert ranked == [fewer_seeks, scan, bitmap]

    def test_bitmap_wins_when_it_reads_fewer_blocks(self):
        # sanity: with the table absent from some blocks (genesis at
        # least), k < n and the bitmap path is genuinely cheaper
        schema = TableSchema.create("solo", [("v", "int")])
        store, _catalog, indexes = build_tiny_chain(
            schema, [[(i,), (i + 1,)] for i in range(6)]
        )
        choice = rank_access_paths(store, indexes, "solo", {})[0]
        assert choice.path is AccessPath.BITMAP
        assert choice.est_seeks < store.height

    def test_layered_cost_tie_breaks_on_column_name(self):
        # two identically distributed indexed columns => identical cost
        # and seeks; the tie falls to the alphabetical column name, NOT
        # to predicate declaration order (b first below)
        schema = TableSchema.create("pair", [("b", "int"), ("a", "int")])
        store, _catalog, indexes = build_tiny_chain(
            schema, [[(i * 10 + j, i * 10 + j) for j in range(4)]
                     for i in range(5)]
        )
        indexes.create_layered_index("a", table="pair", schema=schema)
        indexes.create_layered_index("b", table="pair", schema=schema)
        constraints = extract_constraints(
            parse("SELECT * FROM pair WHERE b = 23 AND a = 23").where
        )
        ranked = rank_access_paths(store, indexes, "pair", dict(constraints))
        layered = [c for c in ranked if c.path is AccessPath.LAYERED]
        assert len(layered) == 2
        assert layered[0].est_cost_ms == layered[1].est_cost_ms
        assert [c.index.column for c in layered] == ["a", "b"]
        # and the overall choice is deterministic
        assert rank_access_paths(
            store, indexes, "pair", dict(constraints)
        )[0].index.column == rank_access_paths(
            store, indexes, "pair", dict(constraints)
        )[0].index.column


# -- the EXPLAIN candidate waterfall -----------------------------------------


class TestExplainWaterfall:
    JOIN_SQL = ("SELECT * FROM donate, transfer "
                "ON donate.amount = transfer.amount")

    def test_join_explain_lists_costed_candidates_chosen_first(self, chain):
        result = chain.engine.execute(f"EXPLAIN {self.JOIN_SQL}")
        text = explain_text(result)
        assert "Candidates (5 enumerated, cost-ranked):" in text
        lines = candidate_lines(result)
        assert len(lines) >= 3
        assert lines[0].startswith("  * 1. ")
        assert all("est_ms=" in line for line in lines)

    def test_chosen_candidate_is_cheapest(self, chain):
        plan = chain.engine.plan(self.JOIN_SQL)
        assert plan.candidates[0].chosen
        assert plan.candidates[0].est_cost_ms == min(
            c.est_cost_ms for c in plan.candidates
        )
        # both hash build sides and the merge join were enumerated
        labels = {c.label for c in plan.candidates}
        assert "join:hash(bitmap, build=right)" in labels
        assert "join:hash(bitmap, build=left)" in labels
        assert "join:merge(layered)" in labels

    def test_plain_explain_does_not_execute(self, chain):
        result = chain.engine.execute(f"EXPLAIN {self.JOIN_SQL}")
        assert result.plan.cost().seeks == 0
        assert "wall_ms" not in explain_text(result)

    def test_analyze_reports_actuals_and_drift(self, chain):
        result = chain.engine.execute(
            "EXPLAIN ANALYZE SELECT * FROM donate WHERE amount > 500"
        )
        text = explain_text(result)
        assert "act_ms=" in text
        assert "drift=" in text
        chosen = candidate_lines(result)[0]
        assert "act_ms=" in chosen and "drift=" in chosen

    def test_forced_method_leads_waterfall(self, chain):
        plan = chain.engine.plan(
            "SELECT * FROM donate WHERE amount > 500", method="scan"
        )
        assert plan.candidates[0].label == "select:scan"
        assert plan.candidates[0].chosen
        assert len(plan.candidates) >= 3  # alternatives still enumerated

    def test_trace_default_stays_rule_based(self, chain):
        # Algorithm 1 picks layered by index availability, not cost; the
        # model's view of the alternatives still trails in the waterfall
        plan = chain.engine.plan("TRACE OPERATOR = 'org1'")
        assert plan.candidates[0].label == "trace:layered"
        assert {c.label for c in plan.candidates} == {
            "trace:layered", "trace:bitmap", "trace:scan"
        }


# -- the forced-plan oracle (fuzz equivalence) -------------------------------

#: an aliased self-join whose WHERE names its sides by alias: one conjunct
#: is pushed into the left intake, the other stays a residual over pairs
ALIASED_WHERE = ("SELECT * FROM donate a, donate b ON a.donor = b.donor "
                 "WHERE a.amount > 900 AND (a.amount > 990 OR b.amount < 100)")

#: (sql, index of the ORDER BY key in the result row, or None)
FUZZ_CORPUS = [
    ("SELECT * FROM donate WHERE amount BETWEEN 100 AND 400", None),
    ("SELECT * FROM donate WHERE amount > 800", None),
    ("SELECT * FROM transfer WHERE organization = 'org2'", None),
    ("SELECT * FROM donate WHERE amount BETWEEN 1 AND 5000 "
     "WINDOW [300, 700]", None),
    ("SELECT donor, amount FROM donate WHERE amount > 200 "
     "ORDER BY amount", 1),
    ("SELECT DISTINCT organization FROM transfer", None),
    ("SELECT COUNT(*), SUM(amount) FROM donate WHERE amount > 100", None),
    ("SELECT * FROM donate, transfer ON donate.amount = transfer.amount",
     None),
    ("SELECT * FROM transfer, distribute "
     "ON transfer.organization = distribute.organization", None),
    ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
     "ON distribute.donee = doneeinfo.donee", None),
    # aliased self-join: each tuple is a build row and a probe row
    ("SELECT * FROM donate a, donate b ON a.amount = b.amount", None),
    (ALIASED_WHERE, None),
    ("TRACE OPERATOR = 'org1'", None),
    ("TRACE OPERATION = 'transfer'", None),
    ("TRACE [350, 820] OPERATOR = 'org3', OPERATION = 'transfer'", None),
]


class TestForcedPlanOracle:
    def test_force_builds_a_single_candidate_plan(self, chain):
        ranked = chain.engine.optimizer.rank(
            parse("SELECT * FROM donate WHERE amount > 500")
        )
        assert len(ranked) >= 2
        forced = chain.engine.optimizer.force(ranked[1])
        assert len(forced.candidates) == 1
        assert forced.candidates[0].chosen
        assert forced.candidates[0].label == ranked[1].label

    @pytest.mark.parametrize("sql,order_key", FUZZ_CORPUS)
    def test_every_candidate_returns_the_chosen_rows(self, chain, sql,
                                                     order_key):
        optimizer = chain.engine.optimizer
        ranked = optimizer.rank(parse(sql))
        assert ranked, sql

        def rows_of(candidate):
            return list(optimizer.force(candidate).root.execute())

        chosen = rows_of(ranked[0])
        for candidate in ranked[1:]:
            rows = rows_of(candidate)
            assert sorted(map(repr, rows)) == sorted(map(repr, chosen)), \
                candidate.label
            if order_key is not None:
                # ORDER BY pins the key sequence; ties may permute
                assert [r[order_key] for r in rows] == \
                    [r[order_key] for r in chosen], candidate.label


# -- EXPLAIN ANALYZE owns the operator timers --------------------------------

PINNED_ANALYZE = Path(__file__).parent / "fixtures_explain" / "fuzz_corpus_analyze.txt"
WALL_MS = re.compile(r" wall_ms=[0-9.]+")


def pinned_analyze() -> dict[str, dict[str, list[str]]]:
    """sql -> candidate label -> EXPLAIN ANALYZE lines, wall_ms cut."""
    pinned: dict[str, dict[str, list[str]]] = {}
    lines: list[str] = []
    for line in PINNED_ANALYZE.read_text().splitlines():
        if line.startswith("## "):
            sql, label = line[3:].split(" || ")
            lines = pinned.setdefault(sql, {}).setdefault(label, [])
        elif not line.startswith("# "):
            lines.append(line)
    return pinned


def operator_rows(lines: list[str]) -> list[int]:
    """The ``rows=`` of every operator line of an EXPLAIN ANALYZE."""
    ops = lines[:next(i for i, line in enumerate(lines)
                      if line.startswith("Candidates"))]
    return [int(re.search(r"[ (]rows=(\d+)", line).group(1)) for line in ops]


def analyze(chain, candidate) -> list[str]:
    chain.store.clear_caches()
    plan = chain.engine.optimizer.force(candidate)
    return [line for (line,) in explain_plan(plan, analyze=True).rows]


class TestAnalyzeTimers:
    @pytest.mark.parametrize(
        "sql", [sql for sql, _key in FUZZ_CORPUS if sql != ALIASED_WHERE])
    def test_analyze_prints_the_pinned_plans(self, chain, sql):
        # every count, I/O figure and drift is the pinned one; only the
        # wall clock is free to move
        got = {}
        for candidate in chain.engine.optimizer.rank(parse(sql)):
            lines = analyze(chain, candidate)
            ops = lines[:len(operator_rows(lines))]
            assert all(WALL_MS.search(line) for line in ops), lines
            got[candidate.label] = [WALL_MS.sub("", line) for line in lines]
        assert got == pinned_analyze()[sql]

    @pytest.mark.parametrize("sql", [sql for sql, _key in FUZZ_CORPUS])
    def test_plain_run_counts_rows_and_never_reads_the_clock(
            self, chain, monkeypatch, sql):
        pinned = pinned_analyze().get(sql)
        optimizer = chain.engine.optimizer
        for candidate in optimizer.rank(parse(sql)):
            expected = operator_rows(
                pinned[candidate.label] if pinned else analyze(chain, candidate))
            chain.store.clear_caches()
            plan = optimizer.force(candidate)
            with monkeypatch.context() as patch:
                patch.setattr(physical, "time", None)  # any clock read raises
                list(plan.root.execute())
            assert [op.stats.wall_ms for op in plan.operators()] == \
                [0.0] * len(expected)
            assert [op.stats.rows_out for op in plan.operators()] == expected


# -- sharded fan-out candidates ----------------------------------------------


@pytest.fixture(scope="module")
def sharded():
    """A 3-shard node whose table range-partitions across all shards."""
    config = SebdbConfig.in_memory(
        num_shards=3, shard_placement={"metric": (100, 200)}
    )
    node = ShardedNode("opt-test", config=config)
    node.execute("CREATE TABLE metric (k int, v string)")
    for i in range(0, 300, 7):
        node.insert("metric", (i, f"v{i % 13}"))
    node.create_index("k", table="metric")
    yield node
    node.close()


def shard_planners(node, sids):
    return [(sid, node.shards[sid].engine.planner) for sid in sids]


class TestShardedCandidates:
    def test_fanout_enumeration_and_equivalence(self, sharded):
        node = sharded
        stmt = parse("SELECT * FROM metric WHERE k BETWEEN 150 AND 250")
        pruned = node.router.shards_for_range("metric", 150, 250)
        full = node.router.shards_for_table("metric")
        assert len(pruned) < len(full)
        ranked = rank_sharded_select(
            shard_planners(node, pruned), stmt,
            unpruned=shard_planners(node, full),
        )
        labels = [c.label for c in ranked]
        assert labels[0] == "fanout:per-shard-best"
        assert "fanout:uniform(scan)" in labels
        assert f"fanout:all-shards({len(full)})" in labels
        chosen = sorted(repr(r) for r in ranked[0].build().root.execute())
        for candidate in ranked[1:]:
            rows = sorted(
                repr(r) for r in candidate.build().root.execute()
            )
            assert rows == chosen, candidate.label

    def test_global_sort_is_byte_identical_to_pushdown(self, sharded):
        node = sharded
        stmt = parse("SELECT * FROM metric WHERE k > 20 ORDER BY k")
        sids = node.router.shards_for_table("metric")
        ranked = rank_sharded_select(shard_planners(node, sids), stmt)
        labels = [c.label for c in ranked]
        assert "fanout:global-sort" in labels
        by_label = {c.label: c for c in ranked}
        pushdown = list(ranked[0].build().root.execute())
        global_sort = list(
            by_label["fanout:global-sort"].build().root.execute()
        )
        assert list(map(repr, global_sort)) == list(map(repr, pushdown))

    def test_sharded_explain_renders_the_waterfall(self, sharded):
        result = sharded.query(
            "EXPLAIN SELECT * FROM metric WHERE k BETWEEN 150 AND 250"
        )
        text = explain_text(result)
        assert "Candidates (" in text
        assert "fanout:per-shard-best" in text
        assert "fanout:all-shards(3)" in text

    def test_forced_method_pins_uniform_candidate(self, sharded):
        node = sharded
        stmt = parse("SELECT * FROM metric WHERE k < 80")
        sids = node.router.shards_for_range("metric", None, 80)
        ranked = rank_sharded_select(
            shard_planners(node, sids), stmt, method=AccessPath.BITMAP
        )
        assert ranked[0].label == "fanout:uniform(bitmap)"
