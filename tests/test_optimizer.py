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

import importlib.util
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import SebdbConfig
from repro.common.errors import ParseError, SebdbError
from repro.index.manager import IndexManager
from repro.model import Block, Catalog, TableSchema, Transaction, make_genesis
from repro.node import FullNode
from repro.node.access import AccessController
from repro.offchain import OffChainDatabase
from repro.query import AccessPath, QueryEngine, physical
from repro.query.engine import explain_plan
from repro.query.operators import (
    extract_constraints,
    predicate_binder,
    predicate_matches,
    schema_resolver,
)
from repro.query.optimizer import rank_sharded_select
from repro.query.optimizer.core import PREPARED_ENTRIES
from repro.query.plan import (
    PathChoice,
    path_rank_key,
    rank_access_paths,
)
from repro.shard import ShardedNode
from repro.sqlparser import nodes, parse
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
    catalog.apply_transactions(genesis.transactions)
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
    # windowed joins: both sides of an on-chain join, the self-join's
    # pushed intake and the on/off join's pushed intake keep the window
    ("SELECT * FROM transfer, distribute "
     "ON transfer.organization = distribute.organization "
     "WINDOW [300, 700]", None),
    ("SELECT * FROM donate a, donate b ON a.amount = b.amount "
     "WHERE b.amount > 300 WINDOW [300, 700]", None),
    ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
     "ON distribute.donee = doneeinfo.donee "
     "WHERE distribute.amount > 200 WINDOW [300, 700]", None),
    # TRACE on one dimension inside a window, and the schema log, which
    # no trace ever returns
    ("TRACE [300, 700] OPERATION = 'donate'", None),
    ("TRACE [350, 820] OPERATOR = 'org3'", None),
    ("TRACE OPERATION = '__schema__'", None),
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


# -- planned once per statement text ------------------------------------------


def _leaderboard():
    """``benchmarks/leaderboard.py``: its corpus and the chain it runs on."""
    path = Path(__file__).parents[1] / "benchmarks" / "leaderboard.py"
    spec = importlib.util.spec_from_file_location("leaderboard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEADERBOARD = _leaderboard()

#: (statement text, parameter tuples): every one is planned cold and on an
#: engine that already planned the same text with the other tuples
PARAMETERISED = [
    ("TRACE OPERATOR = ?", [("org1",), ("org2",), ("org3",), ("nobody",)]),
    ("TRACE [?, ?] OPERATOR = ?",
     [(500, 1500, "org2"), (100, 900, "org1"), (1900, 2500, "org3")]),
    ("TRACE [?, ?] OPERATOR = ?, OPERATION = 'transfer'",
     [(500, 1500, "org2"), (1200, 2099, "org1")]),
    ("TRACE OPERATION = ?", [("transfer",), ("distribute",)]),
    ("SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
     [(100, 200), (1, 900), (250, 250), (900.5, 1000)]),
    ("SELECT donor, amount FROM donate WHERE amount > ? ORDER BY amount "
     "DESC LIMIT 10", [(100,), (990,)]),
    ("SELECT donor, COUNT(*), SUM(amount) FROM donate WHERE amount < ? "
     "GROUP BY donor", [(300,), (800.0,)]),
    ("SELECT * FROM donate, transfer ON donate.amount = transfer.amount "
     "WHERE donate.amount BETWEEN ? AND ?", [(1, 500), (400, 600)]),
    ("SELECT * FROM onchain.distribute, offchain.doneeinfo "
     "ON distribute.donee = doneeinfo.donee WHERE doneeinfo.income > ?",
     [(60.0,), (0,)]),
    ("SELECT * FROM offchain.doneeinfo WHERE income BETWEEN ? AND ?",
     [(50, 90), (0, 1000)]),
    ("GET BLOCK ID = ?", [(1,), (5,), (20,)]),
    ("GET BLOCK TID = ?", [(40,), (300,)]),
]


@pytest.fixture(scope="module")
def board():
    engine = LEADERBOARD.build_engine()
    yield engine
    engine.planner.offchain.close()


def cold(engine: QueryEngine) -> QueryEngine:
    """An engine over the same chain that has planned nothing yet."""
    p = engine.planner
    return QueryEngine(p.store, p.indexes, p.catalog, p.offchain)


def outcome(engine, sql, params=(), method=None):
    """Everything planning decides, plus the rows it returns."""
    result = engine.execute(sql, params, method=method)
    waterfall = [
        (c.label, c.est_cost_ms, c.est_rows, c.est_seeks, c.chosen)
        for c in result.plan.candidates
    ]
    explain = [line for (line,) in engine.execute(
        f"EXPLAIN {sql}", params, method=method).rows]
    return waterfall[0][0], waterfall, explain, result.rows


def memo_entry(engine, sql):
    return engine.optimizer._prepared.get(parse(sql))  # noqa: SLF001


class TestPlanOnce:
    """The optimizer plans each statement text once (binder slots, lowered
    shape, candidate enumeration, column positions) and every call binds
    its values, costs the candidates and builds the winner."""

    @pytest.mark.parametrize("qid,sql", LEADERBOARD.CORPUS)
    def test_corpus_statement_warm_equals_cold(self, board, qid, sql):
        warm = cold(board)
        first = outcome(warm, sql)
        assert memo_entry(warm, sql) is not None
        assert outcome(warm, sql) == first == outcome(cold(board), sql)

    @pytest.mark.parametrize("sql,values", PARAMETERISED)
    def test_parameterised_warm_equals_cold(self, board, sql, values):
        warm = cold(board)
        for i, params in enumerate(values):
            for other in values[:i] + values[i + 1:]:
                outcome(warm, sql, other)
            assert outcome(warm, sql, params) == \
                outcome(cold(board), sql, params), params
        # one entry for the text, whatever the values
        assert len(warm.optimizer._prepared) == 1  # noqa: SLF001

    def test_forced_method_warm_equals_cold(self, board):
        warm = cold(board)
        sql = "SELECT * FROM donate WHERE amount BETWEEN ? AND ?"
        for method in ("scan", "bitmap", "layered", None):
            outcome(warm, sql, (1, 900), method)
        for method in ("scan", "bitmap", "layered", None):
            got = outcome(warm, sql, (100, 200), method)
            assert got == outcome(cold(board), sql, (100, 200), method)
            if method is not None:
                assert got[0] == f"select:{method}" + (
                    "(amount)" if method == "layered" else "")

    def test_channel_member_read_plans_as_a_plain_read(self):
        access = AccessController()
        access.create_channel("ops", members={"alice"}, tables={"t"})
        node = FullNode("n0", access=access)
        node.create_table("CREATE t (v int)")
        for v in range(5):
            node.insert("t", (v,), sender="alice")
        node.create_index("v", table="t")
        sql = "SELECT * FROM t WHERE v BETWEEN ? AND ?"
        member = node.query(sql, (1, 3), channel_member="alice")
        plain = node.query(sql, (1, 3))
        assert member.rows == plain.rows == [
            row for row in plain.rows if 1 <= row[-1] <= 3]
        assert [c.label for c in member.plan.candidates] == \
            [c.label for c in plain.plan.candidates]
        trace = "TRACE OPERATION = ?"
        assert node.query(trace, ("t",), channel_member="alice").rows == \
            node.query(trace, ("t",)).rows
        node.close()

    def test_memo_misses_after_create_index(self):
        store, catalog, indexes = _distribute_chain()
        engine = QueryEngine(store, indexes, catalog)
        sql = "SELECT * FROM distribute WHERE amount BETWEEN ? AND ?"
        before = memo_entry_after(engine, sql, (10, 20))
        assert "select:layered(amount)" not in _labels(engine, sql, (10, 20))
        indexes.create_layered_index(
            "amount", table="distribute", schema=LEADERBOARD.DISTRIBUTE)
        assert outcome(engine, sql, (10, 20)) == \
            outcome(cold(engine), sql, (10, 20))
        assert "select:layered(amount)" in _labels(engine, sql, (10, 20))
        assert memo_entry(engine, sql) is not before

    def test_memo_misses_after_create_table_through_the_node(self):
        node = FullNode("n0")
        node.create_table("CREATE t (v int)")
        node.insert("t", (1,))
        sql = "SELECT * FROM t WHERE v = ?"
        before = memo_entry_after(node.engine, sql, (1,))
        assert memo_entry_after(node.engine, sql, (1,)) is before
        node.execute("CREATE TABLE u (w string)")
        assert "u" in node.catalog
        after = memo_entry_after(node.engine, sql, (1,))
        assert after is not before
        assert node.query(sql, (1,)).rows == cold(node.engine).execute(
            sql, (1,)).rows
        node.close()

    def test_memo_misses_after_offchain_create_table(self):
        store, catalog, indexes = _distribute_chain()
        offchain = OffChainDatabase()
        engine = QueryEngine(store, indexes, catalog, offchain)
        sql = "SELECT * FROM offchain.people WHERE age > ?"
        with pytest.raises(SebdbError):
            engine.execute(sql, (1,))
        offchain.create_table("people", [("name", "string"), ("age", "int")])
        offchain.insert("people", [("ann", 30), ("bo", 12)])
        assert engine.execute(sql, (18,)).rows == [("ann", 30)]
        before = memo_entry(engine, sql)
        offchain.create_table("other", [("x", "int")])
        assert engine.execute(sql, (18,)).rows == [("ann", 30)]
        assert memo_entry(engine, sql) is not before
        offchain.close()

    def test_warm_plan_flips_with_appended_blocks(self):
        chain = _GrowingChain(histogram_depth=50)
        engine = QueryEngine(chain.store, chain.indexes, chain.catalog)
        sql = "SELECT * FROM solo WHERE v BETWEEN ? AND ?"
        assert _labels(engine, sql, (0, 5))[0] == "select:layered(v)"
        chain.append_wide_blocks()
        got = outcome(engine, sql, (0, 5))
        assert got[0] == "select:bitmap"
        assert got == outcome(cold(engine), sql, (0, 5))

    def test_warm_plan_flips_with_refreshed_statistics(self):
        chain = _GrowingChain(histogram_depth=50)
        engine = QueryEngine(chain.store, chain.indexes, chain.catalog)
        sql = "SELECT * FROM solo WHERE v BETWEEN ? AND ?"
        chain.append_wide_blocks()
        assert _labels(engine, sql, (0, 5))[0] == "select:bitmap"
        assert _labels(engine, sql, (1000, 1010))[0] == "select:layered(v)"
        before = memo_entry(engine, sql)
        chain.indexes.refresh_statistics()
        for params, label in (((0, 5), "select:layered(v)"),
                              ((1000, 1010), "select:bitmap")):
            got = outcome(engine, sql, params)
            assert got[0] == label
            assert got == outcome(cold(engine), sql, params)
        # statistics are costed per call: the enumeration stands
        assert memo_entry(engine, sql) is before

    @pytest.mark.parametrize("sql", [
        "GET BLOCK ID = ?", "TRACE OPERATOR = ?",
        "SELECT * FROM donate WHERE amount > ?",
    ])
    def test_unbound_placeholder_is_a_parse_error(self, board, sql):
        # a placeholder is never planned as a value, cold or warm
        engine = cold(board)
        for _ in range(2):
            with pytest.raises(ParseError, match="not enough bind parameters"):
                engine.execute(sql)

    def test_memo_stays_at_its_bound(self, board):
        engine = cold(board)
        for i in range(PREPARED_ENTRIES + 40):
            engine.execute(f"SELECT * FROM donate WHERE amount = {i}")
            assert len(engine.optimizer._prepared) <= PREPARED_ENTRIES  # noqa: SLF001
        sql = "SELECT * FROM donate WHERE amount = 3"
        assert outcome(engine, sql) == outcome(cold(board), sql)


def memo_entry_after(engine, sql, params):
    engine.execute(sql, params)
    return memo_entry(engine, sql)


def _labels(engine, sql, params):
    return [c.label for c in engine.plan(sql, params).candidates]


def _distribute_chain():
    """The leaderboard's chain without a layered index on any column."""
    engine = LEADERBOARD.build_engine()
    p = engine.planner
    p.offchain.close()
    return p.store, p.catalog, IndexManager(p.store, order=8, histogram_depth=16)


class _GrowingChain:
    """One-row blocks of ``solo.v`` 0..39 under a layered index on ``v``;
    :meth:`append_wide_blocks` adds 40 blocks of 60 rows in 1000..1999."""

    SCHEMA = TableSchema.create("solo", [("v", "int")])

    def __init__(self, histogram_depth: int) -> None:
        self.store = BlockStore()
        self.catalog = Catalog()
        genesis = make_genesis(0, [self.SCHEMA])
        self.store.append_block(genesis)
        self.catalog.apply_transactions(genesis.transactions)
        self.indexes = IndexManager(
            self.store, order=8, histogram_depth=histogram_depth)
        self.tid = len(genesis.transactions)
        for v in range(40):
            self.append([v])
        self.indexes.create_layered_index(
            "v", table="solo", schema=self.SCHEMA)

    def append(self, values) -> None:
        height = self.store.height
        txs = [
            Transaction.create("solo", (v,), ts=height * 100 + j)
            .with_tid(self.tid + j)
            for j, v in enumerate(values)
        ]
        self.tid += len(values)
        self.store.append_block(Block.package(
            self.store.tip_hash, height, height * 100 + 99, txs))

    def append_wide_blocks(self) -> None:
        for h in range(40):
            self.append([1000 + (h * 60 + j) % 1000 for j in range(60)])


# -- compiled predicates ------------------------------------------------------

COMPILED = TableSchema.create("c", [("a", "int"), ("b", "decimal"),
                                    ("s", "string")])

#: numeric columns (system ones included) and the values compared to them
NUMERIC = st.sampled_from(["a", "b", "tid", "ts"])
NUMBERS = st.none() | st.integers(-5, 5) | st.floats(-5, 5, allow_nan=False)


def _atoms():
    column = NUMERIC.map(nodes.ColumnRef)
    comparison = st.builds(
        nodes.Comparison, column, st.sampled_from(list(nodes.CompareOp)),
        NUMBERS)
    between = st.builds(
        nodes.Between, column,
        st.integers(-5, 5) | st.floats(-5, 5, allow_nan=False),
        st.integers(-5, 5) | st.floats(-5, 5, allow_nan=False))
    names = st.builds(
        nodes.Comparison,
        st.sampled_from(["s", "senid", "tname"]).map(nodes.ColumnRef),
        st.sampled_from([nodes.CompareOp.EQ, nodes.CompareOp.NE]),
        st.sampled_from(["x", "y", "c", None]))
    return comparison | between | names


PREDICATES = st.recursive(
    _atoms(),
    lambda inner: st.builds(nodes.And, st.lists(inner, min_size=1, max_size=3)
                            .map(tuple))
    | st.builds(nodes.Or, st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=6,
)

ROWS = st.lists(
    st.tuples(st.none() | st.integers(-5, 5),
              st.none() | st.integers(-5, 5) | st.floats(-5, 5, allow_nan=False),
              st.none() | st.sampled_from(["x", "y"]),
              st.integers(-5, 5), st.sampled_from(["x", "y"])),
    min_size=1, max_size=6,
)


class TestCompiledPredicates:
    @settings(deadline=None, max_examples=150)
    @given(predicate=PREDICATES, rows=ROWS)
    @example(
        predicate=nodes.And((
            nodes.Between(nodes.ColumnRef("b"), 1, 2.5),
            nodes.Comparison(nodes.ColumnRef("a"), nodes.CompareOp.NE, None),
        )),
        rows=[(None, 2.0, "x", 1, "x"), (3, 1.0, None, 2, "y")],
    )
    @example(
        predicate=nodes.Or((
            nodes.Comparison(nodes.ColumnRef("tid"), nodes.CompareOp.GE, 2),
            nodes.Comparison(nodes.ColumnRef("senid"), nodes.CompareOp.EQ, "y"),
        )),
        rows=[(0, 0.0, "x", 1, "x"), (0, 0.0, "x", 3, "y")],
    )
    def test_compiled_predicate_matches_the_interpreter(self, predicate, rows):
        # one compile, then every row set bound afresh: the row tests read
        # columns by position and agree with the name-resolving evaluator
        bind = predicate_binder(predicate, schema_resolver(COMPILED))
        accept = bind(predicate)
        for a, b, s, tid, sender in rows:
            tx = Transaction(ts=tid * 10, senid=sender, tname="c",
                             values=(a, b, s), tid=tid)
            assert accept(tx) == predicate_matches(tx, predicate, COMPILED)

    def test_unknown_column_fails_only_when_a_row_is_tested(self):
        predicate = parse("SELECT * FROM c WHERE nope = 1").where
        accept = predicate_binder(predicate, schema_resolver(COMPILED))(predicate)
        tx = Transaction(ts=0, senid="x", tname="c", values=(1, 2.0, "x"))
        with pytest.raises(SebdbError) as compiled:
            accept(tx)
        with pytest.raises(SebdbError) as interpreted:
            predicate_matches(tx, predicate, COMPILED)
        assert str(compiled.value) == str(interpreted.value)
