"""The streaming operator pipeline: EXPLAIN, per-operator costs, laziness.

The read path compiles to a tree of generator-based physical operators
(repro.query.physical); these tests pin the refactor's contract:

* EXPLAIN / EXPLAIN ANALYZE are real statements, end to end;
* every operator carries its own counters and the per-operator modelled
  costs sum exactly to the query's CostSnapshot;
* LIMIT works by not pulling (O(k) seeks on the layered path), yet never
  bypasses a blocking ORDER BY / aggregate below it;
* concurrently executing queries attribute I/O to their own trackers.
"""

import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.common.config import SebdbConfig
from repro.common.errors import ParseError
from repro.model.transaction import SCHEMA_TNAME, Transaction
from repro.node import FullNode
from repro.query import physical
from repro.query.physical import equal_runs, row_test
from repro.sqlparser.nodes import TimeWindow

K = 3


def run(chain, sql, method=None, params=(), cold=True, stream=False):
    if cold:
        chain.store.clear_caches()
    return chain.engine.execute(sql, params=params, method=method,
                                stream=stream)


def plan_text(result):
    assert result.columns == ("QUERY PLAN",)
    return "\n".join(line for (line,) in result.rows)


# -- EXPLAIN as a statement --------------------------------------------------


def test_explain_select_renders_plan_without_running(chain):
    chain.store.clear_caches()
    chain.store.cost.reset()
    result = run(chain, "EXPLAIN SELECT * FROM donate WHERE amount > 100",
                 cold=False)
    text = plan_text(result)
    assert "BitmapScan(donate" in text
    assert "Filter(amount > 100" in text
    assert "est_ms=" in text
    # plain EXPLAIN must not execute the query
    assert "wall_ms" not in text
    assert chain.store.cost.snapshot().seeks == 0


def test_explain_analyze_reports_per_operator_stats(chain):
    result = run(
        chain,
        "EXPLAIN ANALYZE SELECT donor, amount FROM donate "
        "WHERE amount BETWEEN 100 AND 400 ORDER BY amount DESC LIMIT 5",
    )
    text = plan_text(result)
    for op in ("Limit(5)", "Sort(amount DESC)", "Project(donor, amount)",
               "Filter(", "BitmapScan(donate"):
        assert op in text, text
    assert "rows=" in text and "seeks=" in text and "wall_ms=" in text


def test_explain_analyze_trace_and_get_block(chain):
    sender = chain.all_txs[0].senid
    text = plan_text(run(chain, "EXPLAIN ANALYZE TRACE OPERATOR = ?",
                         params=(sender,)))
    assert "TraceLayered" in text and "rows=" in text
    text = plan_text(run(chain, "EXPLAIN ANALYZE GET BLOCK ID = 2"))
    assert "BlockLookup(id=2)" in text


def test_explain_rejects_writes_and_nesting(chain):
    with pytest.raises(ParseError):
        run(chain, "EXPLAIN INSERT INTO donate VALUES ('a', 'b', 1)")
    with pytest.raises(ParseError):
        run(chain, "EXPLAIN EXPLAIN SELECT * FROM donate")


def test_explain_via_param_binding(chain):
    text = plan_text(run(chain,
                         "EXPLAIN SELECT * FROM donate WHERE amount > ?",
                         params=(250,)))
    assert "amount > 250" in text


# -- per-operator costs sum to the query's CostSnapshot ----------------------


def operator_cost(plan):
    """(seeks, page transfers, modelled ms) summed over all operators."""
    stats = [op.stats for op in plan.operators()]
    return (sum(s.seeks for s in stats), sum(s.page_transfers for s in stats),
            sum(s.modelled_ms for s in stats))


@pytest.mark.parametrize("method", ["scan", "bitmap", "layered"])
def test_operator_costs_sum_to_query_snapshot(chain, method):
    result = run(chain, "SELECT * FROM donate WHERE amount > 100",
                 method=method)
    assert len(result.rows) > 0
    cost = result.cost
    seeks, pages, modelled = operator_cost(result.plan)
    assert seeks == cost.seeks
    assert pages == cost.page_transfers
    assert modelled == pytest.approx(cost.elapsed_ms)
    assert result.access_path == method


def test_join_operator_costs_sum_to_query_snapshot(chain):
    result = run(
        chain,
        "SELECT * FROM transfer, distribute "
        "ON transfer.organization = distribute.organization",
        method="layered",
    )
    cost = result.cost
    seeks, pages, modelled = operator_cost(result.plan)
    assert (seeks, pages) == (cost.seeks, cost.page_transfers)
    assert modelled == pytest.approx(cost.elapsed_ms)


def test_only_leaf_operators_do_io(chain):
    result = run(chain, "SELECT donor, amount FROM donate "
                        "WHERE amount > 100 ORDER BY amount")
    for op in result.plan.operators():
        if op.children:  # inner operators stream; leaves own the I/O
            assert op.stats.seeks == 0
            assert op.stats.page_transfers == 0


def test_operator_row_counts_are_consistent(chain):
    result = run(chain, "SELECT donor, amount FROM donate WHERE amount > 100")
    ops = {op.name: op for op in result.plan.operators()}
    scan, filt = ops["BitmapScan"], ops["Filter"]
    assert filt.stats.rows_in == scan.stats.rows_out
    assert filt.stats.rows_out == len(result.rows)
    assert filt.stats.rows_out <= filt.stats.rows_in


# -- LIMIT: laziness without breaking ORDER BY -------------------------------


def test_layered_limit_k_costs_k_seeks_not_p(chain):
    full = run(chain, "SELECT * FROM donate WHERE amount > 100",
               method="layered")
    p = len(full.rows)
    assert p > K
    limited = run(chain,
                  f"SELECT * FROM donate WHERE amount > 100 LIMIT {K}",
                  method="layered")
    assert len(limited.rows) == K
    # one random tuple read per returned row - not one per matching tuple
    assert limited.cost.seeks <= K
    assert full.cost.seeks >= p


def test_limit_applies_only_after_order_by(chain):
    full = run(chain, "SELECT donor, amount FROM donate "
                      "WHERE amount > 100 ORDER BY amount DESC")
    for method in ("scan", "bitmap", "layered"):
        limited = run(chain,
                      "SELECT donor, amount FROM donate WHERE amount > 100 "
                      f"ORDER BY amount DESC LIMIT {K}", method=method)
        assert limited.rows == full.rows[:K], method


def test_order_by_blocks_limit_pushdown_in_plan(chain):
    result = run(chain, "SELECT donor, amount FROM donate "
                        "WHERE amount > 100 ORDER BY amount LIMIT 5",
                 method="layered")
    names = [op.name for op in result.plan.operators()]
    # Limit sits above the blocking Sort: the early stop cannot reach the
    # scan, so an ordered LIMIT still reads every matching tuple
    assert names.index("Limit") < names.index("Sort")
    sort = result.plan.operators()[names.index("Sort")]
    assert sort.stats.rows_in > 5
    assert sort.stats.rows_out == 5


def test_limit_over_aggregate_sees_all_rows(chain):
    full = run(chain, "SELECT donor, COUNT(*) FROM donate GROUP BY donor")
    limited = run(chain, "SELECT donor, COUNT(*) FROM donate "
                         "GROUP BY donor LIMIT 2")
    assert limited.rows == full.rows[:2]


def test_limit_limits_transactions_too(chain):
    limited = run(chain,
                  f"SELECT * FROM donate WHERE amount > 100 LIMIT {K}")
    assert len(limited.transactions) == K
    assert [tx.tid for tx in limited.transactions] == \
        [row[0] for row in limited.rows]


# -- scoped cost attribution -------------------------------------------------


def test_interleaved_queries_attribute_costs_disjointly(chain):
    # the two windows cover disjoint block ranges, so interleaving cannot
    # share cache hits and each tracker must see exactly its own I/O
    sql_a = "SELECT * FROM donate WINDOW [100, 499]"
    sql_b = "SELECT * FROM donate WINDOW [600, 1099]"
    solo_a = run(chain, sql_a, method="scan")
    solo_b = run(chain, sql_b, method="scan")

    chain.store.clear_caches()
    before = chain.store.cost.snapshot()
    res_a = run(chain, sql_a, method="scan", cold=False, stream=True)
    res_b = run(chain, sql_b, method="scan", cold=False, stream=True)
    rows_a, rows_b = [], []
    for pair in itertools.zip_longest(iter(res_a), iter(res_b)):
        if pair[0] is not None:
            rows_a.append(pair[0])
        if pair[1] is not None:
            rows_b.append(pair[1])
    assert rows_a == solo_a.rows and rows_b == solo_b.rows

    cost_a, cost_b = res_a.cost, res_b.cost
    assert (cost_a.seeks, cost_a.page_transfers) == \
        (solo_a.cost.seeks, solo_a.cost.page_transfers)
    assert (cost_b.seeks, cost_b.page_transfers) == \
        (solo_b.cost.seeks, solo_b.cost.page_transfers)
    # ... and together they account for every read the store performed
    delta = chain.store.cost.snapshot().delta(before)
    assert delta.seeks == cost_a.seeks + cost_b.seeks
    assert delta.page_transfers == \
        cost_a.page_transfers + cost_b.page_transfers


def test_streaming_result_is_lazy(chain):
    chain.store.clear_caches()
    result = run(chain, "SELECT * FROM donate", method="scan",
                 cold=False, stream=True)
    assert result.is_streaming
    it = iter(result)
    next(it)
    seeks_after_first = result.plan.cost().seeks
    rest = list(it)
    assert result.plan.cost().seeks > seeks_after_first
    assert len(rest) + 1 == len(result.rows)
    assert not result.is_streaming


# -- the leaves' one row test and the merge joins' one walk ------------------

TABLES = ("donate", "transfer", SCHEMA_TNAME)
BOUNDS = st.one_of(st.none(), st.integers(0, 20))


@given(
    tname=st.sampled_from(TABLES), senid=st.sampled_from(("org1", "org2")),
    ts=st.integers(0, 20), table=st.one_of(st.none(), st.sampled_from(TABLES)),
    sender=st.one_of(st.none(), st.sampled_from(("org1", "org2"))),
    window=st.one_of(st.none(), st.tuples(BOUNDS, BOUNDS)),
    accept=st.one_of(st.none(), st.booleans()),
)
def test_row_test_matches_its_definition(tname, senid, ts, table, sender,
                                         window, accept):
    assume(table is not None or sender is not None)
    tx = Transaction.create(tname, ("x",), ts=ts, sender=senid)
    start, end = window if window is not None else (None, None)
    expected = (tname != SCHEMA_TNAME
                and (table is None or tname == table)
                and (sender is None or senid == sender)
                and (start is None or ts >= start)
                and (end is None or ts <= end)
                and accept is not False)
    test = row_test(
        table, sender, None if window is None else TimeWindow(start, end),
        None if accept is None else (lambda _tx: accept))
    assert test(tx) is expected


@given(st.lists(st.integers(0, 6)), st.lists(st.integers(0, 6)))
def test_equal_runs_pairs_exactly_the_equal_keys(left, right):
    left.sort()
    right.sort()
    pairs = [(a, b) for i, i_end, j, j_end in equal_runs(left, right)
             for a in range(i, i_end) for b in range(j, j_end)]
    assert pairs == [(a, b) for a, key in enumerate(left)
                     for b, other in enumerate(right) if key == other]


def test_layered_trace_keeps_block_order_over_an_mb_tree():
    # an MB-tree orders equal keys by payload repr ('10' before '9'); a
    # layered TRACE still returns each block's rows in block order
    node = FullNode("trace-order", config=SebdbConfig.in_memory())
    node.execute("CREATE TABLE t (k int)")
    node.apply_batch([Transaction.create("t", (i,), ts=i, sender="org1")
                      for i in range(12)])
    node.create_index("senid", authenticated=True)
    sql = "TRACE OPERATOR = 'org1'"
    layered = node.query(sql, method="layered")
    assert [row[4] for row in layered.rows] == [(i,) for i in range(12)]
    assert layered.rows == node.query(sql, method="scan").rows
    node.close()


def test_layered_trace_over_a_plain_index_sorts_nothing(monkeypatch):
    # a plain level-2 run already keeps a key's positions in block order
    node = FullNode("trace-plain", config=SebdbConfig.in_memory())
    node.execute("CREATE TABLE t (k int)")
    node.apply_batch([Transaction.create("t", (i,), ts=i, sender=f"org{i % 2}")
                      for i in range(12)])
    node.create_index("senid")

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted a plain index's positions")

    monkeypatch.setattr(physical, "sorted", no_sort, raising=False)
    sql = "TRACE OPERATOR = 'org1'"
    layered = node.query(sql, method="layered")
    assert [row[4] for row in layered.rows] == [(i,) for i in range(1, 12, 2)]
    monkeypatch.undo()
    assert layered.rows == node.query(sql, method="scan").rows
    node.close()
