"""The figure harness: one function per table/figure of section VII.

Every function regenerates the corresponding figure's series on a
laptop-scale dataset (the paper's sizes divided by a fixed scale factor -
see EXPERIMENTS.md) and returns plain data structures; ``print_series``
renders them like the paper's plots' underlying tables.  Latency is
wall-clock plus the cost model's modelled disk time, so the curve shapes
match what a disk-backed deployment would show.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..baselines.basic_auth import BasicAuthServer, predicate_for_range, verify_basic_vo
from ..baselines.chainsql import ChainSQLBaseline
from ..mht.vo import verify_query_vo
from ..node.auth import AuthQueryServer
from ..node.fullnode import FullNode
from ..query.engine import run_plan
from ..query.plan import AccessPath, TraceDecision
from ..query.result import QueryResult
from ..sqlparser.parser import parse
from .generator import (
    GAUSSIAN,
    RESULT_HIGH,
    RESULT_LOW,
    UNIFORM,
    Dataset,
    build_join_dataset,
    build_onoff_dataset,
    build_range_dataset,
    build_tracking_dataset,
    create_standard_indexes,
)
from .metrics import QueryMeasurement, measure

#: method × distribution labels used throughout Figs 8-16
SERIES_LABELS = {
    ("scan", UNIFORM): "SU",
    ("scan", GAUSSIAN): "SG",
    ("bitmap", UNIFORM): "BU",
    ("bitmap", GAUSSIAN): "BG",
    ("layered", UNIFORM): "LU",
    ("layered", GAUSSIAN): "LG",
}

METHODS = ("scan", "bitmap", "layered")
DISTRIBUTIONS = (UNIFORM, GAUSSIAN)

Series = dict[str, list[tuple[Any, float]]]


def _timed(node: FullNode, fn: Callable[[], Any]) -> tuple[Any, QueryMeasurement]:
    """Run a query cold (cost counters reset, caches cleared)."""
    cost = node.store.cost
    node.store.clear_caches()
    cost.reset()
    return measure(fn, cost.snapshot(), cost.snapshot)


def operator_breakdown(
    node: FullNode,
    sql: str,
    method: Optional[str] = None,
) -> list[dict[str, Any]]:
    """Run one query cold and return its per-operator cost profile.

    Each entry is one operator of the physical plan (pre-order, with
    ``depth`` giving its position in the tree): rows in/out, seeks, page
    transfers and the modelled disk ms attributed to that operator by its
    own cost tracker: deterministic, unlike EXPLAIN ANALYZE's wall_ms.  The
    per-operator modelled costs sum to the query's total, so a breakdown
    row directly answers "where did the latency of Fig 13 go".
    """
    node.store.clear_caches()
    plan = node.engine.plan(sql, method=method)
    run_plan(plan)
    breakdown = []
    for depth, op in plan.root.walk():
        stats = op.stats
        breakdown.append({
            "depth": depth,
            "operator": op.name,
            "detail": op.describe(),
            "rows_in": stats.rows_in,
            "rows_out": stats.rows_out,
            "seeks": stats.seeks,
            "page_transfers": stats.page_transfers,
            "modelled_ms": stats.modelled_ms,
        })
    return breakdown


def ascii_chart(series: Series) -> str:
    """Sparkline-style rendering of each series' trend.

    Scales every series against the global maximum so relative magnitudes
    (layered vs scan, SEBDB vs ChainSQL) are visible at a glance in plain
    text logs.
    """
    blocks = " ▁▂▃▄▅▆▇█"
    peak = max(
        (y for points in series.values() for _, y in points), default=0.0
    )
    if peak <= 0:
        peak = 1.0
    lines = []
    for label, points in series.items():
        cells = "".join(
            blocks[min(len(blocks) - 1,
                       int(y / peak * (len(blocks) - 1) + 0.5))]
            for _, y in points
        )
        last = points[-1][1] if points else 0.0
        lines.append(f"  {label:>10} {cells}  ({last:,.1f})")
    return "\n".join(lines)


def print_series(title: str, series: Series, x_label: str = "x",
                 y_label: str = "latency_ms") -> None:
    """Render a figure's series the way the paper's plots tabulate them."""
    print(f"\n== {title} ==")
    xs: list[Any] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    header = [x_label] + list(series)
    print("  " + "\t".join(str(h) for h in header))
    for x in xs:
        row = [str(x)]
        for label in series:
            match = [y for px, y in series[label] if px == x]
            row.append(f"{match[0]:.2f}" if match else "-")
        print("  " + "\t".join(row))
    print(f"  ({y_label})")
    print(ascii_chart(series))


# -- Fig 7: write throughput & response time -------------------------------------


def fig7_write(
    client_counts: Optional[list[int]] = None, txs_per_client: int = 20
) -> dict[str, list[tuple[int, float, float]]]:
    """(clients, throughput tps, mean latency ms) per engine."""
    # imported here so ``python -m repro.bench.write_bench`` does not find
    # its own module already loaded by the package import
    from .write_bench import kafka_factory, sweep_clients, tendermint_factory

    counts = client_counts or [40, 120, 240, 400]
    out: dict[str, list[tuple[int, float, float]]] = {}
    for name, factory in (
        ("kafka", kafka_factory()),
        ("tendermint", tendermint_factory()),
    ):
        samples = sweep_clients(factory, counts, txs_per_client=txs_per_client)
        out[name] = [
            (s.clients, s.throughput_tps, s.mean_latency_ms) for s in samples
        ]
    return out


# -- Figs 8-12: tracking and range, six series each --------------------------------


def fig8_tracking_datasize(
    block_counts: Optional[list[int]] = None,
    result_size: int = 400,
    txs_per_block: int = 60,
) -> Series:
    """Q2 latency vs blockchain size, result size fixed."""
    counts = block_counts or [50, 100, 150, 200, 250]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for num_blocks in counts:
        for distribution in DISTRIBUTIONS:
            dataset = build_tracking_dataset(
                num_blocks, txs_per_block, result_size,
                distribution=distribution, variance=5.0,
            )
            create_standard_indexes(dataset)
            for method in METHODS:
                label = SERIES_LABELS[(method, distribution)]
                result, meas = _timed(
                    dataset.node,
                    lambda m=method: dataset.node.query(
                        "TRACE OPERATOR = 'org1'", method=m
                    ),
                )
                assert len(result) == result_size, (label, len(result))
                series[label].append((num_blocks, meas.total_ms))
    return series


def fig9_tracking_resultsize(
    result_sizes: Optional[list[int]] = None,
    num_blocks: int = 150,
    txs_per_block: int = 60,
) -> Series:
    """Q2 latency vs result size, blockchain size fixed."""
    sizes = result_sizes or [200, 400, 800, 1_600, 3_200]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for result_size in sizes:
        for distribution in DISTRIBUTIONS:
            dataset = build_tracking_dataset(
                num_blocks, txs_per_block, result_size,
                distribution=distribution, variance=12.0,
            )
            create_standard_indexes(dataset)
            for method in METHODS:
                label = SERIES_LABELS[(method, distribution)]
                result, meas = _timed(
                    dataset.node,
                    lambda m=method: dataset.node.query(
                        "TRACE OPERATOR = 'org1'", method=m
                    ),
                )
                assert len(result) == result_size
                series[label].append((result_size, meas.total_ms))
    return series


def fig10_tracking_window(
    window_exponents: Optional[list[int]] = None,
    num_blocks: int = 100,
) -> Series:
    """Q3 latency vs shrinking time window; single- vs two-index variants.

    Window TW_i starts at block (num_blocks - num_blocks/2^(i-1)) like the
    paper's ``start = ts(1000 - 1000/2^(i-1))``.
    """
    exponents = window_exponents or [1, 2, 3, 4]
    series: Series = {k: [] for k in ("SIU", "SIG", "TIU", "TIG")}
    for distribution in DISTRIBUTIONS:
        dataset = build_tracking_dataset(
            num_blocks, txs_per_block=60, result_size=100,
            distribution=distribution, variance=num_blocks / 8,
            operator_extra=900, operation_extra=900,
        )
        create_standard_indexes(dataset)
        for exponent in exponents:
            start_block = num_blocks - num_blocks // (2 ** (exponent - 1))
            sql = (
                f"TRACE [{start_block * 1_000}, ] "
                f"OPERATOR = 'org1', OPERATION = 'transfer'"
            )
            for two_index in (False, True):
                label = ("TI" if two_index else "SI") + (
                    "U" if distribution == UNIFORM else "G"
                )
                _, meas = _timed(
                    dataset.node,
                    lambda ti=two_index, q=sql: (
                        dataset.node.query(q, method="layered") if ti
                        else trace_single_index(dataset.node, q)
                    ),
                )
                series[label].append((f"TW{exponent}", meas.total_ms))
    return series


def trace_single_index(node: FullNode, sql: str) -> QueryResult:
    """Fig 10's SI* variant of a layered TRACE: only the SenID index
    prunes, the Tname condition becomes a residual filter.

    It is a pinned decision outside the space the optimizer enumerates,
    so it enters at the same (IR, decision) seam the optimizer uses.
    """
    planner = node.engine.planner
    return run_plan(planner.build(
        planner.lower(parse(sql)),
        TraceDecision(AccessPath.LAYERED, use_operation_index=False),
    ))


def fig11_range_datasize(
    block_counts: Optional[list[int]] = None,
    result_size: int = 200,
    txs_per_block: int = 60,
) -> Series:
    """Q4 latency vs blockchain size."""
    counts = block_counts or [50, 100, 150, 200, 250]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for num_blocks in counts:
        for distribution in DISTRIBUTIONS:
            dataset = build_range_dataset(
                num_blocks, txs_per_block, result_size,
                distribution=distribution, variance=5.0,
            )
            create_standard_indexes(dataset)
            for method in METHODS:
                label = SERIES_LABELS[(method, distribution)]
                result, meas = _timed(
                    dataset.node,
                    lambda m=method: dataset.node.query(
                        "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
                        params=(RESULT_LOW, RESULT_HIGH), method=m,
                    ),
                )
                assert len(result) == result_size
                series[label].append((num_blocks, meas.total_ms))
    return series


def fig12_range_resultsize(
    result_sizes: Optional[list[int]] = None,
    num_blocks: int = 150,
    txs_per_block: int = 60,
) -> Series:
    """Q4 latency vs result size."""
    sizes = result_sizes or [100, 200, 400, 800, 1_600]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for result_size in sizes:
        for distribution in DISTRIBUTIONS:
            dataset = build_range_dataset(
                num_blocks, txs_per_block, result_size,
                distribution=distribution, variance=12.0,
            )
            create_standard_indexes(dataset)
            for method in METHODS:
                label = SERIES_LABELS[(method, distribution)]
                result, meas = _timed(
                    dataset.node,
                    lambda m=method: dataset.node.query(
                        "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
                        params=(RESULT_LOW, RESULT_HIGH), method=m,
                    ),
                )
                assert len(result) == result_size
                series[label].append((result_size, meas.total_ms))
    return series


# -- Figs 13-16: joins ------------------------------------------------------------------


def fig13_join_datasize(
    block_counts: Optional[list[int]] = None,
    table_rows: int = 600,
    result_pairs: int = 300,
    txs_per_block: int = 60,
) -> Series:
    """Q5 latency vs blockchain size."""
    counts = block_counts or [50, 100, 150, 200]
    return _join_sweep(
        counts, lambda n, d: build_join_dataset(
            n, txs_per_block, table_rows, result_pairs,
            distribution=d, variance=5.0,
        ),
        "SELECT * FROM transfer, distribute "
        "ON transfer.organization = distribute.organization",
        expected=result_pairs, x_of=lambda n: n,
    )


def fig14_join_resultsize(
    result_sizes: Optional[list[int]] = None,
    num_blocks: int = 150,
    table_rows: int = 1_500,
    txs_per_block: int = 60,
) -> Series:
    """Q5 latency vs join result size."""
    sizes = result_sizes or [100, 250, 500, 1_000]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for result_pairs in sizes:
        sub = _join_sweep(
            [num_blocks],
            lambda n, d, rp=result_pairs: build_join_dataset(
                n, txs_per_block, table_rows, rp,
                distribution=d, variance=12.0,
            ),
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization",
            expected=result_pairs, x_of=lambda n, rp=result_pairs: rp,
        )
        for label, points in sub.items():
            series[label].extend(points)
    return series


def _join_sweep(
    counts: list[int],
    make_dataset: Callable[[int, str], Dataset],
    sql: str,
    expected: int,
    x_of: Callable[[int], Any],
) -> Series:
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for num_blocks in counts:
        for distribution in DISTRIBUTIONS:
            dataset = make_dataset(num_blocks, distribution)
            create_standard_indexes(dataset)
            for method in METHODS:
                label = SERIES_LABELS[(method, distribution)]
                result, meas = _timed(
                    dataset.node,
                    lambda m=method: dataset.node.query(sql, method=m),
                )
                assert len(result) == expected, (label, len(result), expected)
                series[label].append((x_of(num_blocks), meas.total_ms))
    return series


def fig15_onoff_datasize(
    block_counts: Optional[list[int]] = None,
    onchain_rows: int = 600,
    result_pairs: int = 300,
    txs_per_block: int = 60,
) -> Series:
    """Q6 latency vs blockchain size."""
    counts = block_counts or [50, 100, 150, 200]
    return _join_sweep(
        counts, lambda n, d: build_onoff_dataset(
            n, txs_per_block, onchain_rows, result_pairs,
            distribution=d, variance=5.0,
        ),
        "SELECT * FROM onchain.distribute, offchain.doneeinfo "
        "ON distribute.donee = doneeinfo.donee",
        expected=result_pairs, x_of=lambda n: n,
    )


def fig16_onoff_resultsize(
    result_sizes: Optional[list[int]] = None,
    num_blocks: int = 150,
    onchain_rows: int = 1_500,
    txs_per_block: int = 60,
) -> Series:
    """Q6 latency vs result size."""
    sizes = result_sizes or [100, 250, 500, 1_000]
    series: Series = {label: [] for label in SERIES_LABELS.values()}
    for result_pairs in sizes:
        sub = _join_sweep(
            [num_blocks],
            lambda n, d, rp=result_pairs: build_onoff_dataset(
                n, txs_per_block, onchain_rows, rp,
                distribution=d, variance=12.0,
            ),
            "SELECT * FROM onchain.distribute, offchain.doneeinfo "
            "ON distribute.donee = doneeinfo.donee",
            expected=result_pairs, x_of=lambda n, rp=result_pairs: rp,
        )
        for label, points in sub.items():
            series[label].extend(points)
    return series


# -- Figs 17-19: authenticated queries ---------------------------------------------------


def figs17_19_authenticated(
    block_counts: Optional[list[int]] = None,
    result_size: int = 400,
) -> dict[str, Series]:
    """VO size / server time / client time, ALI vs basic, Q2 and Q4."""
    counts = block_counts or [50, 100, 150, 200, 250]
    vo_size: Series = {k: [] for k in ("ALI-Q2", "ALI-Q4", "basic")}
    server_time: Series = {k: [] for k in ("ALI-Q2", "ALI-Q4", "basic")}
    client_time: Series = {k: [] for k in ("ALI-Q2", "ALI-Q4", "basic")}
    for num_blocks in counts:
        dataset = build_range_dataset(
            num_blocks, txs_per_block=40, result_size=result_size,
            distribution=UNIFORM,
        )
        # make the org1 tracking result the same transactions as the range
        # result by rewriting? simpler: use a tracking dataset for Q2
        tracking = build_tracking_dataset(
            num_blocks, txs_per_block=40, result_size=result_size,
            distribution=UNIFORM,
        )
        create_standard_indexes(dataset, authenticated=True)
        create_standard_indexes(tracking, authenticated=True)
        schema = dataset.node.catalog.get("donate")

        # ALI Q2 (tracking)
        server = AuthQueryServer(tracking.node)
        vo, meas = _timed(tracking.node, lambda: server.trace_vo("org1"))
        digest = server.auxiliary_digest(
            "senid", "org1", "org1", vo.chain_height
        )
        client_ms = float("inf")
        for _ in range(3):  # min over repeats dampens wall-clock noise
            t0 = time.perf_counter()
            verified = verify_query_vo(vo, key_of=lambda tx: tx.senid,
                                       expected_digest=digest,
                                       query=("senid", "org1", "org1"))
            client_ms = min(client_ms, (time.perf_counter() - t0) * 1000.0)
        assert len(verified.transactions) == result_size
        vo_size["ALI-Q2"].append((num_blocks, vo.size_bytes() / 1024.0))
        server_time["ALI-Q2"].append((num_blocks, meas.total_ms))
        client_time["ALI-Q2"].append((num_blocks, client_ms))

        # ALI Q4 (range)
        server4 = AuthQueryServer(dataset.node)
        vo4, meas4 = _timed(
            dataset.node,
            lambda: server4.range_vo("amount", RESULT_LOW, RESULT_HIGH,
                                     table="donate"),
        )
        digest4 = server4.auxiliary_digest(
            "amount", RESULT_LOW, RESULT_HIGH, vo4.chain_height, table="donate"
        )
        key_of = lambda tx: tx.values[2]  # noqa: E731 - donate.amount
        client4_ms = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            verified4 = verify_query_vo(
                vo4, key_of=key_of, expected_digest=digest4,
                query=("amount", RESULT_LOW, RESULT_HIGH))
            client4_ms = min(client4_ms,
                             (time.perf_counter() - t0) * 1000.0)
        assert len(verified4.transactions) == result_size
        vo_size["ALI-Q4"].append((num_blocks, vo4.size_bytes() / 1024.0))
        server_time["ALI-Q4"].append((num_blocks, meas4.total_ms))
        client_time["ALI-Q4"].append((num_blocks, client4_ms))

        # basic approach: ship every block, client recomputes merkle roots
        basic = BasicAuthServer(dataset.node)
        basic_vo, meas_b = _timed(dataset.node, basic.query)
        headers = dataset.node.store.headers
        in_range = predicate_for_range(key_of, RESULT_LOW, RESULT_HIGH)

        def predicate(tx: Any) -> bool:
            return tx.tname == "donate" and in_range(tx)
        basic_client_ms = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            basic_result = verify_basic_vo(basic_vo, headers, predicate)
            basic_client_ms = min(basic_client_ms,
                                  (time.perf_counter() - t0) * 1000.0)
        assert len(basic_result) == result_size
        vo_size["basic"].append((num_blocks, basic_vo.size_bytes() / 1024.0))
        server_time["basic"].append((num_blocks, meas_b.total_ms))
        client_time["basic"].append((num_blocks, basic_client_ms))
    return {
        "fig17_vo_size_kb": vo_size,
        "fig18_server_ms": server_time,
        "fig19_client_ms": client_time,
    }


# -- Figs 20-21: vs ChainSQL ------------------------------------------------------------------


def fig20_chainsql_one_dim(
    block_counts: Optional[list[int]] = None,
    result_size: int = 500,
) -> Series:
    """Q2 latency, SEBDB vs ChainSQL, varying blockchain size."""
    counts = block_counts or [50, 100, 150, 200, 250]
    series: Series = {"SEBDB": [], "ChainSQL": []}
    for num_blocks in counts:
        dataset = build_tracking_dataset(
            num_blocks, txs_per_block=40, result_size=result_size,
            distribution=UNIFORM,
        )
        create_standard_indexes(dataset)
        result, meas = _timed(
            dataset.node,
            lambda: dataset.node.query("TRACE OPERATOR = 'org1'",
                                       method="layered"),
        )
        assert len(result) == result_size
        series["SEBDB"].append((num_blocks, meas.total_ms))
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(dataset.node.store)
        t0 = time.perf_counter()
        metrics = baseline.track_one_dimension("org1")
        wall = (time.perf_counter() - t0) * 1000.0
        assert metrics.rows_returned == result_size
        series["ChainSQL"].append((num_blocks, wall + metrics.modelled_ms))
    return series


def fig21_chainsql_two_dim(
    operator_tx_counts: Optional[list[int]] = None,
    result_size: int = 250,
) -> Series:
    """Q3 latency, SEBDB vs ChainSQL, varying the operator's tx count.

    The result (org1's transfers) stays fixed while org1's *other*
    transactions grow - ChainSQL ships and filters all of them, SEBDB's
    two-index tracking stays flat.
    """
    counts = operator_tx_counts or [500, 1_000, 2_000, 4_000]
    series: Series = {"SEBDB": [], "ChainSQL": []}
    for operator_txs in counts:
        dataset = build_tracking_dataset(
            num_blocks=100, txs_per_block=60, result_size=result_size,
            distribution=UNIFORM,
            operator_extra=operator_txs - result_size,
            operation_extra=250,
        )
        create_standard_indexes(dataset)
        result, meas = _timed(
            dataset.node,
            lambda: dataset.node.query(
                "TRACE OPERATOR = 'org1', OPERATION = 'transfer'",
                method="layered",
            ),
        )
        assert len(result) == result_size, len(result)
        series["SEBDB"].append((operator_txs, meas.total_ms))
        baseline = ChainSQLBaseline()
        baseline.replicate_chain(dataset.node.store)
        t0 = time.perf_counter()
        metrics = baseline.track_two_dimensions("org1", "transfer")
        wall = (time.perf_counter() - t0) * 1000.0
        assert metrics.rows_returned == result_size
        assert metrics.rows_transferred == operator_txs
        series["ChainSQL"].append((operator_txs, wall + metrics.modelled_ms))
    return series


# -- Fig 22: block cache vs transaction cache ---------------------------------------------------


def fig22_cache(
    num_blocks: int = 100,
    txs_per_block: int = 40,
    result_size: int = 400,
    requests: int = 20,
) -> Series:
    """Per-query processing time under the two cache policies.

    Q2/Q4/Q5/Q6 run with the layered index (point reads - the transaction
    cache shines); Q7 reads whole blocks (the block cache shines).
    """
    from ..common.config import SebdbConfig

    series: Series = {"block-cache": [], "tx-cache": []}
    queries: list[tuple[str, Callable[[FullNode, Dataset], Any]]] = [
        ("Q2", lambda node, ds: node.query("TRACE OPERATOR = 'org1'",
                                           method="layered")),
        ("Q4", lambda node, ds: node.query(
            "SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
            params=(RESULT_LOW, RESULT_HIGH), method="layered")),
        ("Q5", lambda node, ds: node.query(
            "SELECT * FROM transfer, distribute "
            "ON transfer.organization = distribute.organization",
            method="layered")),
        ("Q6", lambda node, ds: node.query(
            "SELECT * FROM onchain.distribute, offchain.doneeinfo "
            "ON distribute.donee = doneeinfo.donee", method="layered")),
        ("Q7", lambda node, ds: node.query("GET BLOCK ID = ?",
                                           params=(ds.num_blocks // 2,))),
    ]
    for cache_mode, label in (("block", "block-cache"),
                              ("transaction", "tx-cache")):
        # the cache is sized between the two working sets (as the paper's
        # 2 GB cache sits below the chain size): it can hold every tuple
        # the queries touch but not every block they touch, so the block
        # cache thrashes on point-read workloads
        config = SebdbConfig.in_memory(
            block_size_txs=100_000, cache_mode=cache_mode,
            cache_bytes=128 * 1024,
        )
        mixed = _build_mixed_dataset(
            num_blocks, txs_per_block, result_size, 0, config
        )
        node = mixed.node
        for qid, run in queries:
            # warm the cache with one run, then measure repeated requests
            run(node, mixed)
            node.store.cost.reset()
            before = node.store.cost.snapshot()
            t0 = time.perf_counter()
            for _ in range(requests):
                run(node, mixed)
            wall = (time.perf_counter() - t0) * 1000.0
            delta = node.store.cost.snapshot().delta(before)
            series[label].append((qid, (wall + delta.elapsed_ms) / requests))
    return series


def _build_mixed_dataset(
    num_blocks: int, txs_per_block: int, result_size: int, seed: int,
    config: Any,
) -> Dataset:
    """One dataset that serves Q2, Q4, Q5, Q6 and Q7 at once."""
    import random as _random

    from ..model.transaction import Transaction
    from ..offchain.adapter import OffChainDatabase
    from .generator import _fresh_node, _load_blocks, _TxFactory, spread_counts
    from .schema import create_offchain_tables

    rng = _random.Random(seed)
    factory = _TxFactory(rng)
    quarter = result_size // 4
    track = spread_counts(quarter, num_blocks, UNIFORM, rng)
    ranged = spread_counts(quarter, num_blocks, UNIFORM, rng)
    joins = spread_counts(quarter, num_blocks, UNIFORM, rng)
    onoff = spread_counts(quarter, num_blocks, UNIFORM, rng)
    idx = {"t": 0, "j": 0, "o": 0}
    blocks: list[list[Transaction]] = []
    for bid in range(num_blocks):
        ts0 = bid * 1_000
        txs: list[Transaction] = []
        for _ in range(track[bid]):
            txs.append(factory.transfer(ts0 + len(txs), "org1", "orgZ"))
        for _ in range(ranged[bid]):
            txs.append(factory.donate(ts0 + len(txs), "donor_org",
                                      rng.uniform(RESULT_LOW, RESULT_HIGH)))
        for _ in range(joins[bid]):
            key = f"morg{idx['j']}"
            idx["j"] += 1
            txs.append(factory.transfer(ts0 + len(txs), "charity", key))
            txs.append(factory.distribute(ts0 + len(txs), "orgX", key,
                                          f"nobody{idx['j']}"))
        for _ in range(onoff[bid]):
            txs.append(factory.distribute(ts0 + len(txs), "orgX", "orgA",
                                          f"known_donee{idx['o']}"))
            idx["o"] += 1
        while len(txs) < txs_per_block:
            txs.append(factory.noise(ts0 + len(txs)))
        blocks.append(txs)
    node = _fresh_node(config)
    _load_blocks(node, blocks)
    offchain = OffChainDatabase()
    create_offchain_tables(offchain)
    offchain.insert(
        "doneeinfo",
        [(f"known_donee{i}", f"n{i}", "s", 1000.0) for i in range(idx["o"])],
    )
    node.offchain = offchain
    node.engine = type(node.engine)(node.store, node.indexes, node.catalog,
                                    offchain)
    dataset = Dataset(
        node=node, num_blocks=num_blocks, txs_per_block=txs_per_block,
        result_size=result_size, distribution=UNIFORM, offchain=offchain,
    )
    create_standard_indexes(dataset)
    return dataset
