"""Per-query plan leaderboard: the optimizer's modelled cost, gated.

Runs a fixed corpus of queries over a deterministic BChainBench-style
chain (seeded data, explicit timestamps, no wall clocks) and records the
modelled I/O milliseconds of each optimizer-chosen plan.  The numbers
come from the cost model, not timers, so they are exactly reproducible -
which is what makes a regression gate on plan *choice* possible: a plan
change shows up as a modelled-ms delta, never as machine noise.

Usage::

    PYTHONPATH=src python benchmarks/leaderboard.py                  # run + TSV
    PYTHONPATH=src python benchmarks/leaderboard.py --check          # CI gate
    PYTHONPATH=src python benchmarks/leaderboard.py --write-baseline

The default run writes ``benchmarks/results/fig_leaderboard.tsv``, a
win/regression waterfall against the committed baseline (best win
first).  ``--check`` exits non-zero when any single query's modelled
cost regressed more than ``REGRESSION_LIMIT_PCT`` - the optimizer picked
a worse plan than the one the baseline recorded.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional

from repro.bench.schema import DISTRIBUTE, DONATE, ONCHAIN_SCHEMAS, TRANSFER
from repro.index.manager import IndexManager
from repro.model import Block, Catalog, Transaction, make_genesis
from repro.offchain import OffChainDatabase
from repro.query import QueryEngine
from repro.storage import BlockStore

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "leaderboard_baseline.tsv"
OUTPUT_PATH = RESULTS_DIR / "fig_leaderboard.tsv"

#: a query may not cost more than this much over its baseline plan
REGRESSION_LIMIT_PCT = 20.0

NUM_BLOCKS = 20
TXS_PER_BLOCK = 30
ORGS = ("org1", "org2", "org3")
DONEES = ("tom", "amy", "bob", "sue")

#: the fixed corpus: (query id, SQL)
CORPUS = (
    # no donate row carries this amount: the level-1 filter must prove
    # the query empty without reading a block (modelled cost 0)
    ("q01_point_miss", "SELECT * FROM donate WHERE amount = 250"),
    ("q02_narrow_range", "SELECT * FROM donate WHERE amount BETWEEN 100 AND 200"),
    ("q03_wide_range", "SELECT * FROM donate WHERE amount BETWEEN 1 AND 900"),
    ("q04_window",
     "SELECT * FROM donate WHERE amount BETWEEN 1 AND 5000 WINDOW [500, 1500]"),
    ("q05_unindexed_eq", "SELECT * FROM transfer WHERE organization = 'org2'"),
    ("q06_ordered",
     "SELECT donor, amount FROM donate WHERE amount > 300 ORDER BY amount"),
    ("q07_ordered_limit",
     "SELECT donor, amount FROM donate WHERE amount > 100 "
     "ORDER BY amount DESC LIMIT 10"),
    ("q08_distinct", "SELECT DISTINCT organization FROM transfer"),
    ("q09_aggregate",
     "SELECT COUNT(*), SUM(amount) FROM donate WHERE amount > 200"),
    ("q10_join_indexed",
     "SELECT * FROM donate, transfer ON donate.amount = transfer.amount"),
    ("q11_join_unindexed",
     "SELECT * FROM transfer, distribute "
     "ON transfer.donor = distribute.donor"),
    ("q12_join_onoff",
     "SELECT * FROM onchain.distribute, offchain.doneeinfo "
     "ON distribute.donee = doneeinfo.donee"),
    ("q13_trace_operator", "TRACE OPERATOR = 'org1'"),
    ("q14_trace_windowed", "TRACE [500, 1500] OPERATOR = 'org2'"),
)


def build_engine() -> QueryEngine:
    """The leaderboard chain: seeded donation workload, explicit ts."""
    rng = random.Random(20260808)
    store = BlockStore()
    catalog = Catalog()
    genesis = make_genesis(0, list(ONCHAIN_SCHEMAS))
    store.append_block(genesis)
    catalog.apply_transactions(genesis.transactions)
    indexes = IndexManager(store, order=8, histogram_depth=16)
    prev = store.tip_hash
    tid = len(genesis.transactions)
    for height in range(1, NUM_BLOCKS + 1):
        txs = []
        for i in range(TXS_PER_BLOCK):
            ts = height * 100 + i
            sender = ORGS[rng.randrange(len(ORGS))]
            kind = rng.random()
            if kind < 0.4:
                tx = Transaction.create(
                    DONATE.name,
                    (f"donor{rng.randrange(12)}", "edu",
                     float(rng.randint(1, 1000))),
                    ts=ts, sender=sender,
                )
            elif kind < 0.7:
                tx = Transaction.create(
                    TRANSFER.name,
                    ("edu", f"donor{rng.randrange(12)}",
                     ORGS[rng.randrange(len(ORGS))],
                     float(rng.randint(1, 1000))),
                    ts=ts, sender=sender,
                )
            else:
                tx = Transaction.create(
                    DISTRIBUTE.name,
                    ("edu", f"donor{rng.randrange(12)}",
                     ORGS[rng.randrange(len(ORGS))],
                     DONEES[rng.randrange(len(DONEES))],
                     float(rng.randint(1, 500))),
                    ts=ts, sender=sender,
                )
            txs.append(tx.with_tid(tid))
            tid += 1
        block = Block.package(prev, height, height * 100 + 99, txs)
        store.append_block(block)
        prev = block.block_hash()
    indexes.create_layered_index("senid")
    indexes.create_layered_index("tname")
    indexes.create_layered_index("amount", table=DONATE.name, schema=DONATE)
    indexes.create_layered_index("amount", table=TRANSFER.name,
                                 schema=TRANSFER)
    indexes.create_layered_index("donee", table=DISTRIBUTE.name,
                                 schema=DISTRIBUTE)
    offchain = OffChainDatabase()
    offchain.create_table(
        "doneeinfo",
        [("donee", "string"), ("name", "string"), ("income", "decimal")],
    )
    offchain.insert(
        "doneeinfo",
        [("tom", "Tom", 100.0), ("amy", "Amy", 55.0), ("sue", "Sue", 80.0)],
    )
    return QueryEngine(store, indexes, catalog, offchain)


def run_corpus() -> dict[str, tuple[float, str]]:
    """query id -> (modelled ms of the chosen plan, its label)."""
    engine = build_engine()
    measured: dict[str, tuple[float, str]] = {}
    for qid, sql in CORPUS:
        result = engine.execute(sql)
        plan = result.plan
        label = plan.candidates[0].label if plan.candidates else plan.access_path
        measured[qid] = (plan.cost().elapsed_ms, label)
    return measured


def load_baseline(path: Path) -> Optional[dict[str, float]]:
    if not path.exists():
        return None
    baseline: dict[str, float] = {}
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        qid, ms = line.split("\t")[:2]
        if qid == "query":
            continue
        baseline[qid] = float(ms)
    return baseline


def write_baseline(measured: dict[str, tuple[float, str]]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    lines = [
        "# Leaderboard baseline: modelled ms of the optimizer-chosen plan",
        "# per corpus query.  Regenerate with:",
        "#   PYTHONPATH=src python benchmarks/leaderboard.py --write-baseline",
        "query\tmodelled_ms\tplan",
    ]
    for qid, (ms, label) in measured.items():
        lines.append(f"{qid}\t{ms:.3f}\t{label}")
    BASELINE_PATH.write_text("\n".join(lines) + "\n")


def write_leaderboard(
    measured: dict[str, tuple[float, str]],
    baseline: Optional[dict[str, float]],
) -> list[str]:
    """The sorted win/regression waterfall; returns its lines."""
    rows = []
    for qid, (ms, label) in measured.items():
        base = baseline.get(qid) if baseline else None
        if base is None or base == 0:
            delta = None
        else:
            delta = (ms - base) / base * 100.0
        rows.append((qid, ms, base, delta, label))
    # best win first; unbaselined queries sink to the bottom
    rows.sort(key=lambda r: (r[3] is None, r[3] if r[3] is not None else 0.0))
    lines = [
        "# Per-query plan leaderboard: modelled ms vs committed baseline",
        "query\tmodelled_ms\tbaseline_ms\tdelta_pct\tplan",
    ]
    for qid, ms, base, delta, label in rows:
        lines.append("\t".join([
            qid,
            f"{ms:.3f}",
            f"{base:.3f}" if base is not None else "-",
            f"{delta:+.1f}" if delta is not None else "-",
            label,
        ]))
    RESULTS_DIR.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text("\n".join(lines) + "\n")
    return lines


def check(
    measured: dict[str, tuple[float, str]],
    baseline: Optional[dict[str, float]],
) -> list[str]:
    """Gate failures: queries regressing > REGRESSION_LIMIT_PCT."""
    if baseline is None:
        return [f"no baseline at {BASELINE_PATH} - run --write-baseline "
                f"and commit it"]
    failures = []
    for qid, (ms, label) in measured.items():
        base = baseline.get(qid)
        if base is None:
            failures.append(f"{qid}: not in baseline - regenerate it")
            continue
        if base == 0:
            continue
        delta = (ms - base) / base * 100.0
        if delta > REGRESSION_LIMIT_PCT:
            failures.append(
                f"{qid}: {ms:.3f} ms vs baseline {base:.3f} ms "
                f"({delta:+.1f}% > {REGRESSION_LIMIT_PCT:.0f}%), "
                f"chosen plan: {label}"
            )
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on any >20%% single-query regression")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current modelled costs as the baseline")
    args = parser.parse_args(argv)
    measured = run_corpus()
    if args.write_baseline:
        write_baseline(measured)
        print(f"baseline written: {BASELINE_PATH}")
        return 0
    baseline = load_baseline(BASELINE_PATH)
    lines = write_leaderboard(measured, baseline)
    print("\n".join(lines))
    if args.check:
        failures = check(measured, baseline)
        if failures:
            print("\nleaderboard gate FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nleaderboard gate OK "
              f"(no query regressed > {REGRESSION_LIMIT_PCT:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
