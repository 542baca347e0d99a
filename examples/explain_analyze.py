#!/usr/bin/env python3
"""EXPLAIN ANALYZE: watching the streaming read path work.

Every read statement compiles to a tree of streaming physical operators
(scan leaf -> filter -> project -> sort -> limit ...).  EXPLAIN prints
that tree with the planner's cost estimates from the paper's equations
(1)-(3); EXPLAIN ANALYZE runs the query and annotates every operator
with its own counters: rows in/out, random seeks, page transfers,
modelled disk milliseconds and wall-clock time.

The script also shows the two properties the pipeline buys:

* per-operator costs sum exactly to the query's total cost snapshot;
* LIMIT k on an index path stops after k random reads instead of
  fetching every matching tuple first.

Run:  python examples/explain_analyze.py
"""

import random

from repro.node.fullnode import FullNode


def show(node: FullNode, sql: str, method=None) -> None:
    print(f"\nsebdb> {sql}")
    node.store.clear_caches()
    for (line,) in node.query(sql, method=method).rows:
        print(f"  {line}")


def main() -> None:
    node = FullNode("explain-demo", consensus=None)
    node.execute("CREATE donate (donor string, project string, amount decimal)")
    rng = random.Random(7)
    for i in range(600):
        node.insert("donate",
                    (f"donor{rng.randrange(20)}", "edu",
                     float(rng.randint(1, 1000))),
                    ts=i)
    node.create_index("amount", table="donate")

    # -- plain EXPLAIN: the plan and its modelled cost, nothing executed ----
    show(node, "EXPLAIN SELECT donor, amount FROM donate WHERE amount > 900")

    # -- EXPLAIN ANALYZE: per-operator counters after a real run ------------
    show(node, "EXPLAIN ANALYZE SELECT donor, amount FROM donate "
               "WHERE amount > 900 ORDER BY amount DESC LIMIT 5")

    # -- the same query on a different access path --------------------------
    show(node, "EXPLAIN ANALYZE SELECT donor, amount FROM donate "
               "WHERE amount > 900 ORDER BY amount DESC LIMIT 5",
         method="scan")

    # -- operator costs sum to the query's cost snapshot ---------------------
    node.store.clear_caches()
    result = node.query("SELECT * FROM donate WHERE amount > 900")
    stats = [op.stats for op in result.plan.operators()]
    seeks = sum(s.seeks for s in stats)
    pages = sum(s.page_transfers for s in stats)
    modelled = sum(s.modelled_ms for s in stats)
    cost = result.cost
    print(f"\nper-operator totals: seeks={seeks} pages={pages} "
          f"modelled={modelled:.1f} ms")
    print(f"query cost snapshot: seeks={cost.seeks} "
          f"pages={cost.page_transfers} modelled={cost.elapsed_ms:.1f} ms")
    assert (seeks, pages, modelled) == \
        (cost.seeks, cost.page_transfers, cost.elapsed_ms)

    # -- LIMIT is laziness: O(k) point reads on the layered path -------------
    node.store.clear_caches()
    full = node.query("SELECT * FROM donate WHERE amount > 500",
                      method="layered")
    node.store.clear_caches()
    limited = node.query("SELECT * FROM donate WHERE amount > 500 LIMIT 3",
                         method="layered")
    print(f"\nlayered, no limit: {len(full.rows)} rows, "
          f"{full.cost.seeks} seeks")
    print(f"layered, LIMIT 3:  {len(limited.rows)} rows, "
          f"{limited.cost.seeks} seeks (one per returned row)")
    assert limited.cost.seeks <= 3


if __name__ == "__main__":
    main()
