#!/usr/bin/env python3
"""A donor audits the charity from her phone - authenticated queries.

The thin client stores only block headers.  It asks an untrusted full
node for all transfer records of a project (Example 4 of the paper),
receives a verification object built from the Authenticated Layered
Index, cross-checks the digest with auxiliary full nodes, and detects
any forged, tampered, or withheld result.  The demo also shows a *lying*
server being caught.

Run:  python examples/thin_client_audit.py
"""

from repro import SebdbNetwork, ThinClient, VerificationError
from repro.client.sampling import digest_error_probability, minimum_m_for_risk
from repro.mht.vo import BlockVO, QueryVO, verify_query_vo
from repro.node.auth import AuthQueryServer


def main() -> None:
    # -- 4 full nodes under PBFT, like the paper's Example 4 --------------------
    net = SebdbNetwork(num_nodes=4, consensus="pbft", batch_txs=25,
                       timeout_ms=50)
    net.execute(
        "CREATE transfer (project string, donor string, "
        "organization string, amount decimal)"
    )
    for i in range(120):
        org = "org1" if i % 3 == 0 else f"org{2 + i % 4}"
        net.execute(
            f"INSERT INTO transfer VALUES "
            f"('Education', 'donor{i}', 'School{i % 5}', {100.0 + i})",
            sender=org,
        )
    net.commit()
    assert net.chains_consistent()

    # every full node builds the authenticated indexes (ALI)
    for node in net.nodes:
        node.create_index("senid", authenticated=True)
        node.create_index("amount", table="transfer", authenticated=True)

    # -- the thin client -----------------------------------------------------------
    client = ThinClient(net.nodes, seed=7, byzantine_ratio=0.25)
    height = client.sync_headers()
    print(f"thin client synced {height} block headers "
          f"(that is ALL it stores)")

    answer = client.authenticated_trace("org1", n_aux=3, m=2)
    print(f"\nverified tracking result: {len(answer.transactions)} "
          f"transactions by org1")
    print(f"  VO size: {answer.vo_size_bytes} bytes")
    print(f"  auxiliary digests sampled/matched: "
          f"{answer.digests_sampled}/{answer.digests_matched}")
    print(f"  residual risk of a wrong digest (eq. 6): "
          f"{answer.residual_risk:.4f}")

    # range query over an application column
    schema = net.node(0).catalog.get("transfer")
    answer = client.authenticated_range(
        "amount", 150.0, 180.0, table="transfer", schema=schema
    )
    amounts = sorted(tx.values[3] for tx in answer.transactions)
    print(f"\nverified range result: {len(amounts)} transfers in "
          f"[150, 180]: {amounts[:5]}...")

    # -- how (n, m) tuning works (eq. 6) -----------------------------------------
    print("\nresidual risk by m (Byzantine ratio 0.25, 1 of 4 nodes):")
    for m in (1, 2, 3):
        theta = digest_error_probability(0.25, m, n=4, max_byzantine=1)
        print(f"  m={m}: theta = {theta:.4f}")
    print("minimum m for risk <= 0.01:",
          minimum_m_for_risk(0.25, n=4, max_byzantine=1, target=0.01))

    # -- a lying server is caught ---------------------------------------------------
    server = AuthQueryServer(net.node(0))
    vo = server.trace_vo("org1")
    doctored = []
    for block_vo in vo.blocks:
        if len(block_vo.records) > 2:
            # drop one matching record (a withheld result)
            doctored.append(
                BlockVO(block_vo.height,
                        block_vo.records[:1] + block_vo.records[2:],
                        block_vo.proof)
            )
        else:
            doctored.append(block_vo)
    lying_vo = QueryVO(vo.chain_height, vo.column, vo.low, vo.high,
                       tuple(doctored))
    honest_digest = server.auxiliary_digest(
        "senid", "org1", "org1", vo.chain_height
    )
    try:
        verify_query_vo(lying_vo, key_of=lambda tx: tx.senid,
                        expected_digest=honest_digest,
                        query=("senid", "org1", "org1"))
        print("\nBUG: the tampered VO was not detected!")
    except VerificationError as exc:
        print(f"\nlying server caught: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
