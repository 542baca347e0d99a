"""Fig 19 - authenticated query verification time at the client side.

Paper shape: reconstructing a handful of MB-tree roots from the ALI's VO
is far cheaper than recomputing the transaction Merkle root of every
shipped block, and the basic client's cost grows with the chain.
"""

import pytest

from conftest import first_point, last_point, save_series
from repro.bench.generator import build_tracking_dataset, create_standard_indexes
from repro.bench.harness import figs17_19_authenticated
from repro.mht.vo import verify_query_vo
from repro.node.auth import AuthQueryServer

BLOCKS = [50, 100, 150]
RESULT = 300


@pytest.fixture(scope="module")
def auth_series():
    return figs17_19_authenticated(block_counts=BLOCKS, result_size=RESULT)


def test_fig19_shapes(benchmark, auth_series):
    client_ms = auth_series["fig19_client_ms"]
    save_series("fig19", "Fig 19: client-side time (ms)", client_ms,
                x_label="blocks", y_label="ms")
    assert last_point(client_ms, "ALI-Q2") < last_point(client_ms, "basic")
    assert last_point(client_ms, "ALI-Q4") < last_point(client_ms, "basic")
    assert last_point(client_ms, "basic") > 1.3 * first_point(client_ms, "basic")

    dataset = build_tracking_dataset(BLOCKS[0], 40, RESULT)
    create_standard_indexes(dataset, authenticated=True)
    server = AuthQueryServer(dataset.node)
    vo = server.trace_vo("org1")
    digest = server.auxiliary_digest("senid", "org1", "org1", vo.chain_height)

    def client_verify():
        return verify_query_vo(vo, key_of=lambda tx: tx.senid,
                               expected_digest=digest,
                               query=("senid", "org1", "org1"))

    verified = benchmark(client_verify)
    assert len(verified.transactions) == RESULT
