"""Fig 10 - Q3 two-dimension tracking vs shrinking time window.

Paper shape: the two-index variant (TI*) beats the single-index variant
(SI*) because it intersects postings instead of filtering client-side;
every method speeds up as the window shrinks.
"""

import pytest

from conftest import save_series
from repro.bench.generator import build_tracking_dataset, create_standard_indexes
from repro.bench.harness import fig10_tracking_window

EXPONENTS = [1, 2, 3, 4]
NUM_BLOCKS = 100


@pytest.fixture(scope="module")
def series():
    data = fig10_tracking_window(window_exponents=EXPONENTS,
                                 num_blocks=NUM_BLOCKS)
    save_series("fig10", "Fig 10: Q3 tracking vs time window", data,
                x_label="window")
    return data


def test_fig10_shapes(benchmark, series):
    # two indexes beat one on the full window
    assert series["TIU"][0][1] <= series["SIU"][0][1]
    assert series["TIG"][0][1] <= series["SIG"][0][1]
    # shrinking the window speeds everything up
    for label in ("SIU", "TIU"):
        assert series[label][-1][1] <= series[label][0][1]

    dataset = build_tracking_dataset(
        NUM_BLOCKS, 60, 100, operator_extra=900, operation_extra=900
    )
    create_standard_indexes(dataset)

    def two_index_q3():
        dataset.store.clear_caches()
        return dataset.node.query(
            "TRACE OPERATOR = 'org1', OPERATION = 'transfer'",
            method="layered",
        )

    result = benchmark(two_index_q3)
    assert len(result) == 100
