"""BChainBench: the paper's mini-benchmark for blockchain databases."""

from .comparison import TABLE_I, print_table, sebdb_row
from .harness import ascii_chart, print_series
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
    spread_counts,
)
from .chaos_bench import ChaosSample, run_lossy_load, sweep_loss_rates
from .metrics import QueryMeasurement, ThroughputSample
from .schema import (
    DISTRIBUTE,
    DONATE,
    OFFCHAIN_TABLES,
    ONCHAIN_SCHEMAS,
    TRANSFER,
    create_offchain_tables,
)
from .workload import ALL_QUERIES, Q1, Q2, Q3, Q4, Q5, Q6, Q7, BenchQuery, run_query

__all__ = [
    "ALL_QUERIES",
    "BenchQuery",
    "ChaosSample",
    "DISTRIBUTE",
    "DONATE",
    "Dataset",
    "GAUSSIAN",
    "OFFCHAIN_TABLES",
    "ONCHAIN_SCHEMAS",
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "Q5",
    "Q6",
    "Q7",
    "QueryMeasurement",
    "RESULT_HIGH",
    "RESULT_LOW",
    "TABLE_I",
    "TRANSFER",
    "ThroughputSample",
    "UNIFORM",
    "ascii_chart",
    "print_series",
    "build_join_dataset",
    "build_onoff_dataset",
    "build_range_dataset",
    "build_tracking_dataset",
    "create_offchain_tables",
    "create_standard_indexes",
    "print_table",
    "run_lossy_load",
    "run_query",
    "sebdb_row",
    "spread_counts",
    "sweep_loss_rates",
]
