"""Shared helpers for the per-figure benchmark files.

Each ``test_figXX_*.py`` regenerates one table/figure of the paper's
evaluation section on scaled-down datasets: a module fixture builds the
figure's series, asserts the paper's qualitative shape (who wins, what
grows), writes the series to ``benchmarks/results/`` and prints it; a
pytest-benchmark test then times the figure's representative query.

Run with:  pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"

Series = dict[str, list[tuple[Any, float]]]


def save_series(name: str, title: str, series: Series,
                x_label: str = "x", y_label: str = "latency_ms") -> None:
    """Persist one figure's series as a tab-separated table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    xs: list[Any] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    lines = [f"# {title}", "\t".join([x_label] + list(series))]
    for x in xs:
        row = [str(x)]
        for label in series:
            match = [y for px, y in series[label] if px == x]
            row.append(f"{match[0]:.3f}" if match else "-")
        lines.append("\t".join(row))
    lines.append(f"# ({y_label})")
    (RESULTS_DIR / f"{name}.tsv").write_text("\n".join(lines) + "\n")


def save_operator_breakdown(
    name: str, title: str,
    breakdowns: dict[str, list[dict[str, Any]]],
) -> None:
    """Persist per-operator cost profiles (one section per access method).

    ``breakdowns`` maps a method label to the rows produced by
    :func:`repro.bench.harness.operator_breakdown`.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    columns = ("operator", "rows_in", "rows_out", "seeks",
               "page_transfers", "modelled_ms")
    lines = [f"# {title}", "method\t" + "\t".join(columns)]
    for method, rows in breakdowns.items():
        for row in rows:
            label = "  " * row["depth"] + row["operator"]
            if row["detail"]:
                label += f"({row['detail']})"
            lines.append("\t".join([
                method, label,
                str(row["rows_in"]), str(row["rows_out"]),
                str(row["seeks"]), str(row["page_transfers"]),
                f"{row['modelled_ms']:.3f}",
            ]))
    (RESULTS_DIR / f"{name}.tsv").write_text("\n".join(lines) + "\n")


def last_point(series: Series, label: str) -> float:
    """y value of the last (largest-x) point of one series."""
    return series[label][-1][1]


def first_point(series: Series, label: str) -> float:
    return series[label][0][1]
