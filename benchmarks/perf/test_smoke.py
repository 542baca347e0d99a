"""Smoke test of the wall-clock benchmark (``pytest benchmarks/perf``).

Not part of tier 1 (``testpaths = ["tests"]``): it starts interpreters and
takes about half a minute.  It checks the plumbing - schema, metric names,
correctness checks, the compare verdicts - never a timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=300, check=False
    )


def test_smoke_suite_runs_every_workload_and_checks_the_schema(tmp_path: Path) -> None:
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "smoke: schema, metric names and correctness checks hold" in done.stdout
    document = json.loads(out.read_text())
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(document["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, name
        assert set(entry["end_to_end"]) == {m["name"] for m in manifest["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
    layers = document["workloads"]
    # signature checks happen where signatures exist, and nowhere else
    assert layers["write_signed"]["per_layer"]["crypto.single_checks"]["value"] > 0
    for unsigned in ("write_pbft", "read_mix", "auth_mixed"):
        assert layers[unsigned]["per_layer"]["share.crypto"]["value"] == 0
    assert layers["read_mix"]["per_layer"]["share.ledger"]["value"] == 0
    assert layers["read_mix"]["per_layer"]["share.consensus"]["value"] == 0
    # layer self times plus the remainder account for the whole traced wall
    for name, entry in layers.items():
        shares = [v["value"] for k, v in entry["per_layer"].items()
                  if k.startswith("share.")]
        assert abs(sum(shares) - 1.0) < 1e-6, name


def test_single_run_prints_the_driver_line() -> None:
    done = _run("--workload", "read_mix", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(line["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_compare_flags_a_regression_and_exits_non_zero(tmp_path: Path) -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())

    def document(ops_per_s: float) -> dict:
        entry = {}
        for metric in manifest["end_to_end"]:
            value = ops_per_s if metric["name"] == "ops_per_s" else 1.0
            entry[metric["name"]] = {
                "values": [value], "median": value, "q1": value * 0.99,
                "q3": value * 1.01, "unit": metric["unit"],
            }
        return {"workloads": {"read_mix": {"end_to_end": entry}}}

    paths = {}
    for label, rate in (("base", 500.0), ("same", 505.0), ("slow", 400.0)):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(document(rate)))
    same = _run("--compare", str(paths["base"]), str(paths["same"]))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout
    slow = _run("--compare", str(paths["base"]), str(paths["slow"]))
    assert slow.returncode == 1
    assert "worse" in slow.stdout
