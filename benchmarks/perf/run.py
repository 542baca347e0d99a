#!/usr/bin/env python3
"""The wall-clock benchmark: one command for every mode.

One run (what the benchmark driver invokes; prints a table, then one JSON
object as the last line of standard output)::

    python3 benchmarks/perf/run.py --workload read_mix --seed 1 --seconds 10 --trace 0

The whole suite (every workload, each repetition in its own interpreter,
medians and quartiles, the per-layer waterfall)::

    python3 benchmarks/perf/run.py [--seed N] [--reps R] [--only W] [--smoke] [--out FILE]

Compare two suite outputs against the bounds in BENCHMARK.json::

    python3 benchmarks/perf/run.py --compare before.json after.json

README.md in this directory explains the workloads, the metrics and how
they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("write_signed", "write_pbft", "read_mix", "auth_mixed")
#: --smoke shrinks every size about 20x and every timed phase to a second
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 1
#: the timed phase is measured in slices this long, with the calibration
#: loop between them (a traced run alternates untraced and traced slices)
SLICE_SECONDS = 1.0
#: raw wall a timed phase may take, as a multiple of ``--seconds``
MAX_STRETCH = 1.3

_pc = time.perf_counter


def _program_path() -> None:
    """Make ``repro`` importable, or leave with a non-zero code.

    The benchmark builds nothing: it needs the program's source beside it.
    """
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# -- one run -----------------------------------------------------------------


def run_single(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one fixed hash seed: set and dict-of-str layouts, and so timings,
        # do not vary with the interpreter's random seed
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    _program_path()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    _print_metrics(args.workload, result)
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


def _measure(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    import calib
    import metrics
    import micro
    from trace import Tracer
    from workloads import WORKLOADS, Slice

    cls = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(early_only=True)

    setup_times = []
    workload = None
    for rep in range(cls.setup_reps):
        if workload is not None:
            workload.close()
            shutil.rmtree(workload.workdir)
        rep_dir = workdir / f"setup-{rep}"
        rep_dir.mkdir()
        workload = cls(args.seed, scale, rep_dir, tracer)
        watch = calib.Stopwatch()
        workload.lap = watch.lap
        workload.setup()
        watch.lap()
        setup_times.append(watch.seconds)
    assert workload is not None
    setup_s = statistics.median(setup_times)

    try:
        phase = _timed_phase(workload, float(args.seconds), tracer)
        calib_ms = statistics.mean(phase.watch.samples)
        check = workload.check()
        if tracer is None:
            values = metrics.end_to_end(
                args.workload, setup_s, phase.untraced, check, _peak_rss_mb())
            table = metrics.END_TO_END
        else:
            micro_dir = workdir / "micro"
            micro_dir.mkdir()
            if args.spans:
                tracer.write(args.spans)
            values = metrics.per_layer(
                untraced=phase.untraced, traced=phase.traced, tracer=tracer,
                span_scale=phase.span_scale, timed=phase.counters,
                workload=workload, check=check,
                micro=micro.run_all(micro_dir, calib.Stopwatch().lap),
                calib_ms=calib_ms,
            )
            table = metrics.PER_LAYER
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()

    for note in check.notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)
    timed = Slice()
    timed.add(phase.untraced)
    timed.add(phase.traced)
    failed = timed.failed + check.failed
    line = {
        "correct": failed == 0,
        "attempted": timed.ops + timed.failed + check.attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in table
        },
    }
    return {
        "line": line, "setup_times": setup_times,
        "samples": {kind: len(v) for kind, v in timed.latencies.items()},
        "raw_wall": phase.watch.raw_seconds, "calib_ms": calib_ms,
    }


class _Phase:
    """The timed phase: slices at the reference speed, plus what fed them."""

    def __init__(self) -> None:
        import calib
        from workloads import Slice

        self.untraced = Slice()
        self.traced = Slice()
        self.traced_raw_wall = 0.0
        self.watch = calib.Stopwatch()
        #: public-counter deltas over the untraced slices
        self.counters: dict[str, float] = {}

    @property
    def span_scale(self) -> float:
        """Reference-speed seconds per raw second over the traced slices."""
        return self.traced.wall / self.traced_raw_wall if self.traced_raw_wall else 1.0


def _timed_phase(workload: Any, seconds: float, tracer: Any) -> _Phase:
    """Measure slices until ``seconds`` of reference-speed time are covered.

    The calibration loop runs between slices; each slice's durations are
    scaled by the samples on either side of it.  Ending on reference time
    means a run does the same amount of work whatever the machine's mood,
    so the chain, the heap and ``peak_rss_mb`` grow alike from run to run.
    The raw wall is capped, so a much slower machine cannot stretch a run
    without limit.  With a tracer, slices alternate untraced / traced.
    """
    phase = _Phase()
    watch = phase.watch
    index = 0
    while watch.seconds < seconds and watch.raw_seconds < MAX_STRETCH * seconds:
        # at least four slices, so a one-second smoke run still alternates
        length = min(SLICE_SECONDS, seconds / 4, seconds - watch.seconds)
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.install()
            tracer.enabled = True
        else:
            counters = workload.raw_counters()
        raw = workload.run(length)
        if tracing:
            tracer.enabled = False
            tracer.uninstall(keep_early=True)
        else:
            for key, value in workload.raw_counters().items():
                phase.counters[key] = phase.counters.get(key, 0.0) + value - counters[key]
        if not raw.ops:
            break  # the pre-generated input is used up
        scaled = raw.scaled(watch.lap())
        (phase.traced if tracing else phase.untraced).add(scaled)
        if tracing:
            phase.traced_raw_wall += raw.wall
        index += 1
    return phase


def _peak_rss_mb() -> float:
    # ru_maxrss is kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metrics(workload: str, result: dict[str, Any]) -> None:
    line = result["line"]
    print(f"workload {workload}: attempted {line['attempted']}, "
          f"failed {line['failed']}, correct {line['correct']}")
    print("latency samples: " + ", ".join(
        f"{kind} {count}" for kind, count in sorted(result["samples"].items())))
    print("set-up times (s): " + ", ".join(f"{t:.3f}" for t in result["setup_times"]))
    print(f"timed phase: {result['raw_wall']:.2f} s of wall; calibration loop "
          f"{result['calib_ms']:.3f} ms (timings are scaled to the reference)")
    for name, entry in line["metrics"].items():
        print(f"  {name:<36} {entry['value']:>16.4f} {entry['unit']}")


# -- the suite ---------------------------------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    _program_path()
    import metrics

    manifest = json.loads(MANIFEST.read_text())
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or manifest["run_seconds"])
    reps = 1 if args.smoke else args.reps
    names = [args.only] if args.only else list(WORKLOAD_NAMES)
    document: dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "reps": reps,
        "smoke": bool(args.smoke), "workloads": {},
    }
    ok = True
    for name in names:
        runs = [_spawn(name, args.seed, seconds, 0, args.smoke) for _ in range(reps)]
        traced = _spawn(name, args.seed, seconds, 1, args.smoke)
        ok = ok and all(r["correct"] for r in [*runs, traced])
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {
                m.name: _summary([r["metrics"][m.name]["value"] for r in runs], m.unit)
                for m in metrics.END_TO_END
            },
            "per_layer": {
                m.name: {"value": traced["metrics"][m.name]["value"], "unit": m.unit}
                for m in metrics.PER_LAYER
            },
        }
        document["workloads"][name] = entry
        _print_workload(name, entry)
    if args.smoke:
        _assert_schema(document, manifest)
        print("smoke: schema, metric names and correctness checks hold")
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if ok else 1


def _spawn(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    """One run in a fresh interpreter; returns its JSON line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, timeout=900, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: run printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def _summary(values: list[float], unit: str) -> dict[str, Any]:
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "unit": unit}


def _print_workload(name: str, entry: dict[str, Any]) -> None:
    import metrics

    print(f"\n== {name}: attempted {entry['attempted']}, failed {entry['failed']}")
    print(f"  {'end-to-end metric':<24} {'median':>12} {'q1':>12} {'q3':>12}  unit")
    for metric, s in entry["end_to_end"].items():
        print(f"  {metric:<24} {s['median']:>12.4f} {s['q1']:>12.4f} "
              f"{s['q3']:>12.4f}  {s['unit']}")
    values = {k: v["value"] for k, v in entry["per_layer"].items()}
    print("  waterfall (self time as a share of the traced wall):")
    for layer, share in metrics.waterfall(values):
        if share:
            print(f"    {layer:<14} {share * 100:6.1f} %  {'#' * int(share * 50)}")
    print(f"  {'per-layer metric':<36} {'value':>16}  unit")
    for metric, v in entry["per_layer"].items():
        if not metric.startswith("share.") and v["value"]:
            print(f"  {metric:<36} {v['value']:>16.4f}  {v['unit']}")


def _assert_schema(document: dict[str, Any], manifest: dict[str, Any]) -> None:
    """--smoke: the manifest, the metric tables and the output agree."""
    import metrics

    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in manifest["end_to_end"]]
    assert declared == [tuple(m) for m in metrics.END_TO_END], "end_to_end drifted"
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert declared_layers == [tuple(m[:3]) for m in metrics.PER_LAYER], "per_layer drifted"
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, f"{name}: {entry['failed']} operations failed"
        assert entry["attempted"] >= 1
        for metric, summary in entry["end_to_end"].items():
            assert summary["median"] > 0, f"{name}: {metric} is not positive"


# -- compare -----------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): better / within bound /
    worse / unresolved.  A change counts only when it exceeds both the
    metric's bound and the runs' own spread (quartile distance over median)."""
    manifest = json.loads(MANIFEST.read_text())
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print(f"{'workload':<14} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>8} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            continue
        for name, spec in bounds.items():
            sa, sb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            verdict, change, spread = _verdict(sa, sb, spec["better"], spec["bound"])
            worse += verdict == "worse"
            print(f"{workload:<14} {name:<14} {sa['median']:>12.4f} {sb['median']:>12.4f} "
                  f"{change * 100:>+7.1f}% {spread * 100:>7.1f}% "
                  f"{spec['bound'] * 100:>5.0f}%  {verdict}")
    return 1 if worse else 0


def _verdict(sa: dict[str, Any], sb: dict[str, Any], better: str,
             bound: float) -> tuple[str, float, float]:
    """(verdict, relative change in the worsening direction, spread)."""
    base = sa["median"]
    change = (sb["median"] - base) / base if base else 0.0
    if better == "higher":
        change = -change
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (sa, sb))
    if change > bound:
        return ("worse" if change > spread else "unresolved"), change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change < -spread:
        return "better", change, spread
    return "within bound", change, spread


# -- command line ------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run this one workload once and print its JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload ~20x and assert the schema")
    parser.add_argument("--reps", type=int, default=5,
                        help="suite: untraced repetitions per workload (at least 3; "
                             "with fewer than 5 one outlier sets a quartile)")
    parser.add_argument("--only", choices=WORKLOAD_NAMES,
                        help="suite: restrict to one workload")
    parser.add_argument("--out", help="suite: write the aggregated JSON here")
    parser.add_argument("--spans", help="traced run: dump every span as JSON lines")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            args.seconds = (SMOKE_SECONDS if args.smoke
                            else json.loads(MANIFEST.read_text())["run_seconds"])
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
