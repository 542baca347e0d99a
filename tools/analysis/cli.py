"""Command line for the analysis suite (also the ``repro-lint`` script).

Exit status: 0 clean, 1 when any diagnostic fired (or the ratchet
regressed), 2 on usage errors.

Two CI-facing modes beyond plain text/json:

* ``--format github`` emits GitHub workflow annotations
  (``::error file=...,line=...::message``) so findings attach to the
  exact lines of a PR diff;
* ``--ratchet`` compares a *strict* run (per-rule ``excludes``
  ignored, so allowlisted paths are counted too) against the checked-in
  ``tools/analysis/baseline.json`` and fails on any new diagnostic -
  even inside a path the normal gate never inspects.  After an honest
  improvement, refresh the file with ``--write-baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .core import REGISTRY, Diagnostic, run_analysis

#: repo root inferred from this file's location (tools/analysis/cli.py)
DEFAULT_ROOT = Path(__file__).resolve().parents[2]

#: ratchet baseline, relative to the analyzed root
BASELINE_RELPATH = Path("tools") / "analysis" / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="SEBDB static analysis: determinism, layering, "
        "fault-path discipline, query boundaries, call-graph concurrency "
        "and lifecycle checks, and reachability (dead code, unpassed "
        "defaults).",
    )
    parser.add_argument(
        "root", nargs="?", type=Path, default=DEFAULT_ROOT,
        help="repository root (default: this checkout)",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE[,RULE...]",
        help="run only these rules (repeatable and/or comma-separated); "
        "default: all",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="diagnostic output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "--ratchet", action="store_true",
        help="strict-mode diagnostics-count ratchet: fail on any "
        "diagnostic not in the checked-in baseline (ignores --rule)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the ratchet baseline from a strict run and exit",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help=f"ratchet baseline path (default: <root>/{BASELINE_RELPATH})",
    )
    return parser


def _selected_rules(specs: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Expand repeatable/comma-separated ``--rule`` into an ordered list."""
    if not specs:
        return None
    out: List[str] = []
    for spec in specs:
        for rule_id in spec.split(","):
            rule_id = rule_id.strip()
            if rule_id and rule_id not in out:
                out.append(rule_id)
    return out or None


def _github_escape(text: str) -> str:
    """GitHub annotation payloads are %-encoded for newlines and %."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _print_github(diagnostics: Sequence[Diagnostic]) -> None:
    for diagnostic in diagnostics:
        print(
            f"::error file={diagnostic.path},line={diagnostic.line},"
            f"title=sebdb-analysis {diagnostic.rule}::"
            f"{_github_escape(diagnostic.message)}"
        )
    print(
        f"{len(diagnostics)} diagnostic(s)" if diagnostics else "analysis clean"
    )


# -- the diagnostics-count ratchet -------------------------------------------


def _strict_counts(root: Path) -> Dict[str, Dict[str, int]]:
    """path -> rule -> count, from a strict all-rules run."""
    counts: Dict[str, Dict[str, int]] = {}
    for diagnostic in run_analysis(root, None, strict=True):
        per_path = counts.setdefault(diagnostic.path, {})
        per_path[diagnostic.rule] = per_path.get(diagnostic.rule, 0) + 1
    return counts


def _write_baseline(root: Path, baseline_path: Path) -> int:
    counts = _strict_counts(root)
    payload = {
        "comment": (
            "Diagnostics-count ratchet for `python -m tools.analysis "
            "--ratchet`: strict-mode counts (per-rule excludes ignored) "
            "keyed by path then rule.  CI fails on any diagnostic above "
            "these counts - including inside allowlisted paths.  Refresh "
            "with --write-baseline after an honest improvement."
        ),
        "counts": {
            path: dict(sorted(counts[path].items()))
            for path in sorted(counts)
        },
        "total": sum(sum(c.values()) for c in counts.values()),
    }
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written: {baseline_path} ({payload['total']} "
          f"diagnostic(s) across {len(counts)} file(s))")
    return 0


def _run_ratchet(root: Path, baseline_path: Path) -> int:
    if not baseline_path.is_file():
        print(
            f"error: no ratchet baseline at {baseline_path}; create one "
            f"with --write-baseline",
            file=sys.stderr,
        )
        return 2
    baseline: Dict[str, Dict[str, int]] = json.loads(
        baseline_path.read_text()
    ).get("counts", {})
    current = _strict_counts(root)
    regressions: List[str] = []
    improvements: List[str] = []
    for path in sorted(set(baseline) | set(current)):
        base_rules = baseline.get(path, {})
        cur_rules = current.get(path, {})
        for rule in sorted(set(base_rules) | set(cur_rules)):
            base_n = base_rules.get(rule, 0)
            cur_n = cur_rules.get(rule, 0)
            if cur_n > base_n:
                regressions.append(
                    f"{path}: {rule}: {base_n} -> {cur_n} diagnostic(s)"
                )
            elif cur_n < base_n:
                improvements.append(
                    f"{path}: {rule}: {base_n} -> {cur_n} diagnostic(s)"
                )
    for line in improvements:
        print(f"improved: {line}")
    if improvements and not regressions:
        print("counts dropped - refresh the baseline with --write-baseline "
              "to lock the improvement in")
    if regressions:
        for line in regressions:
            print(f"::error title=sebdb-analysis ratchet::{_github_escape(line)}")
        print(f"ratchet FAILED: {len(regressions)} count(s) above baseline")
        return 1
    print("ratchet ok: no diagnostic above baseline")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from . import rules as _rules  # noqa: F401  (populate REGISTRY)

    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            print(f"{rule_id}: {REGISTRY[rule_id].description}")
        return 0
    if not (args.root / "src" / "repro").is_dir():
        print(f"error: {args.root} does not look like the repo root "
              f"(no src/repro)", file=sys.stderr)
        return 2
    baseline_path = args.baseline or (args.root / BASELINE_RELPATH)
    if args.write_baseline:
        return _write_baseline(args.root, baseline_path)
    if args.ratchet:
        return _run_ratchet(args.root, baseline_path)
    selected = _selected_rules(args.rules)
    try:
        diagnostics = run_analysis(args.root, selected)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(
            {
                "root": str(args.root),
                "rules": sorted(selected or REGISTRY),
                "count": len(diagnostics),
                "diagnostics": [d.to_json() for d in diagnostics],
            },
            indent=2,
        ))
    elif args.format == "github":
        _print_github(diagnostics)
    else:
        for diagnostic in diagnostics:
            print(diagnostic.render())
        if diagnostics:
            print(f"{len(diagnostics)} diagnostic(s)")
        else:
            print("analysis clean")
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
