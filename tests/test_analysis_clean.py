"""The static-analysis suite gates the tree: zero diagnostics, forever.

If a test here fails, either new code broke the determinism / layering /
fault-path / query-boundary / commit-path / concurrency / lifecycle /
reachability contract, or a shipped fix regressed.  Run ``python -m tools.analysis``
locally for the same diagnostics CI shows.
"""

import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import REGISTRY, run_analysis  # noqa: E402
from tools.analysis.cli import main as cli_main  # noqa: E402
from tools.analysis.core import ModuleInfo  # noqa: E402
from tools.analysis.rules.determinism import DeterminismRule  # noqa: E402

EXPECTED_RULES = {
    "determinism", "layering", "fault-path", "query-boundary", "commit-path",
    "concurrency", "lifecycle", "reachability",
}


def test_all_rules_are_registered():
    import tools.analysis.rules  # noqa: F401

    assert EXPECTED_RULES <= set(REGISTRY)


def test_repo_is_clean_under_every_rule():
    assert run_analysis(REPO_ROOT) == []


def test_cli_exits_zero_and_reports_clean(capsys):
    assert cli_main([str(REPO_ROOT)]) == 0
    assert "analysis clean" in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert cli_main(["--format", "json", str(REPO_ROOT)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 0
    assert payload["diagnostics"] == []
    assert set(payload["rules"]) == set(REGISTRY)


def test_cli_rejects_unknown_rule(capsys):
    assert cli_main(["--rule", "no-such-rule", str(REPO_ROOT)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_rejects_non_repo_root(tmp_path, capsys):
    assert cli_main([str(tmp_path)]) == 2
    assert "repo root" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


def test_single_rule_selection_runs_clean():
    assert run_analysis(REPO_ROOT, ["determinism"]) == []


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        run_analysis(REPO_ROOT, ["nope"])


def test_physical_py_suppressions_are_load_bearing():
    """Deleting the wall_ms suppressions must resurface diagnostics.

    This pins the acceptance criterion directly: the annotated
    ``time.perf_counter()`` calls in query/physical.py are real
    violations held back only by their ``# sebdb: allow[determinism]``
    comments.
    """
    path = REPO_ROOT / "src" / "repro" / "query" / "physical.py"
    source = path.read_text()
    assert "sebdb: allow[determinism]" in source
    stripped = re.sub(r"#\s*sebdb:\s*allow\[[^\]]*\][^\n]*", "", source)
    module = ModuleInfo(Path("src/repro/query/physical.py"),
                        "query/physical.py", stripped)
    assert module.syntax_error is None
    diags = [d for d in DeterminismRule().check_module(module)
             if not module.suppressed("determinism", d.line)]
    assert len(diags) >= 3
    assert all("wall-clock" in d.message for d in diags)


def test_suppression_comment_silences_a_violation():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # sebdb: allow[determinism] justified\n"
    )
    module = ModuleInfo(Path("fake.py"), "node/fake.py", source)
    diags = [d for d in DeterminismRule().check_module(module)
             if not module.suppressed("determinism", d.line)]
    assert diags == []


def test_star_suppression_silences_every_rule():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # sebdb: allow[*] measured on purpose\n"
    )
    module = ModuleInfo(Path("fake.py"), "node/fake.py", source)
    diags = [d for d in DeterminismRule().check_module(module)
             if not module.suppressed("determinism", d.line)]
    assert diags == []


def test_wrong_rule_suppression_does_not_silence():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # sebdb: allow[layering]\n"
    )
    module = ModuleInfo(Path("fake.py"), "node/fake.py", source)
    diags = [d for d in DeterminismRule().check_module(module)
             if not module.suppressed("determinism", d.line)]
    assert len(diags) == 1


# -- suppression lifecycle: stale allowances are themselves diagnostics ------


def _mini_repo(tmp_path, source, relpath="node/sample.py"):
    """A throwaway repo root holding one module under src/repro."""
    path = tmp_path / "src" / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return tmp_path


def test_stale_suppression_is_reported_as_lost_load_bearing(tmp_path):
    root = _mini_repo(tmp_path, (
        "def f():\n"
        "    return 1  # sebdb: allow[determinism] excuse outlived the bug\n"
    ))
    diags = run_analysis(root)
    assert [d.rule for d in diags] == ["unused-suppression"]
    assert diags[0].line == 2
    assert "no longer matches" in diags[0].message


def test_multi_rule_suppression_stays_valid_while_one_rule_fires(tmp_path):
    # allow[determinism,layering]: layering never fires here, but the
    # determinism hit it absorbs keeps the whole comment load-bearing
    root = _mini_repo(tmp_path, (
        "import time\n"
        "def f():\n"
        "    return time.time()  # sebdb: allow[determinism,layering]\n"
    ))
    assert run_analysis(root) == []


def test_unused_star_suppression_is_reported_on_full_runs(tmp_path):
    root = _mini_repo(tmp_path, (
        "def f():\n"
        "    return 1  # sebdb: allow[*]\n"
    ))
    diags = run_analysis(root)
    assert [d.rule for d in diags] == ["unused-suppression"]
    assert "allow[*]" in diags[0].message


def test_unused_star_suppression_is_not_judged_on_partial_runs(tmp_path):
    # a partial run cannot prove allow[*] dead: some unexecuted rule
    # might still be absorbing a hit on that line
    root = _mini_repo(tmp_path, (
        "def f():\n"
        "    return 1  # sebdb: allow[*]\n"
    ))
    assert run_analysis(root, ["determinism"]) == []


def test_suppression_for_unexecuted_rule_is_not_judged(tmp_path):
    root = _mini_repo(tmp_path, (
        "def f():\n"
        "    return 1  # sebdb: allow[layering]\n"
    ))
    assert run_analysis(root, ["determinism"]) == []
    # ...but the full run does judge it
    assert [d.rule for d in run_analysis(root)] == ["unused-suppression"]


# -- CLI: rule filtering, GitHub annotations, the ratchet --------------------


def test_cli_comma_separated_rule_filter(capsys):
    assert cli_main([
        "--rule", "determinism,layering", "--format", "json", str(REPO_ROOT),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["determinism", "layering"]
    assert payload["count"] == 0


def test_cli_repeated_rule_flags_accumulate(capsys):
    assert cli_main([
        "--rule", "determinism", "--rule", "layering",
        "--format", "json", str(REPO_ROOT),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["determinism", "layering"]


def test_cli_github_format_clean_repo(capsys):
    assert cli_main(["--format", "github", str(REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "::error" not in out
    assert "analysis clean" in out


def test_cli_github_format_emits_annotations(tmp_path, capsys):
    root = _mini_repo(tmp_path, (
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    ))
    assert cli_main(["--format", "github", str(root)]) == 1
    out = capsys.readouterr().out
    match = re.search(
        r"::error file=(?P<file>[^,]+),line=(?P<line>\d+),"
        r"title=sebdb-analysis determinism::", out)
    assert match, out
    assert match.group("file") == "src/repro/node/sample.py"
    assert match.group("line") == "3"


def test_cli_github_format_escapes_newlines(tmp_path, capsys):
    # annotation payloads are single-line by protocol; multi-line
    # messages must arrive %0A-escaped, not as raw newlines
    root = _mini_repo(tmp_path, (
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    ))
    cli_main(["--format", "github", str(root)])
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("::error"):
            assert "\n" not in line  # tautological but documents intent
            assert "%" not in line or re.search(r"%(25|0A|0D)", line)


def test_ratchet_passes_against_checked_in_baseline(capsys):
    assert cli_main(["--ratchet", str(REPO_ROOT)]) == 0
    assert "ratchet ok" in capsys.readouterr().out


def test_ratchet_baseline_file_matches_strict_run():
    """The checked-in baseline must stay in sync with reality: a drive-by
    edit that adds a strict-mode diagnostic without refreshing the file
    fails CI, and an improvement should be locked in."""
    from tools.analysis.cli import BASELINE_RELPATH, _strict_counts

    recorded = json.loads((REPO_ROOT / BASELINE_RELPATH).read_text())
    assert recorded["counts"] == _strict_counts(REPO_ROOT)


def test_ratchet_fails_on_new_diagnostic(tmp_path, capsys):
    root = _mini_repo(tmp_path, "def f():\n    return 1\n")
    baseline = tmp_path / "baseline.json"
    assert cli_main([
        "--write-baseline", "--baseline", str(baseline), str(root),
    ]) == 0
    capsys.readouterr()
    # regress: introduce a wall-clock read in an allowlisted-free path
    (root / "src" / "repro" / "node" / "sample.py").write_text(
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    assert cli_main(["--ratchet", "--baseline", str(baseline), str(root)]) == 1
    out = capsys.readouterr().out
    assert "ratchet FAILED" in out
    assert "node/sample.py" in out


def test_ratchet_counts_allowlisted_paths(tmp_path, capsys):
    """The whole point of strict mode: a new diagnostic inside a path the
    normal gate excludes (bench/ is excluded by determinism) still trips
    the ratchet."""
    root = _mini_repo(tmp_path, "def f():\n    return 1\n")
    baseline = tmp_path / "baseline.json"
    cli_main(["--write-baseline", "--baseline", str(baseline), str(root)])
    capsys.readouterr()
    bench = root / "src" / "repro" / "bench" / "probe.py"
    bench.parent.mkdir(parents=True, exist_ok=True)
    bench.write_text(
        "import time\n"
        "def probe():\n"
        "    return time.time()\n"
    )
    # the normal gate stays clean...
    assert run_analysis(root) == []
    # ...but the ratchet catches it
    assert cli_main(["--ratchet", "--baseline", str(baseline), str(root)]) == 1
    assert "bench/probe.py" in capsys.readouterr().out


def test_ratchet_missing_baseline_is_a_usage_error(tmp_path, capsys):
    root = _mini_repo(tmp_path, "def f():\n    return 1\n")
    assert cli_main([
        "--ratchet", "--baseline", str(tmp_path / "missing.json"), str(root),
    ]) == 2
    assert "no ratchet baseline" in capsys.readouterr().err
