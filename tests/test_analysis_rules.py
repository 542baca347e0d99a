"""Per-rule fixture tests: each rule catches its known-bad snippet and
stays silent on its known-good twin (tests/fixtures_analysis/)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import run_analysis  # noqa: E402
from tools.analysis.core import Diagnostic, ModuleInfo  # noqa: E402
from tools.analysis.rules.commit_path import CommitPathRule  # noqa: E402
from tools.analysis.rules.determinism import DeterminismRule  # noqa: E402
from tools.analysis.rules.fault_paths import (  # noqa: E402
    FaultPathRule,
    check_module_tree,
)
from tools.analysis.rules.layering import module_edges  # noqa: E402
from tools.analysis.rules.query_boundary import QueryBoundaryRule  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures_analysis"

#: stand-in for the names parsed out of repro/common/errors.py
SANCTIONED = {"SebdbError", "NetworkError", "ConfigError"}


def _module(fixture: str, relpath: str) -> ModuleInfo:
    source = (FIXTURES / fixture).read_text()
    return ModuleInfo(Path(fixture), relpath, source)


def _run_rule_module(rule, module: ModuleInfo):
    return [
        d for d in rule.check_module(module)
        if not module.suppressed(rule.id, d.line)
    ]


# -- determinism -------------------------------------------------------------

class TestDeterminismRule:
    def test_bad_fixture_is_flagged(self):
        module = _module("determinism_bad.py", "consensus/fixture.py")
        diags = _run_rule_module(DeterminismRule(), module)
        messages = "\n".join(d.message for d in diags)
        assert len(diags) == 4
        assert "wall-clock" in messages
        assert "process-global RNG" in messages
        assert "without a seed" in messages
        assert "iteration over a set" in messages

    def test_good_fixture_is_clean(self):
        module = _module("determinism_good.py", "consensus/fixture.py")
        assert _run_rule_module(DeterminismRule(), module) == []

    def test_set_iteration_only_polices_event_paths(self):
        # the same bad source outside consensus/network/faults loses only
        # its set-iteration diagnostic; clocks and RNGs stay flagged
        module = _module("determinism_bad.py", "query/fixture.py")
        diags = _run_rule_module(DeterminismRule(), module)
        assert len(diags) == 3
        assert not any("iteration over a set" in d.message for d in diags)

    def test_bench_and_clock_are_allowlisted(self):
        rule = DeterminismRule()
        assert not rule.wants(ModuleInfo(Path("x"), "bench/harness.py", ""))
        assert not rule.wants(ModuleInfo(Path("x"), "common/clock.py", ""))
        assert rule.wants(ModuleInfo(Path("x"), "common/config.py", ""))

    def test_from_import_wall_clock_is_flagged(self):
        source = (
            "from time import perf_counter\n"
            "def f():\n"
            "    return perf_counter()\n"
        )
        module = ModuleInfo(Path("f.py"), "node/f.py", source)
        diags = _run_rule_module(DeterminismRule(), module)
        assert len(diags) == 1 and "wall-clock" in diags[0].message

    def test_set_pop_is_flagged_on_event_paths(self):
        source = (
            "def f():\n"
            "    pending = set()\n"
            "    pending.add(1)\n"
            "    return pending.pop()\n"
        )
        module = ModuleInfo(Path("f.py"), "network/f.py", source)
        diags = _run_rule_module(DeterminismRule(), module)
        assert len(diags) == 1 and "set.pop()" in diags[0].message


# -- layering ----------------------------------------------------------------

class TestLayeringRule:
    def test_bad_tree_has_upward_and_cycle(self):
        diags = run_analysis(FIXTURES / "layering_bad", ["layering"])
        messages = "\n".join(d.message for d in diags)
        assert "upward import" in messages
        assert "package import cycle" in messages
        upward = [d for d in diags if "upward import" in d.message]
        assert upward[0].line == 1
        assert "model" in upward[0].message and "node" in upward[0].message

    def test_good_tree_is_clean(self):
        assert run_analysis(FIXTURES / "layering_good", ["layering"]) == []

    def test_reintroducing_model_mht_import_is_caught(self):
        """Reverting the PR's layering fix must make the suite exit 1."""
        source = "from ..mht.merkle import merkle_root_from_leaves\n"
        module = ModuleInfo(
            Path("src/repro/model/block.py"), "model/block.py", source
        )
        edges = module_edges(module)
        assert ("model", "mht") in {(s, t) for s, t, _, _ in edges}
        from tools.analysis import policy
        assert policy.LAYER_OF["mht"] > policy.LAYER_OF["model"]

    def test_ledger_band_rejects_upward_consensus_import(self):
        """The ledger package sits below consensus in the layer DAG."""
        diags = run_analysis(FIXTURES / "layering_ledger_bad", ["layering"])
        upward = [d for d in diags if "upward import" in d.message]
        assert len(upward) == 1
        assert "ledger" in upward[0].message
        assert "consensus" in upward[0].message

    def test_ledger_band_allows_node_and_storage_edges(self):
        """node -> ledger and ledger -> storage are legal downward edges."""
        assert run_analysis(
            FIXTURES / "layering_ledger_good", ["layering"]
        ) == []

    def test_ledger_is_registered_in_the_layer_map(self):
        from tools.analysis import policy
        assert policy.LAYER_OF["ledger"] > policy.LAYER_OF["storage"]
        assert policy.LAYER_OF["ledger"] < policy.LAYER_OF["consensus"]
        assert policy.LAYER_OF["ledger"] < policy.LAYER_OF["node"]

    def test_relative_import_resolution(self):
        source = (
            "from ..common import errors\n"
            "from ..common.errors import SebdbError\n"
            "from . import base\n"
            "import repro.network\n"
        )
        module = ModuleInfo(
            Path("src/repro/consensus/pbft.py"), "consensus/pbft.py", source
        )
        targets = {(s, t) for s, t, _, _ in module_edges(module)}
        assert ("consensus", "common") in targets
        assert ("consensus", "network") in targets
        # ``from . import base`` stays inside the package: no edge
        assert not any(t == "consensus" for _, t in targets)


# -- fault-path --------------------------------------------------------------

class TestFaultPathRule:
    def test_bad_fixture_is_flagged(self):
        module = _module("fault_path_bad.py", "network/fixture.py")
        diags = check_module_tree(module, SANCTIONED, FaultPathRule())
        messages = "\n".join(d.message for d in diags)
        assert len(diags) == 3
        assert "bare except" in messages
        assert "silently swallows" in messages
        assert "raise ValueError" in messages

    def test_good_fixture_is_clean(self):
        module = _module("fault_path_good.py", "network/fixture.py")
        assert check_module_tree(module, SANCTIONED, FaultPathRule()) == []

    def test_scope_excludes_query_layer(self):
        rule = FaultPathRule()
        assert rule.wants(ModuleInfo(Path("x"), "consensus/pbft.py", ""))
        assert rule.wants(ModuleInfo(Path("x"), "client/thin.py", ""))
        assert not rule.wants(ModuleInfo(Path("x"), "query/engine.py", ""))
        assert not rule.wants(ModuleInfo(Path("x"), "faults/checker.py", ""))


class TestBrokerModuleCoverage:
    """The replicated ordering broker sits inside both analysis scopes:
    the consensus layering band and the fault-path exception rules."""

    def test_broker_is_in_fault_path_scope(self):
        rule = FaultPathRule()
        assert rule.wants(ModuleInfo(Path("x"), "consensus/broker.py", ""))

    def test_bad_broker_fixture_is_flagged(self):
        module = _module("broker_fault_path_bad.py", "consensus/broker.py")
        diags = check_module_tree(module, SANCTIONED, FaultPathRule())
        messages = "\n".join(d.message for d in diags)
        assert len(diags) == 4
        assert "bare except" in messages
        assert "silently swallows" in messages
        assert "raise ValueError" in messages
        assert "raise KeyError" in messages

    def test_good_broker_fixture_is_clean(self):
        module = _module("broker_fault_path_good.py", "consensus/broker.py")
        assert check_module_tree(module, SANCTIONED, FaultPathRule()) == []

    def test_real_broker_module_stays_inside_its_band(self):
        """Every import edge of the shipped broker module points at the
        consensus band or a lower one - no upward edges."""
        from tools.analysis import policy

        path = REPO_ROOT / "src" / "repro" / "consensus" / "broker.py"
        module = ModuleInfo(path, "consensus/broker.py", path.read_text())
        edges = module_edges(module)
        assert edges, "broker.py must import through the analysed graph"
        band = policy.LAYER_OF["consensus"]
        for source, target, line, _name in edges:
            assert source == "consensus"
            assert policy.LAYER_OF[target] <= band, (
                f"upward import of {target!r} at broker.py:{line}"
            )


# -- query-boundary ----------------------------------------------------------

class TestQueryBoundaryRule:
    def test_bad_fixture_is_flagged(self):
        module = _module("query_boundary_bad.py", "query/fixture.py")
        diags = _run_rule_module(QueryBoundaryRule(), module)
        messages = "\n".join(d.message for d in diags)
        assert len(diags) == 4
        assert "read_transaction" in messages
        assert "read_block" in messages
        assert "scan_block" in messages
        assert "private BlockStore attribute" in messages

    def test_good_fixture_is_clean(self):
        module = _module("query_boundary_good.py", "query/fixture.py")
        assert _run_rule_module(QueryBoundaryRule(), module) == []

    def test_scope_is_query_only(self):
        rule = QueryBoundaryRule()
        assert rule.wants(ModuleInfo(Path("x"), "query/engine.py", ""))
        assert not rule.wants(ModuleInfo(Path("x"), "storage/scan.py", ""))


# -- commit-path -------------------------------------------------------------

class TestCommitPathRule:
    def test_bad_fixture_is_flagged(self):
        module = _module("commit_path_bad.py", "consensus/fixture.py")
        diags = _run_rule_module(CommitPathRule(), module)
        assert len(diags) == 2
        assert all("append_block" in d.message for d in diags)
        assert all("LedgerPipeline" in d.message for d in diags)

    def test_good_fixture_is_clean(self):
        module = _module("commit_path_good.py", "consensus/fixture.py")
        assert _run_rule_module(CommitPathRule(), module) == []

    def test_ledger_package_is_allowlisted(self):
        rule = CommitPathRule()
        assert not rule.wants(ModuleInfo(Path("x"), "ledger/pipeline.py", ""))
        assert rule.wants(ModuleInfo(Path("x"), "node/fullnode.py", ""))
        assert rule.wants(ModuleInfo(Path("x"), "consensus/kafka.py", ""))

    def test_node_layer_append_is_caught(self):
        """Reverting FullNode to direct appends must make the suite exit 1."""
        source = "def apply(self, block):\n    self.store.append_block(block)\n"
        module = ModuleInfo(
            Path("src/repro/node/fullnode.py"), "node/fullnode.py", source
        )
        diags = _run_rule_module(CommitPathRule(), module)
        assert len(diags) == 1 and diags[0].line == 2


# -- reachability ------------------------------------------------------------

def _findings(tree: str) -> list[tuple[str, int, str]]:
    """(file, line, subject) per finding; subject is the backquoted name."""
    return [
        (Path(d.path).name, d.line, d.message.split("`")[1])
        for d in run_analysis(FIXTURES / tree, ["reachability"])
    ]


class TestReachabilityRule:
    def test_bad_tree_reports_dead_definitions_and_unpassed_parameters(self):
        assert _findings("reachability_bad") == [
            ("engine.py", 2, "limit"),        # super().__init__(size)
            ("engine.py", 8, "depth"),        # cls(1), open_engine(size=3)
            ("engine.py", 8, "mode"),         # nor through **options
            ("engine.py", 8, "verbose"),      # nor via make_engine(2)'s **kwargs
            ("engine.py", 21, "Engine.orphan"),
            ("helpers.py", 1, "reexported"),  # a subpackage re-export only
            ("helpers.py", 5, "traced"),
        ]

    def test_dead_and_unpassed_are_told_apart(self):
        messages = [
            d.message
            for d in run_analysis(FIXTURES / "reachability_bad", ["reachability"])
        ]
        assert sum("is unreachable" in m for m in messages) == 3
        assert sum("no call site passes" in m for m in messages) == 4

    def test_good_twin_reaches_everything(self):
        # a target-list string reaches `traced` and `Engine.orphan`,
        # super().__init__(size, 4) passes `limit`, cls(1, 3) passes
        # `depth`, open_engine(mode=...) forwards `mode` via **options,
        # and the test helper make_engine(2, verbose=True) forwards
        # `verbose` via **kwargs
        assert run_analysis(FIXTURES / "reachability_good", ["reachability"]) == []

    def test_only_an_attribute_keeps_a_method_alive(self):
        # a same-named local no longer stands in for a read of the
        # property; reading it as an attribute does
        assert _findings("reachability_attr_bad") == [
            ("stats.py", 6, "Histogram.bounds"),
        ]
        assert run_analysis(
            FIXTURES / "reachability_attr_good", ["reachability"]
        ) == []

    def test_keep_entry_excuses_a_parameter_and_a_stale_one_is_reported(
        self, monkeypatch
    ):
        from tools.analysis import policy

        monkeypatch.setattr(policy, "REACHABILITY_KEEP_PARAMS", {
            "engine.py::Base.__init__(limit)": "deployment setting",
            "engine.py::Engine.run(speed)": "no such parameter",
        })
        findings = _findings("reachability_bad")
        assert ("engine.py", 2, "limit") not in findings
        stale = [f for f in findings if f[0] == "policy.py"]
        assert len(stale) == 1 and "Engine.run(speed)" in stale[0][2]

    def test_a_tree_without_entry_points_is_not_judged(self, tmp_path):
        module = tmp_path / "src" / "repro" / "node" / "sample.py"
        module.parent.mkdir(parents=True)
        module.write_text("def f(x=1):\n    return x\n")
        assert run_analysis(tmp_path, ["reachability"]) == []
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_sample.py").write_text(
            "from repro.node.sample import f\n\ndef test_f():\n    f()\n"
        )
        assert [d.message.split("`")[1] for d in run_analysis(
            tmp_path, ["reachability"]
        )] == ["x"]


# -- diagnostics -------------------------------------------------------------

def test_diagnostic_rendering():
    diag = Diagnostic("src/repro/x.py", 7, "determinism", "boom")
    assert diag.render() == "src/repro/x.py:7: determinism: boom"
    assert diag.to_json() == {
        "path": "src/repro/x.py", "line": 7,
        "rule": "determinism", "message": "boom",
    }


def test_syntax_errors_become_parse_diagnostics(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "broken.py").write_text("def broken(:\n")
    diags = run_analysis(tmp_path, ["query-boundary"])
    assert len(diags) == 1
    assert diags[0].rule == "parse"
    assert "syntax error" in diags[0].message
