"""Whole-program analysis tests: the symbol table / call graph builder,
and the three rules built on it (concurrency, lifecycle, interprocedural
determinism escalation).

The builder units run on synthetic mini-trees written to ``tmp_path``;
the rule tests run on the checked-in fixture trees under
``tests/fixtures_analysis/`` and on the real repo (pinning that
``src/repro`` spawns no worker and constructs no pooled resource).
"""

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import policy, run_analysis  # noqa: E402
from tools.analysis.callgraph import own_scope_nodes  # noqa: E402
from tools.analysis.core import Project  # noqa: E402
from tools.analysis.rules.concurrency import ConcurrencyRule  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures_analysis"


def _project(tmp_path: Path, files: dict) -> Project:
    """Write ``relpath-under-repro -> source`` files and load a Project."""
    for relpath, source in files.items():
        path = tmp_path / "src" / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return Project.load(tmp_path)


# -- symbol table / call graph builder ---------------------------------------


class TestCallGraphBuilder:
    def test_module_function_call_edge(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": "def helper():\n    return 1\n"
                         "def caller():\n    return helper()\n",
        })
        graph = project.graph
        edges = graph.callees("node/a.py::caller")
        assert [e.callee for e in edges] == ["node/a.py::helper"]

    def test_self_method_resolution(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "class C:\n"
                "    def entry(self):\n"
                "        return self.step()\n"
                "    def step(self):\n"
                "        return 1\n"
            ),
        })
        callees = [e.callee for e in project.graph.callees("node/a.py::C.entry")]
        assert "node/a.py::C.step" in callees

    def test_method_resolved_through_base_class(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "class Base:\n"
                "    def step(self):\n"
                "        return 1\n"
                "class C(Base):\n"
                "    def entry(self):\n"
                "        return self.step()\n"
            ),
        })
        callees = [e.callee for e in project.graph.callees("node/a.py::C.entry")]
        assert "node/a.py::Base.step" in callees

    def test_cross_module_from_import(self, tmp_path):
        project = _project(tmp_path, {
            "common/util.py": "def helper():\n    return 1\n",
            "node/a.py": "from ..common.util import helper\n"
                         "def caller():\n    return helper()\n",
        })
        callees = [e.callee for e in project.graph.callees("node/a.py::caller")]
        assert "common/util.py::helper" in callees

    def test_attribute_call_via_inferred_self_attr_type(self, tmp_path):
        project = _project(tmp_path, {
            "common/log.py": (
                "class Log:\n"
                "    def begin(self):\n"
                "        return 1\n"
            ),
            "node/a.py": (
                "from ..common.log import Log\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self.log = Log()\n"
                "    def run(self):\n"
                "        return self.log.begin()\n"
            ),
        })
        callees = [e.callee for e in project.graph.callees("node/a.py::C.run")]
        assert "common/log.py::Log.begin" in callees

    def test_callable_passed_as_argument_becomes_ref_edge(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "def work(x):\n    return x\n"
                "def dispatch(pool):\n"
                "    pool.map(work, [1, 2])\n"
            ),
        })
        edges = project.graph.callees("node/a.py::dispatch")
        refs = [e for e in edges if e.kind == "ref"]
        assert [e.callee for e in refs] == ["node/a.py::work"]

    def test_nested_function_and_closure_resolution(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "def outer():\n"
                "    def inner():\n"
                "        return 1\n"
                "    def mid():\n"
                "        return inner()\n"
                "    return mid()\n"
            ),
        })
        graph = project.graph
        assert "node/a.py::outer.<locals>.inner" in graph.table.functions
        mid_callees = [
            e.callee for e in graph.callees("node/a.py::outer.<locals>.mid")
        ]
        # ``inner`` is resolved through the lexically enclosing scope
        assert "node/a.py::outer.<locals>.inner" in mid_callees

    def test_lambda_bound_to_name_is_a_symbol_with_edges(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "def helper():\n    return 1\n"
                "def run():\n"
                "    fn = lambda: helper()\n"
                "    return fn()\n"
            ),
        })
        graph = project.graph
        run_callees = [e.callee for e in graph.callees("node/a.py::run")]
        lambda_qual = [q for q in run_callees if "<lambda@" in q]
        assert lambda_qual, run_callees
        inner = [e.callee for e in graph.callees(lambda_qual[0])]
        assert "node/a.py::helper" in inner

    def test_nested_same_line_lambdas_do_not_collide(self, tmp_path):
        # regression: identical line markers used to make a lambda its
        # own parent and hang the closure walk
        project = _project(tmp_path, {
            "node/a.py": "f = lambda x: (lambda y: y)(x)\n",
        })
        markers = [
            f.name for f in project.graph.table.functions.values()
            if f.name.startswith("<lambda@")
        ]
        assert len(markers) == 2 and len(set(markers)) == 2

    def test_decorated_function_still_resolves(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "import functools\n"
                "def wrap(fn):\n"
                "    return fn\n"
                "@wrap\n"
                "@functools.lru_cache(maxsize=None)\n"
                "def helper():\n    return 1\n"
                "def caller():\n    return helper()\n"
            ),
        })
        callees = [e.callee for e in project.graph.callees("node/a.py::caller")]
        assert "node/a.py::helper" in callees

    def test_property_access_creates_edge(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "class C:\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 1\n"
                "    def run(self):\n"
                "        return self.size + 1\n"
            ),
        })
        edges = project.graph.callees("node/a.py::C.run")
        assert any(
            e.callee == "node/a.py::C.size" and e.kind == "prop" for e in edges
        )

    def test_reachable_is_transitive(self, tmp_path):
        project = _project(tmp_path, {
            "node/a.py": (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return 1\n"
                "def unrelated():\n    return 2\n"
            ),
        })
        reached = project.graph.reachable(["node/a.py::a"])
        assert {"node/a.py::a", "node/a.py::b", "node/a.py::c"} <= reached
        assert "node/a.py::unrelated" not in reached

    def test_tools_tree_is_indexed(self):
        project = Project.load(REPO_ROOT)
        assert "tools/analysis/core.py::Project.load" in project.graph.table.functions


class TestRealTreeGraph:
    """The graph on the actual repo: the edges the rules depend on."""

    def test_src_tree_has_no_worker_and_no_pool(self):
        """The write path is one thread: across all of ``src/repro`` the
        concurrency rule's spawn-site discovery finds no worker entry
        point and no ``POOLED_RESOURCE_CLASSES`` member is constructed,
        so neither rule has a subject until someone adds a thread."""
        project = Project.load(REPO_ROOT)
        graph = project.graph
        rule = ConcurrencyRule()
        entries, pooled = set(), []
        for module in project.modules:
            if module.tree is None or module.tree_label != "src":
                continue
            for fn in graph.table.functions_in(module.relpath):
                entries.update(q for q, _ in rule._spawn_targets(graph, fn))
                pooled += [
                    (module.relpath, node.lineno)
                    for node in own_scope_nodes(fn.node)
                    if isinstance(node, ast.Call)
                    and graph.resolve_external(fn, node.func)
                    in policy.POOLED_RESOURCE_CLASSES
                ]
        assert entries == set()
        assert pooled == []

    def test_verify_span_is_worker_reachable(self):
        graph = Project.load(REPO_ROOT).graph
        reached = graph.reachable(["crypto/batch.py::verify_batch"])
        assert "crypto/batch.py::_verify_span" in reached


# -- concurrency rule --------------------------------------------------------


class TestConcurrencyRule:
    def test_two_hop_shared_write_is_caught(self):
        diags = run_analysis(FIXTURES / "concurrency_bad", ["concurrency"])
        assert len(diags) == 1
        diag = diags[0]
        assert diag.rule == "concurrency"
        assert diag.path == "src/repro/ledger/worker.py"
        assert "self.committed" in diag.message
        # the message names the full chain from the worker entry point
        assert "Pipeline._work -> Pipeline._bump" in diag.message

    def test_good_twin_is_clean(self):
        assert run_analysis(FIXTURES / "concurrency_good", ["concurrency"]) == []


# -- lifecycle rule ----------------------------------------------------------


class TestLifecycleRule:
    def test_executor_without_shutdown_path_is_caught(self):
        diags = run_analysis(FIXTURES / "lifecycle_bad", ["lifecycle"])
        assert len(diags) == 1
        diag = diags[0]
        assert diag.rule == "lifecycle"
        assert diag.path == "src/repro/node/pool.py"
        assert "no teardown entry point" in diag.message

    def test_good_twin_is_clean(self):
        assert run_analysis(FIXTURES / "lifecycle_good", ["lifecycle"]) == []


# -- interprocedural determinism ---------------------------------------------


class TestInterproceduralDeterminism:
    def test_wall_clock_through_excluded_helper_is_reported_at_caller(self):
        diags = run_analysis(FIXTURES / "interproc_bad", ["determinism"])
        assert len(diags) == 1
        diag = diags[0]
        assert diag.path == "src/repro/node/caller.py"
        # reported at the in-scope call site, chain in the message
        assert "measure() -> tick()" in diag.message
        assert "perf_counter" in diag.message

    def test_sanctioned_clock_sink_does_not_taint(self):
        assert run_analysis(FIXTURES / "interproc_good", ["determinism"]) == []
