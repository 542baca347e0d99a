"""Rule ``lifecycle``: every thread-owning resource has a shutdown path.

PR 8 fixed a leaked ``sebdb-ledger`` worker thread by hand: a
``FullNode.crash()`` tore down the node without shutting the ledger's
executor, and the orphaned pool kept the process alive.  That pool is
gone (``src/repro`` constructs no pooled resource today); this rule
keeps the review finding as a machine-checked invariant over the
whole-program call graph for the next one:

* a pooled resource (``ThreadPoolExecutor``, ``ProcessPoolExecutor``,
  ``threading.Thread``) constructed and stored on ``self`` must be
  releasable: the owning class needs a teardown entry point
  (``close``/``shutdown``/``stop``/``__exit__``/``__del__``/``crash``)
  from which a release call on that attribute - directly
  (``self._executor.shutdown()``) or through a local alias
  (``ex = self._executor; ex.shutdown()``) - is reachable on the call
  graph;
* a resource bound to a local name must be released in the same
  function, handed off (returned, stored, passed along - ownership
  transfers), or opened as a context manager;
* a construction that is neither bound nor a context manager nor
  returned has no handle to release it and is flagged outright.

Storage segment files are out of scope on purpose: ``SegmentStore``
opens files in ``with`` blocks only and holds no persistent handles,
so there is nothing to leak (checked when this rule shipped; add the
class to :data:`tools.analysis.policy.POOLED_RESOURCE_CLASSES`-style
tables if that ever changes).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .. import policy
from ..callgraph import ClassInfo, FunctionInfo, own_scope_nodes
from ..core import Diagnostic, ModuleInfo, Project, Rule, register


def _short(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


def _is_release_call(node: ast.AST) -> Optional[ast.Attribute]:
    """``<recv>.shutdown(...)`` and friends -> the receiver expression."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in policy.RELEASE_METHOD_NAMES
    ):
        return node.func
    return None


@register
class LifecycleRule(Rule):
    id = "lifecycle"
    description = (
        "every constructed executor/thread is reachable from a "
        "close()/shutdown() teardown path"
    )
    scope = policy.LIFECYCLE_SCOPE

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project.graph
        table = graph.table
        for module in project.modules:
            if module.tree is None or not self.wants(module):
                continue
            for fn in table.functions_in(module.relpath):
                yield from self._check_function(module, fn, graph)

    def _check_function(
        self, module: ModuleInfo, fn: FunctionInfo, graph
    ) -> Iterator[Diagnostic]:
        pooled: Dict[int, Tuple[ast.Call, str]] = {}
        for node in own_scope_nodes(fn.node):
            if isinstance(node, ast.Call):
                external = graph.resolve_external(fn, node.func)
                if external in policy.POOLED_RESOURCE_CLASSES:
                    pooled[id(node)] = (node, external)
        if not pooled:
            return
        handled: Set[int] = set()
        for node in own_scope_nodes(fn.node):
            if isinstance(node, ast.Assign) and id(node.value) in pooled:
                call, external = pooled[id(node.value)]
                if len(node.targets) == 1:
                    target = node.targets[0]
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and fn.cls is not None
                    ):
                        handled.add(id(call))
                        yield from self._check_self_attr(
                            module, fn, graph, call, external, target.attr
                        )
                    elif isinstance(target, ast.Name):
                        handled.add(id(call))
                        yield from self._check_local(
                            module, fn, call, external, target.id
                        )
                    else:
                        # stored into a container/attr chain: ownership
                        # handed off; the holder is checked at its site
                        handled.add(id(call))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if id(node.value) in pooled and isinstance(node.target, ast.Name):
                    call, external = pooled[id(node.value)]
                    handled.add(id(call))
                    yield from self._check_local(
                        module, fn, call, external, node.target.id
                    )
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if id(item.context_expr) in pooled:
                        handled.add(id(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                if id(node.value) in pooled:
                    handled.add(id(node.value))
        for call, external in pooled.values():
            if id(call) not in handled:
                yield self.diag(
                    module, call.lineno,
                    f"{_short(external)} constructed but never bound to a "
                    f"releasable name, used as a context manager, or "
                    f"returned - nothing can ever shut it down",
                )

    # -- self-attribute resources -----------------------------------------

    def _check_self_attr(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        graph,
        call: ast.Call,
        external: str,
        attr: str,
    ) -> Iterator[Diagnostic]:
        cls = fn.cls
        assert cls is not None
        table = graph.table
        entries = [
            qual
            for qual in (
                table.resolve_method(cls, name)
                for name in sorted(policy.RELEASE_ENTRY_METHODS)
            )
            if qual is not None
        ]
        if not entries:
            yield self.diag(
                module, call.lineno,
                f"self.{attr} = {_short(external)}(...) but {cls.name} has "
                f"no teardown entry point "
                f"({'/'.join(sorted(policy.RELEASE_ENTRY_METHODS))}); the "
                f"pool leaks its threads when the object is dropped",
            )
            return
        for qual in graph.reachable(entries):
            callee = table.functions.get(qual)
            if callee is not None and self._releases_attr(callee, attr):
                return
        yield self.diag(
            module, call.lineno,
            f"self.{attr} = {_short(external)}(...) is never released: no "
            f"{attr}.shutdown()/close()/join() site is reachable from "
            f"{cls.name}'s teardown methods "
            f"({', '.join(sorted(q.split('::', 1)[1] for q in entries))})",
        )

    @staticmethod
    def _releases_attr(fn: FunctionInfo, attr: str) -> bool:
        """Does ``fn`` release ``<something>.attr`` directly or via alias?"""
        aliases: Set[str] = set()
        for node in own_scope_nodes(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == attr
            ):
                aliases.add(node.targets[0].id)
        for node in own_scope_nodes(fn.node):
            receiver = _is_release_call(node)
            if receiver is None:
                continue
            value = receiver.value
            if isinstance(value, ast.Attribute) and value.attr == attr:
                return True
            if isinstance(value, ast.Name) and value.id in aliases:
                return True
        return False

    # -- locally-bound resources ------------------------------------------

    def _check_local(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        call: ast.Call,
        external: str,
        name: str,
    ) -> Iterator[Diagnostic]:
        escaped = False
        for node in own_scope_nodes(fn.node):
            receiver = _is_release_call(node)
            if (
                receiver is not None
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == name
            ):
                return
            if isinstance(node, ast.Return) and self._mentions(node.value, name):
                escaped = True
            elif isinstance(node, ast.Assign) and self._mentions(node.value, name):
                if not (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == name
                ):
                    escaped = True
            elif isinstance(node, ast.Call):
                arg_exprs = list(node.args) + [k.value for k in node.keywords]
                if any(self._mentions(arg, name) for arg in arg_exprs):
                    escaped = True
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id == name
                    for item in node.items
                ):
                    return
        if not escaped:
            yield self.diag(
                module, call.lineno,
                f"local {name!r} holds a {_short(external)} that is neither "
                f"released in this function nor handed off; its worker "
                f"threads outlive the call",
            )

    @staticmethod
    def _mentions(expr: Optional[ast.expr], name: str) -> bool:
        if expr is None:
            return False
        return any(
            isinstance(node, ast.Name) and node.id == name
            for node in ast.walk(expr)
        )
