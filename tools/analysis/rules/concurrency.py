"""Rule ``concurrency``: no unguarded shared-state writes off a worker.

``src/repro`` is single-threaded today (the PR 7 ledger worker pool
measured slower than the serial path and was deleted); this rule is what
stops the next thread from landing without a lock.  Python's GIL keeps
single bytecodes atomic, but read-modify-write sequences
(``self.counter += 1``) and multi-field updates interleave freely - the
classic lost-update bug, and one that only bites under load.

This rule makes the safe pattern machine-checked:

1. find every *worker spawn site* in the concurrency scope
   (``ledger``/``shard``/``node``): callables handed to
   ``Executor.submit``/``Executor.map``, and
   ``threading.Thread(target=...)``;
2. compute the transitive call set reachable from those entry points
   over the whole-program call graph (so a helper two hops away is
   just as suspect as the entry itself);
3. inside every reachable function, flag writes to state a worker may
   share with other workers or the coordinating thread: ``self.*``
   attribute stores, mutations of *parameter* attributes (the object
   was handed in from the spawning thread), and module-global writes.

A write is exempt when it happens under a ``with <...lock...>:`` guard
(any receiver whose name contains "lock"), when it is a ``self.*``
store inside ``__init__``/``__new__`` (the object under construction
is unshared until published), when its function is listed in
:data:`tools.analysis.policy.CONCURRENCY_ALLOWED_WRITERS`, or when the
line carries a reviewed ``sebdb: allow[...]`` suppression.  The last
is the right tool for provably task-local objects the analyzer cannot
see are unshared (e.g. a per-chunk result accumulator created by the
worker itself).

Resolution limits: writes through containers (``d[k] = v``) and
mutating method calls (``lst.append``) are not flagged - receiver
aliasing makes them noise-prone; the rule goes after the
read-modify-write attribute stores where lost updates actually
happened in this codebase.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .. import policy
from ..callgraph import FunctionInfo, own_scope_nodes
from ..core import Diagnostic, ModuleInfo, Project, Rule, register

#: scope-opening nodes never descended into while scanning one function
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _lock_like(expr: ast.expr) -> bool:
    """Does a ``with`` item look like a lock acquisition?"""
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = ""
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    return policy.LOCK_NAME_TOKEN in name.lower()


def _guarded_nodes(fn_node: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield ``(node, under_lock)`` for every node in the function's own
    scope, tracking enclosing ``with <lock>:`` blocks."""

    def walk(node: ast.AST, guarded: bool) -> Iterator[Tuple[ast.AST, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            child_guarded = guarded
            if isinstance(child, (ast.With, ast.AsyncWith)) and any(
                _lock_like(item.context_expr) for item in child.items
            ):
                child_guarded = True
            yield child, child_guarded
            yield from walk(child, child_guarded)

    roots: List[ast.AST]
    if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        roots = list(fn_node.body)
    elif isinstance(fn_node, ast.Module):
        roots = list(fn_node.body)
    else:  # lambdas cannot contain statements, hence no writes
        return
    for root in roots:
        child_guarded = isinstance(root, (ast.With, ast.AsyncWith)) and any(
            _lock_like(item.context_expr) for item in root.items
        )
        yield root, child_guarded
        yield from walk(root, child_guarded)


def _attribute_base(node: ast.expr) -> Optional[Tuple[str, str]]:
    """Unwrap a pure attribute chain: ``a.b.c`` -> ("a", "a.b.c").

    Chains broken by subscripts or calls return None - writes through a
    container slot are a different (unflagged) shape.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return current.id, ".".join(parts)


@register
class ConcurrencyRule(Rule):
    id = "concurrency"
    description = (
        "no unguarded shared-state writes in code reachable from a "
        "worker-pool or thread entry point"
    )
    scope = policy.CONCURRENCY_SCOPE

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project.graph
        table = graph.table
        #: worker entry qualname -> (spawning function, spawn line)
        entries: Dict[str, Tuple[str, int]] = {}
        for module in project.modules:
            if module.tree is None or not self.wants(module):
                continue
            for fn in table.functions_in(module.relpath):
                for qual, line in self._spawn_targets(graph, fn):
                    entries.setdefault(qual, (fn.qualname, line))
        if not entries:
            return
        reached = graph.reachable(entries)
        modules_by_relpath = {m.relpath: m for m in project.modules}
        reported: set = set()
        for qual in sorted(reached):
            fn = table.functions[qual]
            if qual in policy.CONCURRENCY_ALLOWED_WRITERS:
                continue
            module = modules_by_relpath.get(fn.relpath)
            if module is None or module.tree_label != "src":
                continue
            entry = self._nearest_entry(graph, entries, qual)
            for diagnostic in self._shared_writes(module, fn, graph, entry):
                key = (diagnostic.path, diagnostic.line)
                if key not in reported:
                    reported.add(key)
                    yield diagnostic

    # -- spawn-site discovery ---------------------------------------------

    def _spawn_targets(
        self, graph, fn: FunctionInfo
    ) -> Iterator[Tuple[str, int]]:
        for node in own_scope_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in policy.WORKER_SPAWN_METHODS
                and node.args
            ):
                for qual in graph.resolve_callable(fn, node.args[0]):
                    yield qual, node.lineno
            if graph.resolve_external(fn, func) in policy.THREAD_CLASSES:
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        for qual in graph.resolve_callable(fn, keyword.value):
                            yield qual, node.lineno

    @staticmethod
    def _nearest_entry(graph, entries, qual: str) -> Tuple[str, str]:
        """(entry qualname, rendered chain entry -> ... -> qual)."""
        best: Tuple[str, List[str]] = ("", [])
        for entry in entries:
            chain = graph.path(entry, qual)
            if chain and (not best[1] or len(chain) < len(best[1])):
                best = (entry, chain)
        entry, chain = best
        rendered = " -> ".join(q.split("::", 1)[1] for q in chain)
        return entry, rendered

    # -- write classification ---------------------------------------------

    def _shared_writes(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        graph,
        entry: Tuple[str, str],
    ) -> Iterator[Diagnostic]:
        entry_qual, chain = entry
        spawn = graph.table.functions.get(entry_qual)
        via = f" (worker-reachable via {chain})" if chain else ""
        module_globals = graph.table.module_globals.get(fn.relpath, set())
        for node, guarded in _guarded_nodes(fn.node):
            if guarded:
                continue
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in fn.globals_declared:
                        yield self.diag(
                            module, node.lineno,
                            f"write to module global {target.id!r} from "
                            f"worker-reachable code{via}; guard it with a "
                            f"lock or confine it to the coordinator thread",
                        )
                    continue
                base = _attribute_base(target)
                if base is None:
                    continue
                root, dotted = base
                if root == "self" and fn.name in ("__init__", "__new__"):
                    continue  # the object under construction is unshared
                if root == "self" and fn.cls is not None:
                    yield self.diag(
                        module, node.lineno,
                        f"unguarded write to shared attribute {dotted} of "
                        f"{fn.cls.name} from worker-reachable code{via}; "
                        f"workers race on instance state - hold a lock or "
                        f"move the write to the coordinator",
                    )
                elif root in fn.params and root != "self":
                    yield self.diag(
                        module, node.lineno,
                        f"unguarded write to {dotted}: parameter {root!r} "
                        f"is an object handed into worker-reachable "
                        f"code{via} and may be shared across workers; lock "
                        f"it, or suppress with a justification when it is "
                        f"provably task-local",
                    )
                elif (
                    root in module_globals
                    and root not in fn.assigned
                    and root not in fn.params
                ):
                    yield self.diag(
                        module, node.lineno,
                        f"unguarded write to {dotted}: {root!r} is a module "
                        f"global mutated from worker-reachable code{via}",
                    )
