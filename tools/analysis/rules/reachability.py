"""Rule ``reachability``: definitions nothing needs, parameters nobody passes.

Two findings, both about code that runs for nobody:

* a ``src/repro`` function, method or class that no *live* code names.
  Live code starts at the roots - module-level statements of every
  ``src/repro`` module, the ``__all__`` of ``repro/__init__.py``,
  ``repro/cli.py`` and ``repro/__main__.py``, and every file under
  ``examples/``, ``benchmarks/``, ``tools/`` and ``tests/`` - and grows
  by the bodies of the definitions it names, to a fixpoint;
* a parameter with a default that no call site passes, by keyword or by
  position.  A default nobody overrides is a configuration no test or
  benchmark covers; it should be a constant.

Resolution is by *name*, and conservative: a use of ``close`` anywhere
live keeps every ``close`` alive, a call ``x.f(1, 2)`` passes the first
two parameters of every ``f``, and a dotted-identifier string
(``"FullNode.query"`` in a tracer's target list, a ``getattr`` name)
counts as a use of each of its parts.  So the rule may miss dead code
that shares a name with live code; it does not report live code.  A
constructor is reached through its class name (or a subclass that does
not define its own), ``super().__init__(...)``, ``cls(...)``,
``type(self)(...)`` and ``Base.__init__(self, ...)``.  ``**kwargs``
forwarding is followed: keywords passed to the forwarding function
count as passed to its callee, whether it is a ``src/repro`` definition
or a helper in a root file (a test's ``make_cluster(**kwargs)``,
resolved by its name); a ``**mapping`` of unknown keys or a ``*args``
spread passes everything.  A callable that escapes as a value
(``handlers[k] = fn``, ``engine_cls = PBFTCluster``) has call sites the
rule cannot see, so its parameters are not judged.

Imports are declarations, not uses: a subpackage ``__init__`` that
re-exports a name (and lists it in its ``__all__``) does not keep it
alive.  A renamed import (``import x as y``) uses ``x``.

Tests are roots on purpose.  Without them the rule reports the tested
chaos-harness, two-phase-commit and crash-hook surface as dead; that
surface is a feature whose only clients today are its tests.  A tree
that declares no entry point at all (no root module, no root directory)
is a fragment, not a program, and is not judged.

Parameters that must stay although nothing passes them - deployment
settings a user sets and the repository does not - are listed with a
reason in :data:`tools.analysis.policy.REACHABILITY_KEEP_PARAMS`; an
entry that no longer matches a finding is itself reported.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import deque
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .. import policy
from ..callgraph import own_scope_nodes
from ..core import Diagnostic, ModuleInfo, Project, Rule, register

#: a string that reads as a (dotted) identifier counts as a use by name
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")

#: keywords of a ``**mapping`` nobody can see: every parameter is passed
_ANY = "*"

#: where the keep table lives (stale entries are reported there)
_POLICY_RELPATH = "tools/analysis/policy.py"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@dataclasses.dataclass(eq=False)
class _Def:
    """One module-level function or class, or one method of such a class."""

    module: ModuleInfo
    node: ast.AST
    owner: Optional["_Def"] = None
    methods: List["_Def"] = dataclasses.field(default_factory=list)
    #: names this definition's own code uses
    uses: Set[str] = dataclasses.field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def label(self) -> str:
        return f"{self.owner.name}.{self.name}" if self.owner else self.name

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)

    @property
    def bases(self) -> List[str]:
        names = []
        for base in self.node.bases:
            if isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Attribute):
                names.append(base.attr)
            elif isinstance(base, ast.Name):
                names.append(base.id)
        return names


@dataclasses.dataclass(frozen=True)
class _Site:
    """One call: how many positionals, which keywords, any ``**`` spread."""

    nargs: int  # -1 when a ``*iterable`` spreads an unknown count
    keywords: FrozenSet[str]
    #: None, _ANY, or the FunctionDef whose own ``**kwargs`` is forwarded
    spread: object = None


def _uses(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name the given code mentions: names, attributes, id strings."""
    out: Set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED.match(node.value)
            ):
                out.update(node.value.split("."))
            elif isinstance(node, ast.alias) and node.asname:
                out.update(node.name.split("."))
    return out


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
    )


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """:func:`own_scope_nodes`, plus what a nested ``def`` or ``lambda``
    evaluates where it stands: its decorators and default values."""
    for node in own_scope_nodes(scope):
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            heads = getattr(node, "decorator_list", []) + node.args.defaults
            for head in heads + [d for d in node.args.kw_defaults if d]:
                yield head
                yield from own_scope_nodes(head)


def _exempt_children(node: ast.AST, exempt: Set[int]) -> None:
    """Mark the parts of ``node`` that name a callable without handing it
    on (a callee, a receiver, a type test, a key, a decorator...)."""

    def cover(part: Optional[ast.AST]) -> None:
        if part is not None:
            exempt.update(id(n) for n in ast.walk(part))

    if isinstance(node, ast.Call):
        exempt.add(id(node.func))
        if isinstance(node.func, ast.Name) and node.func.id in (
            "isinstance", "issubclass", "type", "id",
        ):
            for arg in node.args:
                cover(arg)
    elif isinstance(node, ast.Attribute):
        exempt.add(id(node.value))
    elif isinstance(node, ast.Subscript):
        cover(node.slice)
    elif isinstance(node, ast.ExceptHandler):
        cover(node.type)
    elif isinstance(node, ast.Raise) and not isinstance(node.exc, ast.Call):
        cover(node.exc)
    elif isinstance(node, ast.ClassDef):
        for part in node.bases + node.decorator_list:
            cover(part)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for part in node.decorator_list:
            cover(part)
    elif isinstance(node, ast.AnnAssign):
        cover(node.annotation)


class _CallIndex:
    """Every call in every scanned module, keyed by the name it calls."""

    def __init__(self) -> None:
        #: callee name -> sites (``f(...)``, ``x.f(...)``, ``Cls(...)``)
        self.by_name: Dict[str, List[_Site]] = {}
        #: class name -> sites of ``super().__init__(...)`` in that class
        self.super_init: Dict[str, List[_Site]] = {}
        #: class name -> sites of ``cls(...)`` / ``type(self)(...)`` in it
        self.own_class: Dict[str, List[_Site]] = {}
        #: bare names used as a value somewhere: their call sites are unseen
        self.escaped: Set[str] = set()
        #: (class, method) for each ``self.method`` handed on as a value
        self.escaped_methods: Set[Tuple[Optional[str], str]] = set()

    def scan(self, tree: ast.AST) -> None:
        self._scan_scope(tree, None, None, set(), set())

    def _scan_scope(
        self,
        scope: ast.AST,
        cls: Optional[str],
        fn: Optional[ast.AST],
        bound: Set[str],
        exempt: Set[int],
    ) -> None:
        nodes = list(_scope_nodes(scope))
        # a local variable that shares a definition's name is not that
        # definition handed on as a value
        bound = bound | {
            n.id for n in nodes
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        }
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound |= {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
            bound |= {
                n.name for n in nodes
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
        for node in nodes:  # pre-order: a parent marks its children first
            _exempt_children(node, exempt)
            if isinstance(node, ast.ClassDef):
                self._scan_scope(node, node.name, None, bound, exempt)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_scope(node, cls, node, bound, exempt)
            elif isinstance(node, ast.Lambda):
                self._scan_scope(node, cls, fn, bound, exempt)
            elif isinstance(node, ast.Call):
                self._record(node, cls, fn)
            elif id(node) in exempt:
                continue
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in bound:
                    self.escaped.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                # a bound method handed on (a callback, a timer action)
                self.escaped_methods.add((cls, node.attr))

    def _record(
        self, call: ast.Call, cls: Optional[str], fn: Optional[ast.AST]
    ) -> None:
        nargs = len(call.args)
        if any(isinstance(a, ast.Starred) for a in call.args):
            nargs = -1
        spread: object = None
        keywords = set()
        for kw in call.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif (
                fn is not None
                and fn.args.kwarg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id == fn.args.kwarg.arg
                and spread is None
            ):
                spread = fn
            else:
                spread = _ANY
        func = call.func
        first = fn.args.args[0].arg if fn is not None and fn.args.args else None
        if isinstance(func, ast.Attribute) and func.attr == "__init__":
            value = func.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
            ):
                key, table = cls, self.super_init
            elif isinstance(value, ast.Name):
                # ``Base.__init__(self, ...)``: the receiver is positional
                key, table, nargs = value.id, self.by_name, max(nargs - 1, -1)
            else:
                return
        elif cls is not None and (
            (isinstance(func, ast.Name) and func.id == first == "cls")
            or (
                isinstance(func, ast.Call)
                and isinstance(func.func, ast.Name)
                and func.func.id == "type"
            )
            or (isinstance(func, ast.Attribute) and func.attr == "__class__")
        ):
            key, table = cls, self.own_class
        elif isinstance(func, ast.Name):
            key, table = func.id, self.by_name
        elif isinstance(func, ast.Attribute):
            key, table = func.attr, self.by_name
        else:
            return
        if key is None:
            return
        table.setdefault(key, []).append(
            _Site(nargs, frozenset(keywords), spread)
        )


def _src_defs(module: ModuleInfo) -> List[_Def]:
    out = []
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(_Def(module, stmt, uses=_uses([stmt])))
        elif isinstance(stmt, ast.ClassDef):
            cls = _Def(module, stmt)
            body = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _Def(module, item, owner=cls, uses=_uses([item]))
                    cls.methods.append(method)
                else:
                    body.append(item)
            cls.uses = _uses(body + stmt.bases + stmt.keywords + stmt.decorator_list)
            out.append(cls)
            out.extend(cls.methods)
    return out


def _module_uses(module: ModuleInfo) -> Set[str]:
    """What a ``src/repro`` module's top-level statements use on import."""
    root_init = module.relpath == "__init__.py"
    stmts = []
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if _is_all(stmt) and not root_init:
            continue  # a subpackage's export list declares, it does not use
        stmts.append(stmt)
    return _uses(stmts)


def _root_functions(trees: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Module-level functions of root files and methods of their classes."""
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt
            elif isinstance(stmt, ast.ClassDef):
                yield from (
                    item for item in stmt.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )


def _parse_roots(root: Path) -> Iterator[ast.AST]:
    """Every parseable module under the root directories."""
    for dirname in policy.REACHABILITY_ROOT_DIRS:
        for path in sorted((root / dirname).rglob("*.py")):
            try:
                yield ast.parse(path.read_text(), filename=str(path))
            except (SyntaxError, UnicodeDecodeError, ValueError):
                continue  # a broken root names nothing


@register
class ReachabilityRule(Rule):
    id = "reachability"
    description = (
        "every src/repro definition is named by live code, and every "
        "defaulted parameter is passed by some call site"
    )

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        src = [m for m in project.modules if m.tree_label == "src" and m.tree]
        roots = list(_parse_roots(project.root))
        if not roots and not any(
            m.relpath in policy.REACHABILITY_ROOT_MODULES or m.relpath == "__init__.py"
            for m in src
        ):
            return []
        defs: List[_Def] = []
        used: Set[str] = set(_uses(roots))
        for module in src:
            if module.relpath in policy.REACHABILITY_ROOT_MODULES:
                used |= _uses([module.tree])
            else:
                defs.extend(_src_defs(module))
                used |= _module_uses(module)
        live = self._live(defs, used)
        calls = _CallIndex()
        for tree in roots + [m.tree for m in src]:
            calls.scan(tree)
        findings = [self._dead(d) for d in defs if d not in live and (
            d.owner is None or d.owner in live
        )]
        params = _Params(defs, calls, _root_functions(roots))
        keep = dict(policy.REACHABILITY_KEEP_PARAMS)
        for d in defs:
            if d.is_class or d not in live:
                continue
            for arg in params.never_passed(d):
                key = f"{d.module.relpath}::{d.label}({arg.arg})"
                if keep.pop(key, None) is None:
                    findings.append(self._unpassed(d, arg))
        findings.extend(self._stale_keeps(project, keep))
        return findings

    @staticmethod
    def _live(defs: List[_Def], used: Set[str]) -> Set[_Def]:
        by_name: Dict[str, List[_Def]] = {}
        for d in defs:
            by_name.setdefault(d.name, []).append(d)
        live: Set[_Def] = set()
        queue = deque(
            d for d in defs if d.owner is None and d.name in used
        )
        while queue:
            d = queue.popleft()
            if d in live:
                continue
            live.add(d)
            fresh = d.uses - used
            used |= fresh
            for name in fresh:
                queue.extend(
                    x for x in by_name.get(name, ())
                    if x.owner is None or x.owner in live
                )
            if d.is_class:
                queue.extend(
                    m for m in d.methods if _dunder(m.name) or m.name in used
                )
        return live

    def _dead(self, d: _Def) -> Diagnostic:
        kind = "class" if d.is_class else ("method" if d.owner else "function")
        end = getattr(d.node, "end_lineno", d.node.lineno)
        return self.diag(
            d.module, d.node.lineno,
            f"{kind} `{d.label}` is unreachable: no root and no live code "
            f"names it ({end - d.node.lineno + 1} lines) - delete it",
        )

    def _unpassed(self, d: _Def, arg: ast.arg) -> Diagnostic:
        return self.diag(
            d.module, arg.lineno,
            f"parameter `{arg.arg}` of `{d.label}` has a default that no "
            f"call site passes, by keyword or by position - make it a "
            f"constant, or list it in policy.REACHABILITY_KEEP_PARAMS with "
            f"a reason",
        )

    def _stale_keeps(
        self, project: Project, stale: Dict[str, str]
    ) -> Iterator[Diagnostic]:
        """Keep entries about this tree's modules that excuse nothing."""
        policy_module = project.module_for_relpath(_POLICY_RELPATH)
        for key in sorted(stale):
            if project.module_for_relpath(key.split("::")[0]) is None:
                continue  # an entry about a module this tree does not have
            lines = policy_module.lines if policy_module is not None else []
            line = next(
                (i for i, text in enumerate(lines, start=1) if f'"{key}"' in text),
                1,
            )
            yield Diagnostic(
                _POLICY_RELPATH, line, self.id,
                f"keep entry `{key}` matches no never-passed parameter - "
                f"delete it",
            )


class _Params:
    """Which defaulted parameters of a definition some call site passes."""

    def __init__(
        self, defs: List[_Def], calls: _CallIndex, helpers: Iterable[ast.AST]
    ) -> None:
        self.calls = calls
        self.by_node = {id(d.node): d for d in defs}
        #: forwarding helpers outside src/repro (a test's ``make_x(**kw)``)
        self.helpers = {id(node): node.name for node in helpers}
        self.classes: Dict[str, List[_Def]] = {}
        for d in defs:
            if d.is_class:
                self.classes.setdefault(d.name, []).append(d)
        #: class name -> names of its direct subclasses
        self.children: Dict[str, Set[str]] = {}
        for group in self.classes.values():
            for cls in group:
                for base in cls.bases:
                    self.children.setdefault(base, set()).add(cls.name)
        #: class name -> the ``__init__``s constructing it runs
        self.inits = {name: self._resolve_inits(name, set()) for name in self.classes}
        self._forwarded: Dict[int, Set[str]] = {}

    # -- constructors ------------------------------------------------------

    def _resolve_inits(self, cls_name: str, seen: Set[str]) -> List[_Def]:
        if cls_name in seen:
            return []
        seen.add(cls_name)
        out = []
        for cls in self.classes.get(cls_name, ()):
            init = next((m for m in cls.methods if m.name == "__init__"), None)
            if init is not None:
                out.append(init)
            else:
                for base in cls.bases:
                    out.extend(self._resolve_inits(base, seen))
        return out

    def _subclasses(self, cls_name: str) -> Set[str]:
        names, frontier = {cls_name}, [cls_name]
        while frontier:
            for child in self.children.get(frontier.pop(), ()):
                if child not in names:
                    names.add(child)
                    frontier.append(child)
        return names

    def _ancestors(self, cls: _Def) -> Set[str]:
        names: Set[str] = set()
        frontier = list(cls.bases)
        while frontier:
            current = frontier.pop()
            if current not in names:
                names.add(current)
                for base in self.classes.get(current, ()):
                    frontier.extend(base.bases)
        return names

    def _sites(self, d: _Def) -> Optional[List[_Site]]:
        """Every call site of ``d``; None when ``d`` escapes as a value."""
        calls = self.calls
        if d.name != "__init__":
            if d.owner is None:
                escaped = d.name in calls.escaped
            else:
                family = self._subclasses(d.owner.name) | self._ancestors(d.owner)
                escaped = any(
                    (cls, d.name) in calls.escaped_methods for cls in family
                )
            return None if escaped else calls.by_name.get(d.name, [])
        sites: List[_Site] = []
        for cls_name, inits in self.inits.items():
            if d in inits:
                if cls_name in calls.escaped:
                    return None
                sites += calls.by_name.get(cls_name, [])
        for cls_name, super_sites in calls.super_init.items():
            if any(
                d in self.inits.get(base, ())
                for cls in self.classes.get(cls_name, ())
                for base in cls.bases
            ):
                sites += super_sites
        for cls_name, own_sites in calls.own_class.items():
            if any(
                d in self.inits.get(sub, ()) for sub in self._subclasses(cls_name)
            ):
                sites += own_sites
        return sites

    def _helper_sites(self, name: str) -> Optional[List[_Site]]:
        """Call sites of a root-file helper, by name; None if it escapes."""
        calls = self.calls
        if name in calls.escaped or any(
            method == name for _cls, method in calls.escaped_methods
        ):
            return None
        return calls.by_name.get(name, [])

    def _forwarded_keywords(self, fn: ast.AST) -> Set[str]:
        """Keywords that reach ``fn``'s own ``**kwargs`` from its callers."""
        key = id(fn)
        if key in self._forwarded:
            return self._forwarded[key]
        self._forwarded[key] = {_ANY}  # a forwarding cycle passes anything
        d = self.by_node.get(key)
        if d is not None:
            sites = self._sites(d)
        elif key in self.helpers:
            sites = self._helper_sites(self.helpers[key])
        else:
            sites = None
        out: Set[str] = set()
        if sites is None:
            out.add(_ANY)
        else:
            for site in sites:
                out |= site.keywords
                if site.spread is _ANY:
                    out.add(_ANY)
                elif site.spread is not None:
                    out |= self._forwarded_keywords(site.spread)
        self._forwarded[key] = out
        return out

    # -- the check ---------------------------------------------------------

    def never_passed(self, d: _Def) -> List[ast.arg]:
        if _dunder(d.name) and d.name != "__init__":
            return []
        args = d.node.args
        positional = list(args.posonlyargs) + list(args.args)
        defaulted: List[Tuple[ast.arg, Optional[int]]] = []
        skip = 1 if d.owner is not None and "staticmethod" not in {
            getattr(x, "id", None) for x in d.node.decorator_list
        } else 0
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if index >= first_default and index >= skip:
                defaulted.append((arg, index - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaulted.append((arg, None))
        if not defaulted:
            return []
        sites = self._sites(d)
        if sites is None:
            return []
        out = []
        for arg, index in defaulted:
            if not any(self._passes(site, arg.arg, index) for site in sites):
                out.append(arg)
        return out

    def _passes(self, site: _Site, name: str, index: Optional[int]) -> bool:
        if name in site.keywords or site.spread is _ANY:
            return True
        if index is not None and (site.nargs < 0 or site.nargs > index):
            return True
        if site.spread is not None:
            forwarded = self._forwarded_keywords(site.spread)
            return name in forwarded or _ANY in forwarded
        return False
