"""Rule ``query-boundary``: the query layer reads through the scanner.

Physical operators account every seek and page transfer to both the
query's cost tracker and their own, which only works when all block and
tuple reads flow through a :class:`repro.storage.scan.StoreScanner`
(``self.scanner`` on leaf operators).  A direct ``store.read_block(...)``
bypasses the per-operator trackers and silently breaks EXPLAIN ANALYZE's
invariant that operator costs sum to the query total.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .. import policy
from ..core import Diagnostic, ModuleInfo, Rule, register


def _terminal_name(node: ast.expr) -> str:
    """The last identifier of a dotted receiver (``self.x.scanner`` -> ``scanner``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def scan_tree(tree: ast.AST, path: str, rule_id: str) -> List[Diagnostic]:
    """All boundary violations in one parsed module."""
    out: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = _terminal_name(node.value)
        if node.attr in policy.IO_METHODS and receiver not in policy.SCANNER_NAMES:
            out.append(Diagnostic(
                path, node.lineno, rule_id,
                f"query code calls .{node.attr}() on "
                f"{receiver or 'an expression'!r} - route storage I/O "
                f"through store.scanner(...) so per-operator cost trackers "
                f"see it",
            ))
        elif (
            node.attr.startswith("_")
            and not node.attr.startswith("__")
            and receiver in policy.STORE_NAMES
        ):
            out.append(Diagnostic(
                path, node.lineno, rule_id,
                f"query code touches private BlockStore attribute "
                f".{node.attr} - use the public scan/cost interface",
            ))
    return out


@register
class QueryBoundaryRule(Rule):
    id = "query-boundary"
    description = "query-layer storage I/O goes through StoreScanner"
    scope = policy.QUERY_SCOPE

    def check_module(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        return scan_tree(module.tree, str(module.path), self.id)
