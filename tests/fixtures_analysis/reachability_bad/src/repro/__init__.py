"""Known-bad tree for the ``reachability`` rule: two dead functions (one
only re-exported by a subpackage), a dead method, and three defaulted
parameters that no call site passes."""

from .engine import Engine, open_engine

__all__ = ["Engine", "open_engine"]
