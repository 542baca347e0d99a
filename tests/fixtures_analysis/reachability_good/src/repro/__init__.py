"""Clean twin of ``reachability_bad``: every definition is named by a root
and every defaulted parameter is passed - through a target-list string,
``super().__init__(x)``, ``cls(x)`` or ``**kwargs`` forwarding (by
``open_engine`` and by a test helper)."""

from .engine import Engine, open_engine

__all__ = ["Engine", "open_engine"]
