"""Query processing: planner, streaming physical operators, engine."""

from .engine import QueryEngine
from .operators import extract_constraints, predicate_matches
from .physical import OperatorStats, PhysicalOperator, render_plan
from .plan import (
    AccessPath,
    PathChoice,
    PhysicalPlan,
    Planner,
)
from .result import QueryResult

__all__ = [
    "AccessPath",
    "OperatorStats",
    "PathChoice",
    "PhysicalOperator",
    "PhysicalPlan",
    "Planner",
    "QueryEngine",
    "QueryResult",
    "extract_constraints",
    "predicate_matches",
    "render_plan",
]
