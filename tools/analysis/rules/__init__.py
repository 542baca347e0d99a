"""Importing this package registers every built-in rule."""

from . import (
    commit_path,
    concurrency,
    determinism,
    fault_paths,
    layering,
    lifecycle,
    query_boundary,
    reachability,
)

__all__ = [
    "commit_path",
    "concurrency",
    "determinism",
    "fault_paths",
    "layering",
    "lifecycle",
    "query_boundary",
    "reachability",
]
