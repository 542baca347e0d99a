"""A subpackage re-export declares a name; it does not use it."""

from .helpers import reexported

__all__ = ["reexported"]
