"""A property kept alive, under name-level resolution, only by a local
variable of the same name: the rule must report it."""

from .stats import Histogram

__all__ = ["Histogram"]
