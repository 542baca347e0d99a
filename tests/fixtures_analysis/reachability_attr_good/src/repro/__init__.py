"""Clean twin of ``reachability_attr_bad``: the property is read as an
attribute, so it is live."""

from .stats import Histogram

__all__ = ["Histogram"]
