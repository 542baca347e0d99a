"""Equal-depth histograms.

For a *continuous* attribute the first level of the layered index maps
each block to the subset of histogram buckets its values fall in.  The
histogram is built once by sampling historical transactions when the index
is created (section IV-B); its depth (bucket count) trades precision for
bitmap width and is configurable (Fig 11 uses 100).

Bucket i covers ``(bound[i-1], bound[i]]`` with open-ended first and last
buckets: ``(-inf, k_1], (k_1, k_2] ... (k_p, +inf)``.
"""

from __future__ import annotations

import bisect
from typing import Any, Sequence

from ..common.errors import IndexError_


class EqualDepthHistogram:
    """Equal-depth (equi-height) histogram over a sample of values."""

    def __init__(self, bounds: Sequence[Any]) -> None:
        self._bounds = list(bounds)
        if any(self._bounds[i] > self._bounds[i + 1] for i in range(len(self._bounds) - 1)):
            raise IndexError_("histogram bounds must be non-decreasing")

    @classmethod
    def from_sample(cls, sample: Sequence[Any], depth: int) -> "EqualDepthHistogram":
        """Build ``depth`` buckets so each holds ~len(sample)/depth values."""
        if depth < 1:
            raise IndexError_("histogram depth must be >= 1")
        values = sorted(v for v in sample if v is not None)
        if not values or depth == 1:
            return cls([])
        bounds = []
        for i in range(1, depth):
            pos = i * len(values) // depth
            pos = min(pos, len(values) - 1)
            bounds.append(values[pos])
        # collapse duplicate bounds (heavily skewed samples)
        deduped: list[Any] = []
        for bound in bounds:
            if not deduped or bound > deduped[-1]:
                deduped.append(bound)
        return cls(deduped)

    @property
    def num_buckets(self) -> int:
        return len(self._bounds) + 1

    def bucket_of(self, value: Any) -> int:
        """Index of the bucket containing ``value``.

        Bucket i is ``(bounds[i-1], bounds[i]]``; values equal to a bound
        belong to the lower bucket.
        """
        return bisect.bisect_left(self._bounds, value)

    def buckets_overlapping(self, low: Any, high: Any) -> range:
        """Bucket indices whose range intersects ``[low, high]``.

        ``None`` bounds are open.  Used to turn a range predicate into a
        bucket bitmap for the level-1 AND step.
        """
        first = 0 if low is None else self.bucket_of(low)
        last = self.num_buckets - 1 if high is None else self.bucket_of(high)
        return range(first, last + 1)

    def bucket_range(self, index: int) -> tuple[Any, Any]:
        """(lower, upper] bounds of bucket ``index``; ``None`` = open."""
        if not 0 <= index < self.num_buckets:
            raise IndexError_(f"bucket {index} out of range")
        lower = self._bounds[index - 1] if index > 0 else None
        upper = self._bounds[index] if index < len(self._bounds) else None
        return lower, upper
