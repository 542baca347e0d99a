"""Simulated clock.

The consensus and network layers run on a discrete-event simulated clock so
that experiments are deterministic and orders of magnitude faster than real
time.  Everything that needs "now" takes a :class:`Clock`.
"""

from __future__ import annotations

import itertools


class Clock:
    """Manually-advanced simulated clock (milliseconds)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()

    def now_ms(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> None:
        if delta_ms < 0:
            raise ValueError("cannot move the clock backwards")
        self._now += delta_ms

    def next_seq(self) -> int:
        """Monotone sequence number for tie-breaking simultaneous events."""
        return next(self._seq)
