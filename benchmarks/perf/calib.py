"""The calibration loop: every timing is reported at a reference speed.

The sandbox this benchmark runs in is a shared virtual machine whose
effective CPU speed drifts by 10-20 % over seconds to minutes.  Left alone,
that drift is wider than the bounds the metrics carry, and two runs of the
same code would differ by more than a real regression.  So the harness
times a fixed pure-Python loop next to everything it measures and scales
each duration by ``CALIB_REF_MS / (what the loop took just then)``: a
stretch during which the machine ran 15 % slow counts for 15 % less time.
The same scaling makes points from two machines comparable.

The loop is sha256 chaining plus big-int modular squaring - what the
program's own hot paths are made of - and touches no memory beyond the
first-level cache, so it follows CPU steal and frequency and little else.
Interference that only hits memory-heavy work is not corrected.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: what one loop takes on the machine the workload sizes were tuned on
CALIB_REF_MS = 4.0
_PRIME = 2**256 - 2**32 - 977
_pc = time.perf_counter


def loop_ms() -> float:
    """Median of five timings of the calibration loop, in milliseconds.

    Five, so that a scheduling hiccup of a few milliseconds spoils at most
    two of them and the median still reads the prevailing speed.
    """
    samples = []
    for _ in range(5):
        digest = b"sebdb-perf-calibration"
        acc = 3
        t0 = _pc()
        for _ in range(4000):
            digest = hashlib.sha256(digest).digest()
            acc = (acc * acc + int.from_bytes(digest[:8], "big")) % _PRIME
        samples.append(_pc() - t0)
    return statistics.median(samples) * 1e3


class Stopwatch:
    """Accumulates reference-speed seconds lap by lap.

    A calibration sample is taken at every lap boundary, and each lap's raw
    wall is scaled by the samples on either side of it.  Laps of about a
    second follow the machine's drift closely enough; one lap around ten
    seconds of work does not.
    """

    def __init__(self) -> None:
        #: calibration samples (ms), one per lap boundary
        self.samples = [loop_ms()]
        #: reference-speed and raw seconds over all laps so far
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self._t0 = _pc()

    def lap(self) -> float:
        """Close the current lap; returns its raw-to-reference factor."""
        raw = _pc() - self._t0
        after = loop_ms()
        scale = CALIB_REF_MS / ((self.samples[-1] + after) / 2.0)
        self.samples.append(after)
        self.seconds += raw * scale
        self.raw_seconds += raw
        self._t0 = _pc()
        return scale
