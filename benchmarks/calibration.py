"""Reference seconds: wall time corrected for the speed of a shared machine.

On a small shared VM the speed of plain Python code swings by a third or
more, in spells from a fraction of a second to tens of seconds (host load),
far more than the changes the benchmark has to resolve.  So every timing is
also expressed in *reference seconds*: the measured wall time multiplied by
REF_CAL_S / cal, where cal is the time the same process took for a fixed
slice of pure-Python work (best of 5), sampled at most PERIOD_S before the
call and, for a call of PERIOD_S or longer, again right after it, so that a
spell shorter than a second is still followed.  The slice mixes
bytecode, small and big integers and fresh tuples in a dict, like the
library.  REF_CAL_S is the slice's time on the machine the bounds were set
on, when it is not slowed, so there reference seconds read close to wall
seconds.  A change to zeckvec moves the measured time and not the
slice, so it shows in full; a slow spell of the host moves both.
"""

from __future__ import annotations

import time

REF_CAL_S = 0.4e-3
PERIOD_S = 0.05


def _slice():
    acc = 0
    table = {}
    for i in range(1200):
        key = (i, -i)
        table[key] = (i * i, key)
        acc += table[key][0] % 7
    x = 3 ** 300
    for _ in range(40):
        x = (x * 12345 + acc) % (10 ** 200 + 7)
    return x


def calibrate() -> float:
    """Seconds for the calibration slice, best of 5."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _slice()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Scale factor from wall to reference seconds.  ``refresh`` is called
    before each timed call and samples the slice when the last sample is
    PERIOD_S old; ``scale_for`` is called after it, and for a call of at
    least PERIOD_S takes a second sample, so the call is scaled by the mean
    of the samples on both sides of it."""

    def __init__(self):
        self.samples = []
        self.cal = None
        self._before = None
        self._last = float("-inf")

    def _sample(self):
        self.cal = calibrate()
        self.samples.append(self.cal)
        self._last = time.perf_counter()

    def refresh(self):
        if time.perf_counter() - self._last >= PERIOD_S:
            self._sample()
        self._before = self.cal

    def scale_for(self, seconds: float) -> float:
        if seconds >= PERIOD_S:
            self._sample()
            return REF_CAL_S / ((self._before + self.cal) / 2)
        return REF_CAL_S / self._before

    def summary(self) -> dict:
        ordered = sorted(self.samples)
        return {"ref_s": REF_CAL_S, "samples": len(ordered), "min_s": ordered[0],
                "median_s": ordered[len(ordered) // 2], "max_s": ordered[-1]}
