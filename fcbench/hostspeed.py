"""Timing corrected to a fixed nominal host speed.

The shared host this benchmark was built on runs the same Python code at
speeds that differ by up to a factor of two between processes and over
seconds.  Every timed operation is therefore bracketed by runs of a fixed
pure-Python reference loop, and the operation's time is scaled by
NOMINAL_REF_S over the loop's mean time.  The loop calls no freecomm code and allocates no container
objects, so the state of the program's heap cannot slow it; it mixes
the things the library spends its time on: function calls, dict lookups,
tuple indexing and small-int arithmetic.
"""

from __future__ import annotations

from time import perf_counter

# The loop's median time on the reference host (a 2-core VM, Python 3.11.7).
# On a host running at that speed a corrected time equals the raw time.
NOMINAL_REF_S = 0.0023

_TABLE = {i: i * 3 for i in range(64)}
_ROW = tuple(range(64))


def _mix(x: int, i: int) -> int:
    return (x * 31 + i) & 0xFFFF


def reference_loop(n: int = 8000) -> int:
    x = 0
    i = 0
    get = _TABLE.get
    row = _ROW
    while i < n:
        x = _mix(x, i)
        x = get(x & 63, 0) + row[x & 31]
        i += 1
    return x


def reference_seconds() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class Clock:
    """Times operations one after another, each between two reference loops.

    An operation's factor is NOMINAL_REF_S over the mean of the loops just
    before and just after it, so a change of host speed during a long
    operation is seen from both sides.
    """

    def __init__(self) -> None:
        self.ref = reference_seconds()

    def time(self, fn):
        """Run fn(); returns (result, raw seconds, corrected seconds, factor).

        An exception from fn propagates after the closing reference loop.
        """
        start = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - start
            before, self.ref = self.ref, reference_seconds()
        factor = 2 * NOMINAL_REF_S / (before + self.ref)
        return result, raw, raw * factor, factor
