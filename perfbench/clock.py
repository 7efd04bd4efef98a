"""Program timings scaled to a fixed machine speed.

On a shared host the effective CPU speed swings by tens of percent within
seconds, and process CPU time swings with it, so raw timings of the same code
differ from run to run by more than any useful regression bound. A fixed
calibration kernel therefore runs between the program's operations, and each
interval the program was timed over is scaled by the speed the kernel measured
just before and just after it:

    scaled = measured * REFERENCE_KERNEL_S / (mean kernel time around it)

A scaled time is what the interval would have taken on a machine where the
kernel takes REFERENCE_KERNEL_S. The kernel never calls the program, so a
faster program still shows as a shorter scaled time.
"""
from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

REFERENCE_KERNEL_S = 0.005
EVERY_S = 0.05  # the kernel runs again once this much time has passed


def kernel() -> int:
    """Fixed pure-Python work in the program's own mix: integer division and
    modulo, list and dict building, and string formatting and joining."""
    acc = []
    seen = {}
    for i in range(6000):
        m = (i * 7 + 3) % 2304
        acc.append(m // 3 + m % 5)
        seen[m] = i
    return len("\n".join(f"{i},{a}" for i, a in enumerate(acc))) + len(seen)


class Clock:
    def __init__(self) -> None:
        self._ends: list[float] = []
        self._kernel_s: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self._ends.append(t1)
        self._kernel_s.append(t1 - t0)

    def between_operations(self) -> None:
        if perf_counter() - self._ends[-1] >= EVERY_S:
            self.calibrate()

    def scaled(self, t0: float, t1: float, seconds: float | None = None) -> float:
        """`seconds` (by default t1 - t0), measured over [t0, t1], at the
        reference speed. Call calibrate() after the last operation first."""
        before = bisect_right(self._ends, t0) - 1
        around = self._kernel_s[max(before, 0):before + 2]
        speed = sum(around) / len(around)
        return (t1 - t0 if seconds is None else seconds) * REFERENCE_KERNEL_S / speed

    def kernel_ms(self) -> tuple[float, float]:
        """Fastest and median kernel time in this run, for the record."""
        times = sorted(self._kernel_s)
        return 1e3 * times[0], 1e3 * times[len(times) // 2]
