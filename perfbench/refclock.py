"""A clock that counts reference seconds instead of wall seconds.

Shared machines change speed while a benchmark runs. On the 2-vCPU VM
this benchmark was built on, a fixed pure-Python loop ran at two speeds
about 2x apart, switching every few seconds and drifting between mostly
fast and mostly slow over minutes, with no other benchmark process
running. Wall times of 20 s runs then spread by 30-50 % between
quartiles.

``RefClock`` measures the machine's current speed every ``INTERVAL``
seconds by timing ``calibration_loop`` from a timer signal (no thread),
and advances at ``CAL_REF / t_cal`` reference seconds per wall second,
where ``t_cal`` is the latest calibration time. A reference second is
thus the wall second of a machine on which the calibration loop takes
``CAL_REF``. The time spent calibrating is not counted. The loop does
the same kind of work as hypersig (Fraction arithmetic in the
interpreter), so it slows and speeds up with the program.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.05
# About the median calibration time on the machine the seed baseline was
# taken on (Python 3.11.7, 2 shared vCPUs; 1.68 ms over 1205 samples, the
# two speeds at about 1.0 and 1.8 ms), so reference seconds read close to
# that machine's wall seconds.
CAL_REF = 0.0017


def calibration_loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i % 97 + 1)
    return s


class RefClock:
    """Use as a context manager; ``now()`` is then a drop-in replacement
    for ``time.perf_counter`` that returns reference seconds."""

    def __init__(self) -> None:
        # (reference seconds at mark, wall mark, reference seconds per
        # wall second), replaced as one object so ``now`` never reads a
        # half-updated state when the timer signal interrupts it
        self._state = (0.0, perf_counter(), 1.0)
        self.calibrations: list[float] = []
        self._previous_handler = None

    def __enter__(self) -> "RefClock":
        self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self._tick())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self) -> None:
        start = perf_counter()
        ref, mark, rate = self._state
        calibration_loop()
        end = perf_counter()
        self.calibrations.append(end - start)
        self._state = (ref + (start - mark) * rate, end, CAL_REF / (end - start))

    def now(self) -> float:
        t = perf_counter()
        ref, mark, rate = self._state
        return ref + (t - mark) * rate
