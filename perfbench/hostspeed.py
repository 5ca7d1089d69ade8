"""Host-speed meter: a fixed reference computation timed beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts as
its neighbours' load changes: on a 2-vCPU VM the median
``speaker-closed`` attempt took 95 ms and 135 ms in two ten-second
windows of the same four minutes, and 87 ms and 130 ms hours apart, on
the same code.  No run length averages
out drift that slow, so every timing the benchmark reports is divided
by the host's slowness, measured by timing a reference slice over the
same minutes as the operations it corrects:

    reported = measured * NOMINAL_SLICE_S / median(slice times)

The reported value is what the operation would take on a host that runs
one reference slice in ``NOMINAL_SLICE_S`` (about that VM's speed).  A
slice is a dense 256x256 product and four complex FFTs on fixed inputs,
the kinds of work that dominate the program (CNN features, ranging);
on that VM, over ten-second windows, the program's latency divided by
the slice time stayed within about 5% while each alone moved 40%.  Interpreted Python and tiny numpy
calls were tried too and drifted more than the program did.  A slice
calls no code of the program, so a change to the program moves the
reported times and leaves the meter alone.  Slices run between
operations, never inside a timed one or while another operation is in
flight, and each starts with an untimed repetition so the caches the
program left behind do not count.  The measured times and the factors
are printed beside the result.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: Seconds one reference slice takes at the nominal host speed.
NOMINAL_SLICE_S = 0.004

#: Timed repetitions of the reference work in one slice.
REPEATS = 3

#: FFTs per repetition, beside one dense product.
FFTS = 4

#: Slices behind one operation's factor: about three seconds of a
#: closed loop's ticks.
NEAREST = 31


class HostSpeed:
    """Times reference slices and turns them into speed factors.

    Slices are kept in the order they ran, with the time each ended, so
    :meth:`around` can take a factor over the slices nearest an instant,
    for one operation.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._dense = rng.normal(size=(256, 256))
        self._signal = rng.normal(size=(8, 2048)) + 1j * rng.normal(size=(8, 2048))
        self.slices: list[float] = []
        self.ended: list[float] = []

    def _work(self) -> float:
        product = self._dense @ self._dense
        total = float(product[0, 0])
        for _ in range(FFTS):
            total += float(np.fft.fft(self._signal, axis=1)[0, 0].real)
        return total

    def slice(self) -> None:
        """Run and time one reference slice: one untimed repetition, so
        the caches the program left behind do not count, then
        ``REPEATS`` timed ones."""
        self._work()
        began = perf_counter()
        for _ in range(REPEATS):
            self._work()
        ended = perf_counter()
        self.slices.append(ended - began)
        self.ended.append(ended)

    def tick(self, every_s: float = 0.1) -> None:
        """One slice if ``every_s`` passed since the last, so the meter
        costs about ``NOMINAL_SLICE_S / every_s`` of a loop's time."""
        if not self.ended or perf_counter() - self.ended[-1] >= every_s:
            self.slice()

    def burst(self, count: int = 100) -> None:
        """``count`` slices in a row (about half a second)."""
        for _ in range(count):
            self.slice()

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """Host slowness over slices ``start:end``: the median slice time
        over the nominal one (above 1 on a slower host)."""
        window = self.slices[start:end]
        if not window:
            raise ValueError("no reference slice in this phase")
        return statistics.median(window) / NOMINAL_SLICE_S

    def recent(self, count: int = NEAREST) -> float:
        """Host slowness over the last ``count`` slices."""
        return self.factor(max(0, len(self.slices) - count))

    def around(self, instant: float, count: int = NEAREST) -> float:
        """Host slowness over the ``count`` slices that ended nearest
        ``instant`` (a ``perf_counter`` reading)."""
        centre = bisect.bisect(self.ended, instant)
        start = min(max(0, centre - count // 2), max(0, len(self.slices) - count))
        return self.factor(start, start + count)
