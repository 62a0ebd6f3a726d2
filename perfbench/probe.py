"""Host-speed probe: rescales wall times to a reference host speed.

The benchmark runs on a few cores of a shared host. Other tenants' load
changes how fast the same code runs, by up to about 1.7x, in phases of
seconds to minutes. CPU time tracks wall time and steal time stays flat, so
the code runs slower rather than waiting, and no timer of its own can tell
the two apart. So the probe measures the host's speed from inside the
timed region: on a timer signal every ``PERIOD_S`` seconds, a fixed
pure-Python loop runs in the handler and its duration is recorded.

The slowdown hits interpreter work on cached data harder than work that
waits for memory. A loop of cached dict stores alone slowed more than the
package's large, memory-heavy jobs did, so it over-corrected them. Each
step of the loop therefore also makes a dependent read at a pseudo-random
place in a ``BUFFER_BYTES`` buffer, about the mix of the package's own
inner loops.

A timed region's scaled time is its wall time less the time spent in the
handler, multiplied by ``REFERENCE_S`` over the median loop duration seen
during the region. ``REFERENCE_S`` is about the loop's median duration on
the reference machine, so a scaled time reads as seconds at that machine's
usual speed. The loop does not touch the package, so a change to the
program moves the scaled time as it moves the wall time.

Python runs the handler between bytecodes of the main thread, so no
sample falls inside a long numpy or scipy call; the next one runs when the
call returns. A region with fewer than ``MIN_SAMPLES`` samples of its own
also uses the ones just before it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD_S = 0.05
LOOP_ITERATIONS = 2000
BUFFER_BYTES = 1 << 24
REFERENCE_S = 1.5e-3
MIN_SAMPLES = 5


def _loop(buffer: bytes) -> dict:
    """Integer arithmetic, dependent reads from ``buffer`` and dict stores."""
    table = {}
    mask = len(buffer) - 1
    x = 1
    for i in range(LOOP_ITERATIONS):
        x = (x * 1103515245 + 12345 + buffer[x & mask]) & 0x7FFFFFFF
        table[x & 1023] = i
    return table


class HostProbe:
    """Samples the loop on ``SIGALRM`` while entered; re-entrant across uses.

    ``samples`` keeps (loop seconds, handler seconds) of every sample since
    construction, so a short region can borrow the samples just before it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._buffer = random.Random(0).randbytes(BUFFER_BYTES)
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        _loop(self._buffer)
        t1 = time.perf_counter()
        self._busy = False
        self.samples.append((t1 - t0, time.perf_counter() - t0))

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, wall: float, start: int, end: int) -> tuple[float, float]:
        """(wall less handler time, that at reference speed) of a region.

        ``start`` and ``end`` are ``mark()`` read where the region's wall
        time started and stopped.
        """
        own = wall - sum(spent for _, spent in self.samples[start:end])
        window = self.samples[min(start, max(0, end - MIN_SAMPLES)):end]
        if not window:
            raise RuntimeError("host probe: no samples taken before this region")
        return own, own * REFERENCE_S / statistics.median(loop for loop, _ in window)

    def loop_median(self) -> float:
        return statistics.median(loop for loop, _ in self.samples)
