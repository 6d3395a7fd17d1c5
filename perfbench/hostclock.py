"""Host-speed reference: a fixed piece of pure Python timed beside the
program's operations, used to scale their wall times to a nominal host.

On the 2-vCPU virtual machine the benchmark was defined on, the speed of
pure-Python code drifts by up to a factor of two, over minutes and also
within a second, with nothing else running in the machine.  CPU time
equals wall time there (no time is stolen from the process), so
`time.process_time` does not help, and the other vCPU's speed does not
follow this one's, so a sampler beside the program would not either.

So the reference runs in the benchmark's own thread: once before and once
after each timed group of operations, and every PERIOD_S during it, from a
SIGALRM handler.  The group's operation times, minus the time spent in the
handler, are scaled by NOMINAL_S / (mean reference time of the group): the
time the operations would have taken on a host where the reference takes
NOMINAL_S.  The reference imports nothing from the program, so a change to
the program moves the scaled times by its full effect.

The reference mixes the kinds of work the program does: integer
arithmetic, small named tuples, dictionary updates, list appends and sorts,
and Python function calls.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from collections import namedtuple

NOMINAL_S = 0.001  # about the median of sample() on the defining host
PERIOD_S = 0.05

_Pair = namedtuple("_Pair", "a b")


def _pair(x: int, y: int) -> _Pair:
    return _Pair(x, y)


def _kernel() -> int:
    total = 0
    for i in range(6_000):
        total += i * i % 7
    counts: dict[_Pair, int] = {}
    recent: list[tuple[int, int]] = []
    for i in range(600):
        p = _pair(i & 63, i % 7)
        counts[p] = counts.get(p, 0) + p.a + p[1]
        recent.append((p.b, i))
        if len(recent) > 64:
            recent.sort()
            recent = recent[32:]
    return total + len(counts) + len(recent)


def sample() -> float:
    """Seconds the reference takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Group:
    """One timed group of operations; `factor` is set when it ends."""

    def __init__(self, first: int):
        self.first = first
        self.factor = 1.0


class Clock:
    """Reference samples around and during timed groups of operations.
    Operations are timed with now(), which leaves out the handler's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.handler_s += time.perf_counter() - t0

    def now(self) -> float:
        return time.perf_counter() - self.handler_s

    @contextlib.contextmanager
    def group(self, ticking: bool = True):
        """Sample before and after the block, and every PERIOD_S inside it
        when `ticking`; on exit the group's factor is NOMINAL_S over the
        mean of these samples.  Blocks that wait on another process do not
        tick: the reference would then run beside that process."""
        g = Group(len(self.samples))
        self.samples.append(sample())
        if ticking:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield g
        finally:
            if ticking:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.samples.append(sample())
            g.factor = NOMINAL_S / statistics.fmean(self.samples[g.first:])
