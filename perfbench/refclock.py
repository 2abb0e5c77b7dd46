"""The reference kernel and the scaled CPU clock every timed figure goes through.

The host this benchmark runs on drifts: identical work can take 7.6 CPU s in
one process and 11.8 in the next.  The ratio of that work to an interleaved,
allocation-heavy reference loop stays far steadier.  So each operation's CPU
time is divided by a smoothed kernel time measured next to it and multiplied by
``NOMINAL_KERNEL_S``; the result reads as seconds on a nominal host on which
one kernel call takes ``NOMINAL_KERNEL_S``.

The kernel belongs to the benchmark.  It must never change together with the
program under test, or scaled figures stop being comparable across commits.
"""

from __future__ import annotations

import gc
import signal
import statistics
from collections import deque
from time import perf_counter, process_time

KERNEL_REPS = 12
# CPU seconds one kernel call takes on the nominal host (about this one's
# median when the constant was fixed).
NOMINAL_KERNEL_S = 0.0006
# kernel samples in the smoothed reference (their median)
WINDOW = 25
# CPU seconds of timed operations between two interleaved kernel samples
SAMPLE_EVERY_S = 0.02
# CPU-time period of the kernel samples taken inside one long operation
TIMER_PERIOD_S = 0.1


def _kernel_work(reps: int) -> int:
    # sets, dicts, tuples and sorting, in the proportions graph code uses them
    acc = 0
    for r in range(reps):
        rows: dict = {}
        for i in range(48):
            key = (i % 13, (i * 7 + r) % 11)
            s = rows.get(key)
            if s is None:
                s = rows[key] = set()
            s.add(i ^ r)
        items = sorted(rows.items(), key=lambda kv: (len(kv[1]), kv[0]), reverse=True)
        seen: frozenset = frozenset()
        for k, s in items:
            seen = seen | s
            acc += len(seen) + k[0]
    return acc


def kernel_seconds(clock=process_time) -> float:
    """One kernel call, timed by ``clock``, with the cyclic GC off so that a
    program holding a bigger heap cannot slow the kernel down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _kernel_work(KERNEL_REPS)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Times operations in CPU seconds and scales them to the nominal host."""

    def __init__(self) -> None:
        self.window: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self._since_sample = 0.0

    def sample(self) -> None:
        dt = kernel_seconds()
        self.window.append(dt)
        self.samples.append(dt)
        self._since_sample = 0.0

    def warm(self) -> None:
        """Fill the window, so the first operation has a full reference."""
        for _ in range(WINDOW):
            self.sample()

    def reference(self) -> float:
        return statistics.median(self.window)

    def scale(self, raw: float, reference: float | None = None) -> float:
        return raw * NOMINAL_KERNEL_S / (reference if reference is not None else self.reference())

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, raw CPU s, scaled s)."""
        if self._since_sample >= SAMPLE_EVERY_S:
            self.sample()
        t0 = process_time()
        out = fn(*args)
        raw = process_time() - t0
        self._since_sample += raw
        return out, raw, self.scale(raw)

    def time_long(self, fn, *args):
        """Like :meth:`time`, for one call of seconds: a CPU-time interval
        timer takes kernel samples during the call, and their CPU time is
        taken out of the call's.  Inside the handler the kernel is timed by
        the monotonic clock, since the CPU clock reads in whole ticks there."""
        inside: list[float] = []
        spent = [0.0]

        def on_tick(signum, frame):
            t0 = perf_counter()
            inside.append(kernel_seconds(perf_counter))
            spent[0] += perf_counter() - t0

        previous = signal.signal(signal.SIGPROF, on_tick)
        t0 = process_time()
        signal.setitimer(signal.ITIMER_PROF, TIMER_PERIOD_S, TIMER_PERIOD_S)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            raw = process_time() - t0
            signal.signal(signal.SIGPROF, previous)
        raw = max(raw - spent[0], 0.0)
        reference = statistics.median(list(self.window) + inside)
        self.samples.extend(inside)
        self.window.extend(inside)
        self._since_sample += raw
        return out, raw, self.scale(raw, reference)
