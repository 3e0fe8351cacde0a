"""Host speed: a fixed reference workload timed between the benchmark's
commands, so that the end-to-end timings can be read at one host speed.

The 2-CPU machine the benchmark was tuned on shares its cores with other
tenants.  Their load makes every kind of code slower by up to ~2x, in
spells from milliseconds to minutes, and CPU time slows with wall time.
Raw medians of one 28 s run then spread by up to ~60% from run to run,
which no longer says anything about the program.  What the program cannot
change is a probe made only of Python, threading, numpy and zlib: one
*chunk* of it is a pure-Python loop, an object/dict/sort churn, a
two-thread semaphore round trip and a numpy cumsum compressed with zlib,
each taking about a quarter of the chunk, so that it slows like the
program's mix of interpreter work, thread handoffs (simtime grants) and
array/compression work.

A chunk runs after a command once ``EVERY`` seconds have passed since
the last one (never inside a command; its time is kept out of every
timing, like the correctness checks').
Each chunk stands for the host's speed from halfway since the chunk
before it to halfway to the chunk after it.  A timing's *slowdown* is
the time-weighted mean of the chunks over its interval, over
``REF_S``; the timing divided by it is in seconds at the reference host
speed.  The host's speed changes within a second, so a short timing
takes the one chunk nearest to it in time, not an average over a
wider window (``perfbench/README.md`` says why).  The raw figures and the
slowdown are reported beside them (``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import threading
import time
import zlib
from bisect import bisect_right

import numpy as np

#: the fastest chunk seen on a shared 2-vCPU Intel Xeon KVM guest with
#: CPython 3.11, in a quiet spell (a constant scale: slowdown 1.0
#: means that speed)
REF_S = 1.75e-3
#: seconds of benchmark work between two chunks
EVERY = 0.025

#: sizes of the chunk's parts, each ~0.4 ms on that machine
_LOOP = 8000
_OBJECTS = 700
_ROUNDS = 36
_ARRAY = np.random.default_rng(0).integers(0, 64, 1000).astype(np.int64)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: dict) -> None:
        self.a, self.b = a, b


class HostSpeed:
    """Chunks of the reference workload and their durations."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        #: halfway points in time between consecutive chunks
        self._bounds: list[float] = []
        self._mid = 0.0
        self._last = time.perf_counter()
        self._ping, self._pong = threading.Semaphore(0), threading.Semaphore(0)
        self._stop = False
        self._echo = threading.Thread(target=self._echo_loop, name="hostspeed-echo")
        self._echo.start()

    def _echo_loop(self) -> None:
        while True:
            self._ping.acquire()
            if self._stop:
                return
            self._pong.release()

    def close(self) -> None:
        self._stop = True
        self._ping.release()
        self._echo.join()

    def chunk(self) -> float:
        """Run one chunk; returns (and keeps) its duration."""
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage is not the probe's work
        start = time.perf_counter()
        s = 0
        for i in range(_LOOP):
            s += i * i
        points = [_Point(i, {"k": i % 7}) for i in range(_OBJECTS)]
        points.sort(key=lambda p: (p.b["k"], -p.a))
        {(p.a, p.b["k"]): p for p in points}
        for _ in range(_ROUNDS):
            self._ping.release()
            self._pong.acquire()
        zlib.compress(np.cumsum(_ARRAY).tobytes(), 6)
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.keep(start, end)
        return end - start

    def keep(self, start: float, end: float) -> None:
        """Keep a chunk that ran from ``start`` to ``end``."""
        mid = (start + end) / 2
        if self.chunks:
            self._bounds.append((self._mid + mid) / 2)
        self.chunks.append(end - start)
        self._mid, self._last = mid, end

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY

    def slowdown(self, start: float, end: float) -> float:
        """Time-weighted mean chunk over ``[start, end]``, over ``REF_S``."""
        bounds = self._bounds
        k = bisect_right(bounds, start)
        if end <= start:
            return self.chunks[k] / REF_S
        total = 0.0
        lo = start
        while True:
            hi = bounds[k] if k < len(bounds) else end
            total += self.chunks[k] * (min(hi, end) - lo)
            if hi >= end:
                return total / (end - start) / REF_S
            lo = hi
            k += 1


if __name__ == "__main__":
    # how REF_S was read: the fastest of many chunks on one CPU
    import os
    import statistics

    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    probe = HostSpeed()
    try:
        took = [probe.chunk() for _ in range(500)]
    finally:
        probe.close()
    print(f"chunk: fastest {min(took) * 1e3:.3f} ms, "
          f"median {statistics.median(took) * 1e3:.3f} ms, REF_S {REF_S * 1e3:.3f} ms")
