"""Host speed reference for the benchmark's time metrics.

On a shared host the clock speed of our cores follows the load of
everyone else on the machine: a fixed piece of pure-Python work takes
1.7 ms in one minute and 3 ms the next.  Left alone, that swamps every
change z3calc could make to its own speed.

So each run also times a fixed reference kernel: between requests at
most every INTERVAL seconds, every INTERVAL while a CLI child runs (see
wait), and once after the last request.  The kernel is pure Python
exercising what z3calc's hot path exercises (Fraction arithmetic, tuple
keys, dict stores) and never touches z3calc.  It runs with the cyclic GC
off, so z3calc's heap cannot slow it, and is timed warm: one pass first,
then the median of BURST passes.  Times are scaled by REF_S over the mean
kernel time, of the whole run (factor) or of the samples near one request
(local_factor): times on a host where the kernel takes REF_S.  A change
to z3calc moves them in full; a change of host speed cancels out, as far
as the kernel tracks it.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import time
from fractions import Fraction

REF_S = 0.0025  # the kernel's time at the reference speed
INTERVAL = 0.5
BURST = 5


def kernel():
    # CPU time of this thread, so that a child sharing the core (see
    # HostSpeed.wait) and preempting the kernel is not counted
    t0 = time.thread_time()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
        seen[(i, i % 7)] = acc
    return time.thread_time() - t0


class HostSpeed:
    def __init__(self):
        self.samples = []
        self.times = []
        self._last = float("-inf")

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            self.samples.append(statistics.median(kernel() for _ in range(BURST)))
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        self.times.append(self._last)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()

    def wait(self, proc, timeout):
        """Wait for a child process, sampling every INTERVAL while it runs.

        Pin this process and the child to one core first: sampled on the
        other hardware thread of the core, the kernel would time its
        contention with the child, not the host's speed."""
        deadline = time.perf_counter() + timeout
        try:
            while True:
                try:
                    return proc.wait(
                        timeout=max(0.0, self._last + INTERVAL - time.perf_counter()))
                except subprocess.TimeoutExpired:
                    if time.perf_counter() > deadline:
                        raise
                    self.sample()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def factor(self):
        """REF_S over the mean kernel time."""
        return REF_S / statistics.fmean(self.samples)

    def local_factor(self, t0, t1):
        """REF_S over the mean kernel time of the samples taken within
        INTERVAL of the span [t0, t1] (perf_counter), or of the nearest."""
        near = [s for s, t in zip(self.samples, self.times)
                if t0 - INTERVAL <= t <= t1 + INTERVAL]
        if not near:
            near = [min(zip(self.samples, self.times),
                        key=lambda st: min(abs(st[1] - t0), abs(st[1] - t1)))[0]]
        return REF_S / statistics.fmean(near)
