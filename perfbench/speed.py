"""Core-speed probe: how fast the CPU under a child process ran while it ran.

On a shared host a vCPU's speed changes by tens of percent within seconds,
for instance when the other hyperthread of its physical core gets busy.
On a 2-vCPU KVM guest (Xeon, family 6 model 143) a fixed pure-Python loop
took either about 42 ms or about 68 ms, switching every few seconds, and a
5 s radks run varied from 4.1 s to 6.9 s.  The process's CPU time moved
with its wall time, so the core ran slower; no time was stolen from it.
The two vCPUs changed speed independently of each other.

A SpeedProbe thread pinned to each CPU wakes every PERIOD_S, times a fixed
pure-Python loop of about 0.2 ms, and records when it started and how long
it took.  Between two `mark()`s, `factor` takes the CPU that was busy
longest, the one that ran the critical path of a job spread over several
CPUs, and returns NOMINAL_S over its mean loop time: seconds measured in
the window, times the factor, are seconds at the nominal core speed, one on
which the loop takes NOMINAL_S.  On the host above, that took the spread
of single radks runs from 0.20 to 0.04 of their median, and of single
2-worker sweeps from 0.18 to 0.06.  The loop takes 2% to 3% of each period
from the child it watches.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

PERIOD_S = 0.01
LOOP = 3000
NOMINAL_S = 2.5e-4


def _loop_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i
    return time.perf_counter() - t0


def busy_ticks(cpus) -> dict:
    """Clock ticks each of `cpus` has spent busy since boot, from /proc/stat."""
    ticks = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
                ticks[int(name[3:])] = user + nice + system + irq + softirq
    return ticks


class SpeedProbe:
    """Speed samples of `cpus`, one pinned thread each, while in a `with` block."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self._samples = {cpu: [] for cpu in self.cpus}  # (start, loop seconds)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True) for cpu in self.cpus
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # 0 is the calling thread
        samples = self._samples[cpu]
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            samples.append((start, _loop_seconds()))

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def mark(self):
        """(perf_counter seconds, busy ticks per CPU) now; a window's end."""
        return time.perf_counter(), busy_ticks(self.cpus)

    def factor(self, start, end) -> float:
        """NOMINAL_S over the mean loop time of the samples that started
        between the marks `start` and `end` on the CPU busy longest between
        them; a window too short to hold a sample uses the first sample
        after it, or else the last one.
        """
        (t0, busy0), (t1, busy1) = start, end
        cpu = max(self.cpus, key=lambda c: busy1.get(c, 0) - busy0.get(c, 0))
        samples = self._samples[cpu][:]  # the probe thread may still append
        if not samples:
            raise RuntimeError(f"the speed probe took no samples on CPU {cpu}")
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_left(samples, t1, key=lambda s: s[0])
        window = samples[lo:hi] or [samples[min(lo, len(samples) - 1)]]
        return NOMINAL_S / (sum(d for _, d in window) / len(window))
