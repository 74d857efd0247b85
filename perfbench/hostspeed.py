"""Host speed, sampled on a background thread throughout the run.

The 2-core x86 hosts this benchmark was tuned on share their cores with
other tenants, and their speed changes from one millisecond to the next:
a fixed numpy kernel alternates between two speeds 1.6x apart, in bursts
of 10 ms to several seconds, and the share of time spent in each drifts
over minutes. A wall-clock median over a 30-second run follows that drift,
so runs of the same code spread by 20-35% from one to the next.

HostMeter measures the speed throughout the run: every PERIOD_S a
background thread runs a fixed numpy kernel (a complex exponential and sum
over a 96 x 160 array, much like the library's direct field sum; no change
to the library can alter it) and records the CPU seconds that one run took.
CPU time leaves out the time the thread waits for the CPU or the
interpreter lock, so a sample measures only how fast the CPU ran. With the
process pinned to one CPU, the samples taken during a job measure the speed
the job ran at, and the benchmark reports the job in reference seconds:
raw seconds x REF_S / (the mean sample during the job). The thread uses
about 3% of the CPU, the same share in every run. On that host, over ten
runs of each workload, the median job time spread by 12-26% (interquartile
range over median) in raw seconds and by 2-3% in reference seconds.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# The kernel's typical CPU time on the 2-core x86 host the benchmark was
# tuned on; it only sets the scale of the reference second.
REF_S = 0.00065
PERIOD_S = 0.025
MIN_SAMPLES = 5  # a shorter measurement uses the MIN_SAMPLES samples nearest to it
_X = np.linspace(0.0, 1.0, 96)
_Y = np.linspace(0.0, 3.0, 160)


class HostMeter:
    """Background sampler of the host speed; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            np.exp(1j * np.outer(_X, _Y)).sum()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def to_reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of perf_counter time."""
        samples = list(self.samples)
        inside = [cpu for t, cpu in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2.0
            inside = [cpu for _, cpu in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return (end - start) * REF_S / statistics.fmean(inside)


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to its lowest allowed CPU.

    The two CPUs of a shared host can run at different speeds at the same
    time; on one CPU the samples and the measurement see the same speed.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
