"""Spans recorded by the benchmark around each public call into the library.

A span is (name, start, end, parent, job, ok): `name` is the layer call
("radiation.directivity"), `parent` the name of the enclosing span in the
same job ("bench.job" for a call made directly by a job), `job` the job
index and `ok` whether the call returned normally. Start and end come from
time.perf_counter(), which is CLOCK_MONOTONIC on Linux, so spans recorded
in a child interpreter line up with the parent's.

Spans are kept in memory and written out when the run ends. With tracing
off, NullTracer.call is a plain pass-through and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

JOB_SPAN = "bench.job"


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.job: int | None = None

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.spans.append((name, start, time.perf_counter(), JOB_SPAN, self.job, ok))

    def add(self, name, start, end, parent, ok=True):
        self.spans.append((name, start, end, parent, self.job, ok))


class NullTracer:
    enabled = False
    job = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, start, end, parent, ok=True):
        pass


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, errors, busy seconds and self seconds.

    Self time is a span's duration minus the durations of the spans whose
    parent it is within the same job.
    """
    covered = defaultdict(float)
    for name, start, end, parent, job, _ in spans:
        if parent is not None:
            covered[(job, parent)] += end - start
    stats = defaultdict(lambda: {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0})
    for name, start, end, parent, job, ok in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["errors"] += not ok
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - covered.get((job, name), 0.0)
    return dict(stats)


def reuse_fraction(keys) -> float:
    """Share of keys that already appeared earlier in the sequence."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0
