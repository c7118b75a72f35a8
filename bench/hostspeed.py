"""A fixed reference kernel that measures the host's speed during a run.

On a shared host, other tenants slow this process down for stretches of a
second to minutes: the same job then takes up to about 1.8 times as long.
How much of a run falls into such stretches changes from run to run, and it
moves every wall-clock time by far more than a benchmark bound allows.

The probe is code of the benchmark's own, never of the program, so a change
to torusq moves it only through the cache contents a job leaves behind.  It
mixes the three kinds of work the workloads do: interpreted Python, JSON
text of floats, and a numpy copy and sum of 32 MB arrays.  Timed before
every job, its mean time over the run says how slow the host was while the
jobs ran, and ``speed`` turns it into the factor that rescales the run's
times to what the reference host takes.  The workloads do not slow down
exactly as much as the probe, so rescaled figures still lean a little with
contention, but far less than wall-clock ones.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Probe time on the reference host (2 vCPU Intel Xeon, 105 MB L3, Python
# 3.11, numpy 2.4) in its uncontended mode: the tenth percentile of 400 probes.
REFERENCE_S = 0.021

_LOOP = 60_000
_FLOATS = 8_000
_DOUBLES = 4_000_000


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(_FLOATS).tolist()
        self._source = rng.standard_normal(_DOUBLES)
        self._target = np.empty_like(self._source)
        self.times: list = []

    @property
    def resident_bytes(self) -> int:
        """Memory the probe keeps resident, which the run's peak RSS includes."""
        return self._source.nbytes + self._target.nbytes

    def run(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        json.loads(json.dumps(self._floats))
        np.copyto(self._target, self._source)
        self._target.sum()
        self.times.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Reference time over the mean probe time: below 1 on a slower host."""
        return REFERENCE_S / statistics.fmean(self.times)
