"""Keeping a shared host's load out of the timings.

The benchmark runs on a shared virtual machine whose CPUs each alternate
between quiet and contended phases lasting seconds: same-seed runs of
one workload differed by up to 25% from that alone.  Two measures keep
it out of the results:

* each repetition starts pinned to the usable CPU that runs a short
  fixed probe fastest;
* a fixed reference kernel, timed before each repetition on that CPU,
  measures how fast the host runs.  The fastest kernel time of a run is
  the host's speed during its quietest phase, the same phase that the
  per-batch floors of the run's repetitions measure, and every reported
  time is scaled by ``REFERENCE_S / fastest kernel time``.

The kernel is fixed benchmark code, so a change to the program moves
the scaled times exactly as much as the measured ones.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

#: The reference kernel's time on a quiet CPU of the machine the
#: benchmark was defined on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
#: Reported times are at this host speed.
REFERENCE_S = 0.032

RECORD = np.dtype([("key", "i8"), ("uid", "i8"), ("grp", "i8")])


class Host:
    """CPU pinning plus reference-kernel timings for one run."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._cpus = sorted(os.sched_getaffinity(0))
        self._probe_keys = rng.permutation(1 << 15)
        self._keys = rng.permutation(1 << 17)
        self._records = np.zeros(1 << 16, dtype=RECORD)
        #: Reference-kernel times, one per :meth:`settle`.
        self.samples: list[float] = []

    def _probe_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(2):
            t = perf_counter()
            table = {}
            for i in range(4000):
                table[i & 255] = i
            self._probe_keys.argsort(kind="stable")
            best = min(best, perf_counter() - t)
        return best

    def _kernel(self) -> float:
        """Interpreter, sorting and copying work in the program's mix."""
        t = perf_counter()
        table: dict[int, int] = {}
        for i in range(30000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        np.argsort(self._keys, kind="stable")
        np.argpartition(self._keys, [1000, 50000, 100000])
        for _ in range(20):
            self._records.copy()
        return perf_counter() - t

    def settle(self) -> None:
        """Pin to the quietest CPU, then time the reference kernel there."""
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {min(self._cpus, key=self._probe_on)})
        self.samples.append(min(self._kernel() for _ in range(2)))

    @property
    def scale(self) -> float:
        """Factor taking this run's measured times to the reference speed."""
        return REFERENCE_S / min(self.samples)
