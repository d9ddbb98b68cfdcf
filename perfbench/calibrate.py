"""A fixed calibration kernel that measures how fast a CPU runs right now.

On the shared 2-vCPU host this benchmark was built on, one CPU at a time
slows down by up to 1.7x for seconds at a stretch, with no system time and
almost no steal; the same pass of small rows took anywhere from 2.4 to
4.0 s.  Code dominated by interpreter overhead and small numpy calls, like
the program's small rows, slows with it.  The kernel below is that kind of
code: frozen dataclasses around small arrays, small numpy ufunc calls and
``math.fsum`` over short lists.  It shares no code with the program, so a
change to the program cannot move it.

A calibrated time is scaled by ``REFERENCE_S / kernel time``, with the
kernel timed right before and right after the timed code, all on one CPU.
That reports it at a fixed speed of the kernel.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

# About the median kernel time on the machine the bounds were set on (Xeon,
# Python 3.11.7, numpy 2.4.6); it only fixes the unit of calibrated seconds.
REFERENCE_S = 0.05
_ROUNDS = 200

_ARRAYS = [np.sort(np.random.default_rng(0).random(n)) for n in (50, 200, 800, 2000)]


@dataclass(frozen=True)
class _Pieces:
    at: np.ndarray
    value: np.ndarray


def _step(x: np.ndarray) -> float:
    p = _Pieces(np.ascontiguousarray(x), np.power(2.0, x))
    lo, hi = p.at[:-1], p.at[1:]
    logs = np.where(lo > 0.3, np.log(np.where(lo > 0.3, lo, 1.0)), 0.0)
    total = math.fsum((hi - lo).tolist()) + math.fsum(logs.tolist())
    total += int(np.searchsorted(p.at, 0.5)) + np.unique(np.concatenate((lo, hi))).size
    for _ in range(8):
        total += float(np.sum(np.clip(p.value - 1.0, 0.0, None) * (p.at > 0.2)))
    return total


@contextlib.contextmanager
def one_cpu():
    """Keep this process (and the processes it starts) on one CPU meanwhile.

    The two CPUs change speed independently, so the kernel only measures
    the speed code ran at when both ran on the same CPU.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about ``REFERENCE_S``)."""
    start = time.perf_counter()
    for i in range(_ROUNDS):
        _step(_ARRAYS[i % len(_ARRAYS)])
    return time.perf_counter() - start
