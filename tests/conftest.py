"""Shared fixtures: seeded random measures for the property suites, the
CPU sets a row is run on, and the summation block rule written out again."""

import contextlib
import math
import os

import numpy as np
import pytest

from circletransport import (
    build_empirical,
    cdf_of_empirical,
    cdf_wrapped_exponential,
)

SEED = 20260324


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_step_cdf(rng, base=10, max_atoms=12):
    n = int(rng.integers(1, max_atoms + 1))
    return cdf_of_empirical(build_empirical(rng.random(n), base))


def random_wrapped_cdf(rng, base=10):
    return cdf_wrapped_exponential(base, float(rng.random()))


def random_cdf(rng, base=10):
    """Step CDF or wrapped exponential, equally likely."""
    if rng.random() < 0.5:
        return random_step_cdf(rng, base)
    return random_wrapped_cdf(rng, base)


def one_pass_sum(values):
    """The block rule of ``summation`` applied to a whole array in one call,
    written out with ``math.fsum`` over lists for short arrays and tails."""
    if values.size <= 4096:
        return math.fsum(values.tolist())
    nfull = values.size // 4096 * 4096
    parts = values[:nfull].reshape(-1, 4096).sum(axis=1).tolist()
    return math.fsum(parts + [math.fsum(values[nfull:].tolist())])


def one_cpu_and_all():
    """The CPU sets to run a row on: one of this thread's CPUs, then all of them.

    An integral over ``transport._FORK_MIN_PIECES`` pieces or more forks a
    worker for each CPU past the first, and runs inline on one.  Where the
    platform has no affinity call, a row sees one CPU (``transport._cpus``),
    so the only set is a one-CPU placeholder that ``affinity`` leaves as it
    is.
    """
    if not hasattr(os, "sched_getaffinity"):
        return [{0}]
    cpus = os.sched_getaffinity(0)
    return [{min(cpus)}, cpus]


@contextlib.contextmanager
def affinity(cpus):
    """Run the block on ``cpus``; the thread's own CPU set is restored after.

    Where the platform has no affinity call, the block runs as it is.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
