"""Fractional parts of base-b logarithms of 1..N and their exact step CDF.

Fractional parts are never computed as ``log(k)/log(b)`` minus a floor, which
loses digits near powers of b.  Instead the digit count is found by exact
integer comparison and the logarithm is taken of the mantissa
``k / b**(digits-1)`` in [1, b), so results carry full relative precision and
powers of b map to exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import CircleEmpirical, PiecewiseCdf, _check_base, _step_cdf, build_empirical

__all__ = [
    "LogSequenceSpec",
    "digit_count",
    "frac_log",
    "build_nu",
    "closed_form_cdf",
    "reference_rotation",
]


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class LogSequenceSpec:
    """Base/length pair with the derived digit count n: b**(n-1) <= N < b**n.

    This is the engine's validity envelope: an integer base b >= 2, and at
    most the largest n digits with b**(n+1) <= 2**63 - 1 (17 in base 10, 61
    in base 2).  The bound is int64 because ``build_nu`` holds the integers
    up to N and the powers of b up to b**n in int64 arrays; the guard keeps
    one more power of b as headroom.  Past it they would wrap around silently.
    """

    base: int
    count: int
    digits: int = field(init=False)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        # stored as an int, so a float base such as 10.0 takes the integer path
        base = _check_base(self.base)
        object.__setattr__(self, "base", base)
        digits = digit_count(base, self.count)
        if base ** (digits + 1) > _INT64_MAX:
            largest = digit_count(base, _INT64_MAX // base) - 1
            raise ValueError(
                f"N={self.count} overflows exact integer arithmetic for base {base}; "
                f"largest supported digit count is {largest}")
        object.__setattr__(self, "digits", digits)


def digit_count(base: int, k: int) -> int:
    """Number of base-``b`` digits of ``k``, by integer comparisons only."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    base = _check_base(base)
    d, p = 1, base
    while k >= p:
        p *= base
        d += 1
    return d


def frac_log(base: int, k: int) -> float:
    """Fractional part of log_b(k), exact 0 at powers of b."""
    base = _check_base(base)
    d = digit_count(base, k)
    mantissa = k / base ** (d - 1)  # in [1, b), full relative precision
    return math.log(mantissa) / math.log(base)


def _powers_table(base: int, upto: int) -> np.ndarray:
    powers = [1]
    while powers[-1] <= upto:
        powers.append(powers[-1] * base)
    return np.array(powers, dtype=np.int64)


def _frac_log_many(base: int, ks: np.ndarray) -> np.ndarray:
    powers = _powers_table(base, int(ks.max()))
    digits = np.searchsorted(powers, ks, side="right")
    mantissa = ks / powers[digits - 1]
    return np.log(mantissa) / math.log(base)


def build_nu(base: int, count: int) -> CircleEmpirical:
    """Empirical measure of the fractional parts of log_b(k), k = 1..count."""
    base = LogSequenceSpec(base, count).base  # the (base, N) envelope
    ks = np.arange(1, count + 1, dtype=np.int64)
    return build_empirical(_frac_log_many(base, ks), base)


def closed_form_cdf(base: int, count: int) -> PiecewiseCdf:
    """Step CDF of ``build_nu(base, count)`` by running jump counts.

    Its pieces start at the fractional logs of the n-digit integers
    i = b**(n-1)..N, then at those of the (n-1)-digit i = floor(N/b)+1 ..
    b**(n-1)-1, whose mantissas wrap around.  The CDF jumps at the mantissa
    of i by the number of k <= N sharing it, namely i, i/b, i/b**2, ...
    while b divides: 1 + v_b(i).  So each level is a running sum of ones
    plus one more at each multiple of each power b**j <= N, divided by N:
    O(N) work.  The sums are integer-valued floats, exact below 2**53 like
    the bounds' running sum below, so each ``k / N`` is the exact count's.
    """
    spec = LogSequenceSpec(base, count)
    b, N, n = spec.base, spec.count, spec.digits
    top = b ** (n - 1)  # the first n-digit integer
    first = N // b + 1  # the first (n-1)-digit integer whose block wraps
    size = N + 1 - first
    split = N + 1 - top  # pieces of the n-digit block, before the wrapped ones
    log_b = math.log(b)

    levels = np.ones(size)
    hi, lo = levels[:split], levels[split:]
    p = b
    while p <= N:  # p = b**j, j = 1..n-1, divides top
        hi[::p] += 1.0
        lo[-first % p::p] += 1.0
        p *= b
    np.add.accumulate(levels, out=levels)
    levels /= N

    # the i as floats, counted up in place by a cumulative sum of ones: exact
    # below 2**53, past any array that fits in memory; np.arange temporaries
    # here left 16 MB more resident after a row at base 2, N = 10^7
    bounds = np.ones(size + 1)
    hi, lo = bounds[:split], bounds[split:size]
    hi[0], lo[:1] = top, first
    np.add.accumulate(hi, out=hi)
    np.add.accumulate(lo, out=lo)
    hi /= top
    lo /= top // b
    np.log(bounds[:size], out=bounds[:size])
    bounds[:size] /= log_b
    return _step_cdf(b, bounds, levels)


def reference_rotation(base: int, count: int) -> float:
    """Rotation ``<-log_b N>`` aligning the exponential law with ``nu_N``."""
    fl = frac_log(base, count)
    return 0.0 if fl == 0.0 else 1.0 - fl
